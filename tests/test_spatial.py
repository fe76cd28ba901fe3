import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fmasim.dynamics import coriolis_torque
from fmasim.fixtures import compliant_scale_surface, fma_paper_plant, powercube6
from fmasim.fma import (
    WeightingPolicy,
    allocate_velocities,
    computed_torque_voltage,
    electromagnetic_torques,
    output_velocity,
    reduced_dynamics,
    scale_ratio,
    weighted_pseudo_inverse,
)
from fmasim.force_control import (
    ContactSurface,
    GainSet,
    compliant_control_step,
    contact_wrench,
    fixture_projector,
    project_force,
    pure_force_control_step,
    virtual_inertia_damper_step,
)
from fmasim.kinematics import compute_gkic, ee_velocity, frame_transforms, g_function, static_joint_torques
from fmasim.scenario import ForceControlScenario
from fmasim.spatial import (
    Pose,
    Rotation,
    SpatialTransform,
    Twist,
    Wrench,
    _lapack_eigvalsh,
    _lapack_solve,
    compose,
    rotation_from_fixed_euler,
    skew,
)

RNG = np.random.default_rng(1)


def random_rotation(rng):
    e = rng.uniform(-np.pi, np.pi, 3)
    return rotation_from_fixed_euler(*e)


def test_skew_matches_cross_product():
    for _ in range(10):
        v, u = RNG.normal(size=3), RNG.normal(size=3)
        assert np.allclose(skew(v) @ u, np.cross(v, u))
    assert np.allclose(skew([1, 2, 3]), -skew([1, 2, 3]).T)


def test_rotation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Rotation(np.ones((3, 3)))
    with pytest.raises(ValueError):
        Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(ValueError):
        Rotation(np.eye(2))
    with pytest.raises(ValueError) as refused:
        Rotation(np.full((3, 3), np.nan))
    # A refused array is printed as a list, on one line.
    assert str(refused.value) == (
        "rotation matrix must be finite, got [[nan, nan, nan], [nan, nan, nan], [nan, nan, nan]]"
    )


def test_rotation_is_immutable():
    r = Rotation.identity()
    with pytest.raises(AttributeError):
        r.matrix = np.eye(3)
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 2.0


def test_euler_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        e = rng.uniform(-np.pi + 0.01, np.pi - 0.01, 3)
        if abs(abs(e[1]) - np.pi / 2) < 0.05:
            continue  # stay clear of the gimbal fold
        r = rotation_from_fixed_euler(*e)
        back = rotation_from_fixed_euler(*r.as_fixed_euler())
        assert np.allclose(back.matrix, r.matrix, atol=1e-12)


def test_euler_gimbal_pins_ez():
    r = rotation_from_fixed_euler(0.3, np.pi / 2, 0.2)
    ex, ey, ez = r.as_fixed_euler()
    assert ez == 0.0
    assert np.isclose(ey, np.pi / 2)
    # the recovered angles still reproduce the matrix
    assert np.allclose(rotation_from_fixed_euler(ex, ey, ez).matrix, r.matrix, atol=1e-12)


def test_rotation_euler_convention_is_fixed_xyz():
    ex, ey, ez = 0.3, -0.4, 0.9
    cx, sx = np.cos(ex), np.sin(ex)
    cy, sy = np.cos(ey), np.sin(ey)
    cz, sz = np.cos(ez), np.sin(ez)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    assert np.allclose(rotation_from_fixed_euler(ex, ey, ez).matrix, rz @ ry @ rx)


def test_rotation_compose_apply_inverse():
    a, b = random_rotation(RNG), random_rotation(RNG)
    v = RNG.normal(size=3)
    assert np.allclose(a.compose(b).apply(v), a.apply(b.apply(v)))
    assert np.allclose(a.inverse().apply(a.apply(v)), v)


def test_pose_wraps_angles_and_freezes():
    p = Pose(np.array([1.0, 2.0, 3.0]), np.array([3.0 * np.pi, 0.0, -np.pi]))
    assert np.isclose(p.euler[0], np.pi)
    assert np.isclose(p.euler[2], np.pi)  # -pi wraps to +pi
    assert np.allclose(p.as_vector()[:3], [1, 2, 3])
    with pytest.raises(ValueError):
        p.position[0] = 0.0


def test_wrench_twist_array_round_trip():
    a = RNG.normal(size=6)
    assert np.allclose(Wrench.from_array(a).as_array(), a)
    assert np.allclose(Twist.from_array(a).as_array(), a)
    with pytest.raises(ValueError):
        Wrench.from_array(np.zeros(5))
    with pytest.raises(ValueError):
        Twist(np.zeros(2), np.zeros(3))


def test_spatial_transform_matrix_structure():
    r = random_rotation(RNG)
    p = RNG.normal(size=3)
    x = SpatialTransform(r, p)
    m = x.matrix
    assert np.allclose(m[:3, :3], r.matrix)
    assert np.allclose(m[3:, 3:], r.matrix)
    assert np.allclose(m[3:, :3], skew(p) @ r.matrix)
    assert np.allclose(m[:3, 3:], 0.0)


def test_transform_wrench_agrees_with_matrix():
    for _ in range(10):
        x = SpatialTransform(random_rotation(RNG), RNG.normal(size=3))
        w = Wrench(RNG.normal(size=3), RNG.normal(size=3))
        assert np.allclose(x.apply(w).as_array(), x.matrix @ w.as_array())


def test_compose_matches_sequential_application():
    a = SpatialTransform(random_rotation(RNG), RNG.normal(size=3))
    b = SpatialTransform(random_rotation(RNG), RNG.normal(size=3))
    w = Wrench(RNG.normal(size=3), RNG.normal(size=3))
    lhs = compose(a, b).apply(w).as_array()
    rhs = a.apply(b.apply(w)).as_array()
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(compose(a, b).matrix, a.matrix @ b.matrix)


def test_identity_transform_is_neutral():
    w = Wrench(np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.0, -1.0]))
    out = SpatialTransform.identity().apply(w)
    assert np.array_equal(out.as_array(), w.as_array())


_CHAIN = powercube6()
_SURFACE = ContactSurface(stiffness=1000.0)
_NAN_THETA = [0.0, 0.0, np.nan, 0.0, 0.0, 0.0]


def _vector_cases():
    for f in (frame_transforms, g_function, compute_gkic):
        call = lambda theta, f=f: f(_CHAIN, theta)
        yield pytest.param(call, np.zeros(5), "theta must have shape (6,), got (5,)", id=f"{f.__name__}-short")
        yield pytest.param(call, _NAN_THETA, f"theta must be finite, got {_NAN_THETA}", id=f"{f.__name__}-nan")
    for name, call in (
        ("position", lambda p: contact_wrench(_SURFACE, p)),
        ("velocity", lambda v: contact_wrench(_SURFACE, (0.0, 0.0, 1.0), v)),
    ):
        for value, got, kind in (([[0.0, 0.0, -1.0e-3]], "(1, 3)", "row"), (np.zeros(4), "(4,)", "long")):
            message = f"{name} must have shape (3,), got {got}"
            yield pytest.param(call, value, message, id=f"contact_wrench-{name}-{kind}")
    yield pytest.param(
        lambda p: fixture_projector(p, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        [[0.0, 0.0, 0.0]],
        "p1 must have shape (3,), got (1, 3)",
        id="fixture_projector-row",
    )
    yield pytest.param(
        lambda home: ForceControlScenario(_CHAIN, compliant_scale_surface(), 1.0e-4, home=home),
        (0.0,) * 5,
        "home must have shape (6,), got (5,)",
        id="ForceControlScenario-home",
    )
    ones, zeros, gains = np.ones(6), np.zeros(6), GainSet(kp=np.ones(6))
    fixture = fixture_projector((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    for law, name, n, call in (
        ("compliant", "kp", 6, lambda v: compliant_control_step(np.eye(6), v, ones)),
        ("compliant", "e_f", 6, lambda v: compliant_control_step(np.eye(6), ones, v)),
        ("pure", "e_f", 6, lambda v: pure_force_control_step(np.eye(6), gains, v, zeros, zeros)),
        ("pure", "e_f_dot", 6, lambda v: pure_force_control_step(np.eye(6), gains, ones, v, zeros)),
        ("pure", "e_f_int", 6, lambda v: pure_force_control_step(np.eye(6), gains, ones, zeros, v)),
        ("damper", "k", 6, lambda v: virtual_inertia_damper_step(v, Wrench())),
        ("project_force", "force", 3, lambda v: project_force(fixture, v)),
    ):
        for value, got, kind in ((np.ones((1, n)), f"(1, {n})", "row"), (np.ones((n, 1)), f"({n}, 1)", "column")):
            yield pytest.param(call, value, f"{name} must have shape ({n},), got {got}", id=f"{law}-{name}-{kind}")
        nan = [np.nan] + [1.0] * (n - 1)
        yield pytest.param(call, nan, f"{name} must be finite, got {nan}", id=f"{law}-{name}-nan")
    g_nan = np.eye(6)
    g_nan[0, 0] = np.nan
    for law, call in (
        ("compliant", lambda g: compliant_control_step(g, ones, ones)),
        ("pure", lambda g: pure_force_control_step(g, gains, ones, zeros, zeros)),
    ):
        yield pytest.param(call, np.eye(5), "g must have shape (6, 6), got (5, 5)", id=f"{law}-g-small")
        yield pytest.param(call, g_nan, f"g must be finite, got {g_nan.tolist()}", id=f"{law}-g-nan")
    yield pytest.param(lambda g: ee_velocity(g, ones), ones, "g must have shape (6, 6), got (6,)", id="ee_velocity-g-vector")
    torques = lambda g: static_joint_torques(g, Wrench())
    yield pytest.param(torques, g_nan, f"g must be finite, got {g_nan.tolist()}", id="static_joint_torques-g-nan")
    yield pytest.param(torques, np.ones((5, 6)), "g must have shape (6, 6), got (5, 6)", id="static_joint_torques-g-5x6")
    power = np.zeros((6, 6, 6))
    power[1, 2, 3] = np.nan
    yield pytest.param(
        lambda p: coriolis_torque(p, ones), power, f"power must be finite, got {power.tolist()}", id="coriolis-power-nan"
    )
    # The actuator's gear row, speeds, seed, voltages and weights.
    gear = [1.0, 2.0]
    for name, weight, call in (
        ("quiet", [[1.0, 0.0], [0.0, np.inf]], lambda w: WeightingPolicy(w, np.eye(2), 4.0)),
        ("disturbed", [[np.nan, 0.0], [0.0, 1.0]], lambda w: WeightingPolicy(np.eye(2), w, 4.0)),
    ):
        yield pytest.param(call, weight, f"{name} must be finite, got {weight}", id=f"WeightingPolicy-{name}")
    yield pytest.param(
        lambda w: weighted_pseudo_inverse(gear, w), np.diag([1.0, np.inf]),
        "weight must be finite, got [[1.0, 0.0], [0.0, inf]]", id="weighted_pseudo_inverse-weight-inf",
    )
    yield pytest.param(
        weighted_pseudo_inverse, [[1.0], [2.0]], "g_row must have shape (2,), got (2, 1)", id="weighted_pseudo_inverse-g-column"
    )
    nan = [np.nan, 1.0]
    for name, call in (
        ("omega_p", lambda v: output_velocity(gear, v)),
        ("qd_seed", lambda v: allocate_velocities(gear, 1.0, qd_seed=v)),
        ("v", lambda v: reduced_dynamics(fma_paper_plant(), 0.0, 0.0, v, 0.0)),
    ):
        yield pytest.param(call, nan, f"{name} must be finite, got {nan}", id=f"fma-{name}-nan")
    # The actuator's scalars; unchecked, NaN and infinity pass through to the result.
    plant, zero = fma_paper_plant(), [0.0, 0.0]
    for name, value, call in (
        ("qd_out", np.nan, lambda x: allocate_velocities(gear, x)),
        ("q", np.nan, lambda x: reduced_dynamics(plant, x, 0.0, zero, 0.0)),
        ("tau_ext", np.inf, lambda x: reduced_dynamics(plant, 0.0, 0.0, zero, x)),
        ("qd", np.nan, lambda x: computed_torque_voltage(plant, 0.0, x, 0.0, 0.0, 0.0)),
        ("g1", np.nan, lambda x: scale_ratio(x, 1.0)),
    ):
        yield pytest.param(call, value, f"{name} must be finite, got {value!r}", id=f"fma-{name}-{value}")
    yield pytest.param(
        lambda v: electromagnetic_torques(plant, v, zero), nan, f"v must be finite, got {nan}", id="fma-torques-v-nan"
    )


@pytest.mark.parametrize("call, value, message", _vector_cases())
def test_vector_arguments_are_refused_by_name(call, value, message):
    # One line naming the argument, through errors.checked_vector or
    # errors.frozen_array: no reshape of a row or a too-long vector, no
    # unnamed joint count, and no numpy warning before the refusal.
    with pytest.raises(ValueError) as refused, warnings.catch_warnings():
        warnings.simplefilter("error")
        call(value)
    assert str(refused.value) == message


# Square matrices of every size the chains use, and right-hand sides that
# reach the signed zeros, subnormals and both ends of the float range.
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5.0e-324, -5.0e-324, -2.0e-310]),
    st.floats(-1.0e3, 1.0e3),
    st.floats(allow_nan=False),
)


@st.composite
def _square_systems(draw):
    n = draw(st.integers(1, 6))
    # Each entry drawn on its own: arrays' default fill makes most matrices rank one.
    a = draw(arrays(np.float64, (n, n), elements=_entries, fill=st.nothing()))
    b = draw(arrays(np.float64, (n,), elements=_entries, fill=st.nothing()))
    # The force runner passes the transposed view of its C-ordered Jacobian.
    return (a.T if draw(st.booleans()) else a), b


def _outcome(f, *args):
    """The bytes of ``f``'s result with its dtype and shape, or the message of its LinAlgError."""
    try:
        out = f(*args)
    except np.linalg.LinAlgError as exc:
        return str(exc)
    return out.dtype, out.shape, out.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_square_systems())
def test_lapack_helpers_are_the_linalg_calls_byte_for_byte(system):
    a, b = system
    assert _outcome(_lapack_solve, a, b) == _outcome(np.linalg.solve, a, b)
    assert _outcome(_lapack_eigvalsh, a) == _outcome(np.linalg.eigvalsh, a)


def test_lapack_solve_raises_numpys_singular_matrix_error():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for solve in (_lapack_solve, np.linalg.solve):
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            solve(singular, np.ones(2))


def test_lapack_solve_of_an_infinite_rhs_is_numpys_nan_vector():
    # No error: a non-finite joint command is caught after the solve, by
    # the runner's finiteness check on the joint state.
    a, b = np.diag([2.0, 3.0, 4.0]), np.array([np.inf, 1.0, 1.0])
    with np.errstate(all="raise"):
        ours, numpys = _lapack_solve(a, b), np.linalg.solve(a, b)
    assert ours.tobytes() == numpys.tobytes()
    assert np.isnan(ours).all()
