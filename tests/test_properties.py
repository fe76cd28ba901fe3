"""Invariants checked over generated inputs with hypothesis."""
import contextlib
import io
import math
import tempfile
from collections import deque
from dataclasses import fields, is_dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fmasim import cli, config, fixtures
from fmasim.config import (
    build_scenario,
    load_scenario,
    parse_config,
    replace_values,
    serialize_config,
)
from fmasim.dynamics import (
    DynamicsQuantities,
    ExternalLoad,
    _composite_terms,
    _joint_terms,
    compute_dynamics,
    coriolis_torque,
    forward_dynamics,
    inverse_dynamics,
)
from fmasim.errors import SimulationBlowUpError
from fmasim.fixtures import fma_paper_design, fma_paper_plant, fma_paper_weighting
from fmasim.fma import (
    FRICTION_KNEE_GAIN,
    FRICTION_KNEE_RATE,
    FRICTION_STATIC,
    FRICTION_VISCOUS,
    WeightingPolicy,
    allocate_velocities,
    computed_torque_voltage,
    null_space_projector,
    reduced_dynamics,
    reduced_terms,
    stribeck_friction,
    weighted_pseudo_inverse,
    weighting,
)
from fmasim.force_control import (
    ContactPhase,
    ContactSurface,
    GainSet,
    SignalConditioner,
    VirtualFixture,
    _condition_axis,
    _penalty,
    compliant_control_step,
    contact_state_step,
    contact_wrench,
    pure_force_control_step,
    window_mean,
)
from fmasim.kinematics import (
    DHRow,
    GKICSet,
    JointState,
    SerialChainModel,
    _point_g,
    com_positions,
    compute_gkic,
    frame_floats,
    frame_transforms,
    g_function,
    h_function,
    tool_height,
)
from fmasim.scenario import TRACE_COLUMNS, BurrDisturbance, FmaScenario
from fmasim.simulation import (
    _CSV_BLOCK_ROWS,
    SimulationTrace,
    _csv_block,
    _rk4_reduced,
    burr_disturbance,
    rk4_step,
    run_fma_scenario,
    run_force_control_scenario,
    sinusoidal_force_reference,
    trapezoidal_profile,
    write_trace_csv,
)
from fmasim.spatial import (
    Pose,
    Rotation,
    SpatialTransform,
    Twist,
    Wrench,
    rotation_from_fixed_euler,
)
from fmasim.units import _UNITS, known_units, parse_quantity

from oracles import (
    ArrayConditioner,
    array_normal_force,
    fd_hessian,
    fd_jacobian,
    float_trapezoid,
    link_com_g_form,
    loop_frame_transforms,
    loop_influence_coefficients,
    moving_average_outputs,
    world_com_spatial_inertias,
)

# An absolute floor under the relative bounds: below the smallest normal
# float a rounding error is a whole subnormal step, which a bound such as
# 1e-12 * scale cannot cover once it underflows to 0.
_FLOOR = np.finfo(float).tiny

_angles = st.floats(-np.pi, np.pi)
_lengths = st.floats(-0.5, 0.5)


@st.composite
def chains_and_targets(draw):
    """A DH chain of 1-7 joints, a pose, and one of its targets of any kind."""
    n = draw(st.integers(1, 7))
    dh = tuple(
        DHRow(draw(_angles), draw(_lengths), draw(_lengths), draw(_angles)) for _ in range(n)
    )
    coms = np.array([[draw(_lengths) for _ in range(3)] for _ in range(n)])
    model = SerialChainModel(dh, np.ones(n), coms, np.array([np.eye(3)] * n))
    theta = np.array([draw(_angles) for _ in range(n)])
    target = draw(
        st.one_of(
            st.just("ee"),
            st.tuples(st.sampled_from(["frame", "com"]), st.integers(1, n)),
        )
    )
    return model, theta, target


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chains_and_targets())
def test_coefficients_match_finite_differences(case):
    model, theta, target = case
    g = g_function(model, theta, target)
    assert np.max(np.abs(g - fd_jacobian(model, theta, target=target))) < 1.0e-6
    h = h_function(model, theta, target)
    assert np.max(np.abs(h - fd_hessian(model, theta, target=target))) < 1.0e-5


@st.composite
def dynamic_states(draw):
    """A DH chain of 1-7 joints with random mass properties, a state, and
    random gravity, external loads and viscous terms."""
    n = draw(st.integers(1, 7))
    dh = tuple(
        DHRow(draw(_angles), draw(_lengths), draw(_lengths), draw(_angles)) for _ in range(n)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = rng.normal(0.0, 0.2, (n, 3, 3))
    inertias = root @ root.transpose(0, 2, 1) + 0.01 * np.eye(3)
    model = SerialChainModel(
        dh, rng.uniform(0.2, 3.0, n), rng.uniform(-0.3, 0.3, (n, 3)), inertias
    )
    loads = tuple(
        ExternalLoad(Wrench(*rng.normal(0.0, 5.0, (2, 3))), link=draw(st.integers(1, n)), at=at)
        for at in draw(st.lists(st.sampled_from(["frame", "com"]), max_size=3))
    )
    viscous = draw(st.sampled_from([None, rng.uniform(0.0, 2.0, n)]))
    return (
        model,
        rng.uniform(-np.pi, np.pi, n),
        rng.uniform(-3.0, 3.0, n),
        rng.normal(0.0, 5.0, n),
        rng.normal(0.0, 6.0, 3),
        loads,
        viscous,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dynamic_states())
def test_newton_euler_bias_is_the_power_array_torque(case):
    # Ties the lean path to P*, which the Lagrangian and Newton-Euler
    # oracles check through inverse_dynamics.
    model, theta, qd, _, _, _, _ = case
    quant = compute_dynamics(model, theta)
    _, bias = _joint_terms(model, theta, qd, np.zeros(3), (), None)
    expected = coriolis_torque(quant.power, qd)
    # The torque's terms are of the size of |qd| . |P*| . |qd| and of
    # I* qd^2; they bound the rounding of both sums, also where the torque
    # cancels to nearly zero (it is zero for one joint).
    terms = np.einsum("i,ilj,j->l", np.abs(qd), np.abs(quant.power), np.abs(qd))
    scale = max(np.max(terms), np.max(np.abs(quant.inertia)) * np.max(qd**2))
    assert np.max(np.abs(bias - expected)) <= 1.0e-14 * scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dynamic_states())
def test_forward_and_inverse_dynamics_round_trip(case):
    model, theta, qd, tau, gravity, loads, viscous = case
    terms = dict(gravity=gravity, loads=loads, viscous=viscous)
    qdd = forward_dynamics(model, theta, qd, tau, **terms)
    back = inverse_dynamics(model, JointState(theta, qd, qdd), **terms)
    inertia, bias = _joint_terms(model, theta, qd, gravity, loads, viscous)
    scale = max(np.max(np.abs(inertia) @ np.abs(qdd)), np.max(np.abs(bias)))
    assert np.max(np.abs(back - tau)) <= 1.0e-14 * scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dynamic_states())
def test_spatial_kernel_is_the_link_com_g_form(case):
    # The G-form is the formula the spatial kernel replaced; both give I*
    # from one kernel, and at rest with no gravity the bias is the load torque.
    model, theta, _, _, gravity, loads, _ = case
    n = model.dof
    inertia, load_torque = _joint_terms(model, theta, np.zeros(n), np.zeros(3), loads, None)
    quant = compute_dynamics(model, theta, gravity)
    assert quant.inertia.tobytes() == inertia.tobytes()
    kernel = (inertia, quant.gravity, load_torque, quant.power)
    oracle = link_com_g_form(model, theta, gravity, loads)
    for name, got, (want, scale) in zip(("inertia", "gravity", "loads", "power"), kernel, oracle):
        assert np.max(np.abs(got - want)) <= 1.0e-12 * scale + _FLOOR, name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dynamic_states())
def test_transformed_link_inertias_are_the_world_com_assembly(case):
    # The kernel moves each link's constant inertia by its frame transform;
    # the oracle assembles it about the base origin from the world COM.
    model, theta, _, _, gravity, _, _ = case
    rots, origins = frame_transforms(model, theta)
    _, inert, _, _, _ = _composite_terms(model, rots, origins, gravity)
    want, scale = world_com_spatial_inertias(model, theta)
    assert np.max(np.abs(inert - want)) <= 1.0e-12 * scale


# Signed zeros reach the sign bits of -sin(alpha) * d and of the products.
_dh_values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-np.pi, np.pi))
_poses = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi / 2]),
    st.floats(-2.0 * np.pi, 2.0 * np.pi),
    st.floats(-1.0e3, 1.0e3),
)


@st.composite
def chains_and_poses(draw):
    """A DH chain of 1-7 joints and a pose, both with signed zeros."""
    n = draw(st.integers(1, 7))
    dh = tuple(DHRow(*(draw(_dh_values) for _ in range(4))) for _ in range(n))
    model = SerialChainModel(dh, np.ones(n), np.zeros((n, 3)), np.array([np.eye(3)] * n))
    return model, np.array([draw(_poses) for _ in range(n)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chains_and_poses())
def test_frame_transforms_are_the_per_row_transforms(case):
    model, theta = case
    rots, origins = frame_transforms(model, theta)
    expected_rots, expected_origins = loop_frame_transforms(model, theta)
    assert rots.tobytes() == expected_rots.tobytes()
    assert origins.tobytes() == expected_origins.tobytes()


@st.composite
def chains_poses_and_targets(draw):
    """``chains_and_poses`` with signed-zero link COMs, and one of the chain's targets."""
    model, theta = draw(chains_and_poses())
    n = model.dof
    coms = np.array([[draw(_dh_values) for _ in range(3)] for _ in range(n)])
    target = draw(
        st.one_of(st.just("ee"), st.tuples(st.sampled_from(["frame", "com"]), st.integers(1, n)))
    )
    return replace(model, coms=coms), theta, target


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chains_poses_and_targets())
def test_influence_coefficients_are_the_loop_oracle(case):
    model, theta, target = case
    g_ref, h_ref = loop_influence_coefficients(model, theta, target)
    both = compute_gkic(model, theta, target)
    assert g_function(model, theta, target).tobytes() == g_ref.tobytes()
    assert both.G.tobytes() == g_ref.tobytes()
    assert h_function(model, theta, target).tobytes() == h_ref.tobytes()
    assert both.H.tobytes() == h_ref.tobytes()
    # The tool-point G as the force runner forms it from the float chain:
    # its columns, six floats a joint, are the rows of G's transpose.
    rots, origins = frame_floats(model, theta.tolist())
    tool = np.array(_point_g(rots, origins, model.dof - 1, origins[-3:])).reshape(-1, 6).T
    assert tool.tobytes() == g_function(model, theta).tobytes()


# Joint values the force runner can reach: signed zeros, subnormals and
# angles far past a turn, where cos and sin lose their leading bits.
_wide_poses = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1.0e6, -1.0e6]),
    st.floats(-1.0e6, 1.0e6),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chains_poses_and_targets(), st.data())
def test_tool_height_is_the_full_transform_height(case, data):
    model, theta, _ = case
    for values in (theta.tolist(), [data.draw(_wide_poses) for _ in range(model.dof)]):
        assert tool_height(model, values).hex() == frame_floats(model, values)[1][-1].hex()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chains_poses_and_targets(), st.data())
def test_transforms_ignore_the_sign_of_a_zero_joint_value(case, data):
    # A rigid arm's actual pose is the next command up to the sign of a
    # zero joint value, so the force runner reuses its transform. A -0.0
    # theta offset is the one that carries that sign into cos and sin.
    model, theta, _ = case
    dh = [replace(row, theta_offset=-0.0) if data.draw(st.booleans()) else row for row in model.dh]
    model = replace(model, dh=tuple(dh))
    zero = st.sampled_from([0.0, -0.0])
    values = [data.draw(zero) if data.draw(st.booleans()) else x for x in theta.tolist()]
    flips = data.draw(st.sets(st.integers(0, model.dof - 1)))
    flipped = [-x if i in flips and x == 0.0 else x for i, x in enumerate(values)]

    def bits(pose):
        rots, origins = frame_floats(model, pose)
        return [x.hex() for x in rots + origins] + [tool_height(model, pose).hex()]

    assert bits(flipped) == bits(values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chains_poses_and_targets())
def test_world_coms_are_the_one_link_product(case):
    # com_positions, the dynamics kernel and a COM target share one batched
    # product; each of its rows must be the one-link product the oracles form.
    model, theta, _ = case
    rots, origins = frame_transforms(model, theta)
    coms = com_positions(model, theta)
    for j in range(model.dof):
        assert coms[j].tobytes() == (origins[j] + rots[j] @ model.coms[j]).tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def value_inputs(draw, cls):
    """The arrays to build a value of ``cls`` from, and its other arguments.

    Every array is finite and passes the class's own checks. Euler angles
    are ``b - pi`` for b in [pi/2, 2 pi), which Sterbenz's lemma makes
    exact, so wrapping them to (-pi, pi] gives back the same bits; surface
    normals are unit axes, so normalizing them does too. Every array field
    should then hold its input bit for bit.
    """

    def vec(shape, elements=_finite):
        return draw(arrays(np.float64, shape, elements=elements))

    def rotation():
        return rotation_from_fixed_euler(*vec(3, st.floats(-np.pi, np.pi)))

    def unit_axis():
        normal = np.zeros(3)
        normal[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0]))
        return normal

    def exactly_wrapped_angles():
        return vec(3, st.floats(np.pi / 2, 2 * np.pi, exclude_max=True)) - np.pi

    n = draw(st.integers(1, 7))
    weights = st.floats(1.0e-3, 1.0e3)
    builders = {
        Rotation: lambda: ({"matrix": rotation().matrix.copy()}, {}),
        Pose: lambda: ({"position": vec(3), "euler": exactly_wrapped_angles()}, {}),
        Wrench: lambda: ({"force": vec(3), "moment": vec(3)}, {}),
        Twist: lambda: ({"linear": vec(3), "angular": vec(3)}, {}),
        SpatialTransform: lambda: ({"translation": vec(3)}, {"rotation": rotation()}),
        SerialChainModel: lambda: (
            {
                "masses": vec(n, st.floats(1.0e-3, 1.0e3)),
                "coms": vec((n, 3)),
                "inertias": np.array([np.diag(vec(3, st.floats(0.0, 1.0e3))) for _ in range(n)]),
            },
            {"dh": (DHRow(),) * n},
        ),
        JointState: lambda: ({"theta": vec(n), "theta_dot": vec(n), "theta_ddot": vec(n)}, {}),
        GKICSet: lambda: ({"G": vec((6, n)), "H": vec((n, 6, n))}, {}),
        GainSet: lambda: (
            {name: vec(6, st.floats(0.0, 1.0e6)) for name in ("kp", "kv", "ki")},
            {},
        ),
        ContactSurface: lambda: ({"point": vec(3), "normal": unit_axis()}, {"stiffness": 1000.0}),
        DynamicsQuantities: lambda: (
            {"inertia": vec((n, n)), "power": vec((n, n, n)), "gravity": vec(n)},
            {},
        ),
        WeightingPolicy: lambda: (
            {"quiet": np.diag(vec(2, weights)), "disturbed": np.diag(vec(2, weights))},
            {"torque_threshold": 1.0},
        ),
        FmaScenario: lambda: ({}, {"plant": fma_paper_plant(), "weighting": fma_paper_weighting()}),
        SimulationTrace: lambda: (
            {"data": np.column_stack([np.arange(n, dtype=float), vec((n, 2))])},
            {"columns": ("t", "a", "b"), "scenario": None, "aux": {}},
        ),
        VirtualFixture: lambda: ({"a": vec((3, 2)), "omega": vec((3, 3))}, {}),
    }
    return builders[cls]()


@pytest.mark.parametrize(
    "cls",
    [Rotation, Pose, Wrench, Twist, SpatialTransform]
    + [SerialChainModel, JointState, GKICSet, GainSet, ContactSurface],
    ids=lambda cls: cls.__name__,
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_values_copy_and_freeze_the_arrays_they_are_given(cls, data):
    inputs, others = data.draw(value_inputs(cls))
    value = cls(**inputs, **others)
    for name, given_array in inputs.items():
        held = getattr(value, name)
        assert held.shape == given_array.shape and held.tobytes() == given_array.tobytes(), name
        assert not np.shares_memory(held, given_array), name
        assert not held.flags.writeable, name
        given_array[...] = 1.0  # raises if the value froze its caller's array


@pytest.mark.parametrize(
    "cls",
    [Rotation, Pose, Wrench, Twist, SpatialTransform]
    + [SerialChainModel, JointState, GKICSet, GainSet, ContactSurface, DynamicsQuantities]
    + [WeightingPolicy, FmaScenario, SimulationTrace, VirtualFixture],
    ids=lambda cls: cls.__name__,
)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_values_compare_and_hash_by_identity(cls, data):
    inputs, others = data.draw(value_inputs(cls))
    value, twin = cls(**inputs, **others), cls(**inputs, **others)
    assert value == value and not value != value
    assert value != twin and not value == twin
    assert hash(value) == hash(value) and len({value, twin}) == 2


_components = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0))


@st.composite
def conditioner_streams(draw):
    """Window, bias, deadband and a few sample blocks shorter and longer than the window."""
    window = draw(st.integers(1, 32))
    bias = draw(arrays(np.float64, 6, elements=_components))
    deadband = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    sizes = draw(st.lists(st.integers(1, 2 * window + 2), min_size=1, max_size=4))
    blocks = [draw(arrays(np.float64, (m, 6), elements=_components)) for m in sizes]
    return window, bias, deadband, blocks


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conditioner_streams())
def test_batch_conditioner_equals_successive_steps(case):
    window, bias, deadband, blocks = case
    stepped = SignalConditioner(Wrench(bias[:3], bias[3:]), window, deadband)
    stream = np.concatenate(blocks)
    for row, expected in zip(stream, moving_average_outputs(stream, bias, window, deadband)):
        assert _same_bits(stepped.step(Wrench(row[:3], row[3:])).as_array(), expected)


_gains = st.one_of(st.just(0.0), st.floats(0.0, 1.0e6))
_errors = st.one_of(st.sampled_from([0.0, -0.0, 5.0e-324, -5.0e-324, -2.0e-310]), st.floats(-1.0e3, 1.0e3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    arrays(np.float64, (3, 6), elements=_gains),
    arrays(np.float64, (3, 6), elements=_errors),
    arrays(np.float64, (6, 6), elements=st.floats(-1.0, 1.0)),
)
def test_force_laws_are_the_diagonal_matrix_laws(diagonals, errors, jitter):
    """The elementwise gain products solve to the values of the 6x6 diagonal-matrix form."""
    kp, kv, ki = diagonals
    e, de, ie = errors
    g = jitter + 6.0 * np.eye(6)  # diagonally dominant, so never singular
    matrix_rhs = np.diag(kp) @ e + np.diag(kv) @ de + np.diag(ki) @ ie
    rates = pure_force_control_step(g, GainSet(kp=kp, kv=kv, ki=ki), e, de, ie)
    assert np.array_equal(rates, np.linalg.solve(g, matrix_rhs))
    assert np.array_equal(compliant_control_step(g, kp, e), np.linalg.solve(g, np.diag(kp) @ e))


@st.composite
def axis_surfaces_and_points(draw):
    """A penalty surface with an axis-aligned normal and m tool points, with velocities."""
    normal = np.zeros(3)
    normal[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0, 3.5]))
    surface = ContactSurface(
        stiffness=draw(st.floats(1.0, 1.0e6)),
        point=draw(arrays(np.float64, 3, elements=_components)),
        normal=normal,
        sensor_stiffness=draw(st.one_of(st.just(np.inf), st.floats(1.0, 1.0e6))),
        damping=draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0))),
    )
    m = draw(st.integers(1, 20))
    points = draw(arrays(np.float64, (m, 3), elements=_components))
    velocities = draw(st.one_of(st.none(), arrays(np.float64, (m, 3), elements=_components)))
    return surface, points, velocities


def _same_or_nan(a, b):
    """Equal bits, signed zeros included, or NaN in both: a NaN's sign and payload are not pinned."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and _same_bits(a[~nan], b[~nan])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conditioner_streams())
def test_conditioner_is_the_array_conditioner(case):
    window, bias, deadband, blocks = case
    floats = SignalConditioner(Wrench(bias[:3], bias[3:]), window, deadband)
    arrays_ = ArrayConditioner(bias, window, deadband)
    for row in np.concatenate(blocks):
        assert _same_bits(floats.step(Wrench(row[:3], row[3:])).as_array(), arrays_.filter_batch(row[None]))


def _stepped(conditioner, block):
    """The conditioned 6-vector after ``conditioner`` steps through the rows of ``block``."""
    for row in block:
        out = conditioner.step(Wrench(row[:3], row[3:]))
    return out.as_array()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 32), st.integers(1, 20), st.lists(st.sampled_from([1.0, -1.0]), min_size=6, max_size=6))
def test_conditioner_keeps_a_force_exactly_at_the_deadband(window, quarters, signs):
    # A full window of +-d sums to +-w*d exactly (d is a multiple of 1/4),
    # so the mean is exactly +-d: at, not below, the deadband.
    deadband = quarters / 4.0
    block = np.tile(np.array(signs) * deadband, (window, 1))
    out = _stepped(SignalConditioner(window=window, deadband=deadband), block)
    assert _same_bits(out, ArrayConditioner(np.zeros(6), window, deadband).filter_batch(block))
    assert _same_bits(out, block[0])
    # a force one ulp inside the band is zeroed, a moment is not
    inside = np.nextafter(block, 0.0)
    out = _stepped(SignalConditioner(window=window, deadband=deadband), inside)
    assert _same_bits(out, ArrayConditioner(np.zeros(6), window, deadband).filter_batch(inside))
    assert out[:3].tolist() == [0.0, 0.0, 0.0] and out[3:].tolist() != [0.0, 0.0, 0.0]


@st.composite
def sensed_ticks(draw):
    """A force runner's sensor stream: window, substeps per tick, deadband and per-tick forces.

    The window is drawn longer than, shorter than or equal to the substeps.
    """
    substeps = draw(st.integers(1, 24))
    window = draw(
        st.one_of(
            st.integers(substeps + 1, substeps + 8),
            st.integers(1, substeps),
            st.just(substeps),
        )
    )
    deadband = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    ticks = draw(st.lists(arrays(np.float64, substeps, elements=_components), min_size=1, max_size=5))
    return window, substeps, deadband, ticks


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sensed_ticks())
def test_runner_normal_axis_is_the_array_conditioner(case):
    # The runner feeds the normal axis the last min(window, substeps)
    # substeps of each tick; the oracle is fed every substep on all six axes.
    window, substeps, deadband, ticks = case
    history = deque([0.0] * window, maxlen=window)
    oracle = ArrayConditioner(np.zeros(6), window, deadband)
    for forces in ticks:
        block = np.zeros((substeps, 6))
        block[:, 2] = forces
        expected = oracle.filter_batch(block)[2]
        got = _condition_axis(history, forces[-window:].tolist(), 0.0, deadband)
        assert _same_bits(np.float64(got), expected)


@st.composite
def penalty_cases(draw):
    """An axis-aligned penalty surface, rigid or not, and m tool points that may be NaN."""
    surface, points, velocities = draw(axis_surfaces_and_points())
    if draw(st.booleans()):
        surface = replace(surface, stiffness=np.inf, sensor_stiffness=np.inf)
    # Points on the plane give +0.0 and -0.0 depths; a NaN anywhere gives a NaN depth.
    on_plane = draw(arrays(np.bool_, points.shape))
    points = np.where(on_plane, surface.point, points)
    if draw(st.booleans()):
        points[draw(st.integers(0, len(points) - 1)), draw(st.integers(0, 2))] = np.nan
    return surface, points, velocities


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(penalty_cases())
def test_normal_force_is_the_array_penalty_law(case):
    surface, points, velocities = case
    expected = array_normal_force(surface, points, velocities)
    for i, (point, magnitude) in enumerate(zip(points, expected.tolist())):
        velocity = None if velocities is None else velocities[i]
        if not math.isfinite(magnitude):
            # a NaN point, or a rigid surface pressed: refused, never zero
            with pytest.raises(ValueError, match="finite"):
                contact_wrench(surface, point, velocity)
            continue
        wrench = contact_wrench(surface, point, velocity)
        force = np.zeros(3) if magnitude == 0.0 else magnitude * surface.normal
        assert _same_bits(wrench.force, force) and wrench.moment.tolist() == [0.0, 0.0, 0.0]
    if surface.normal.tolist() == [0.0, 0.0, 1.0]:
        # The runner's form on its finite tool points: the depth along +z
        # is the height difference.
        finite = points[np.isfinite(points).all(axis=1)]
        runner = [-_penalty(surface, surface.point[2] - z) for z in finite[:, 2].tolist()]
        assert _same_or_nan(runner, -array_normal_force(surface, finite))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 32),
    st.integers(1, 40),
    st.data(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_batch_conditioner_rejects_non_finite_samples(window, m, data, bad):
    history = deque([0.0] * window, maxlen=window)
    _condition_axis(history, data.draw(st.lists(st.floats(-5.0, 5.0), max_size=window)), 0.0, 0.0)
    before = list(history)
    samples = [1.0] * m
    samples[data.draw(st.integers(0, m - 1))] = bad
    with pytest.raises(ValueError, match="finite"):
        _condition_axis(history, samples, 0.0, 0.0)
    # the rejected samples leave the window as it was
    assert list(history) == before


def _loop_mean(window):
    """The window mean written out: 0.0, then each sample oldest first."""
    acc = 0.0
    for x in window:
        acc += x
    return acc / len(window)


# Wide magnitudes make the summation order visible in the last place.
_samples = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1.0e9, 1.0e9, allow_subnormal=False),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_samples, min_size=1, max_size=64))
def test_window_mean_adds_oldest_to_newest(values):
    expected = _loop_mean(values)
    got = window_mean(deque(values, maxlen=len(values)))
    assert _same_bits(np.float64(got), np.float64(expected))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 32).flatmap(lambda w: arrays(np.float64, (w, 6), elements=_samples)))
def test_window_mean_of_a_block_is_the_loop_per_column(block):
    expected = np.array([_loop_mean([float(x) for x in column]) for column in block.T])
    got = window_mean(block)
    assert _same_bits(got, expected)
    # a new array, not a view of the block
    assert not np.shares_memory(got, block)


@pytest.mark.parametrize("updates", [{}, {"tau_filter_window": 7}])
@pytest.mark.parametrize("noise_sigma", [2.0, 0.0])
def test_fma_runner_filters_tau_ext_with_the_window_mean(updates, noise_sigma):
    # Starting at 0.9 rad the 2 s sweep enters the first burr band; without
    # noise, the zero drag outside it gives -0.0 samples whenever qd < 0.
    cfg = load_scenario("fma-paper-deburr")
    cfg = replace_values(cfg, "reference", duration=2.0, q0=0.9)
    cfg = replace_values(cfg, "disturbance", noise_sigma=noise_sigma)
    cfg = replace_values(cfg, "controller", **updates)
    scenario = build_scenario(cfg)
    trace = run_fma_scenario(scenario)
    window = scenario.tau_filter_window
    stream = [0.0] * (window - 1) + [float(x) for x in trace.column("tau_ext")]
    expected = np.array([_loop_mean(stream[k : k + window]) for k in range(trace.n_samples)])
    assert _same_bits(trace.aux["tau_filtered"], expected)
    threshold = scenario.weighting.torque_threshold
    assert np.array_equal(trace.aux["disturbed"], ~(expected < threshold))


def _bits(x):
    """The IEEE-754 bit pattern of a float64, so NaNs and signed zeros compare."""
    return np.float64(x).view(np.uint64)


_speeds = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-308, 1.7e308]),
    st.floats(),  # any float: subnormals, huge magnitudes, infinities, NaNs
    st.floats(-50.0, 50.0),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(_speeds, _speeds.map(np.float64), st.integers(-(10**6), 10**6)))
def test_scalar_friction_is_the_array_friction(qd):
    got = stribeck_friction(qd)
    assert type(got) is float
    q = float(qd)
    knee = 1.0 - math.exp(-FRICTION_KNEE_RATE * abs(q))
    law = FRICTION_STATIC + FRICTION_VISCOUS * abs(q) - FRICTION_KNEE_GAIN * knee
    assert _bits(got) == _bits(-law if q < 0.0 else law)
    if q != 0.0 and not math.isnan(q):
        # odd in speed away from zero
        assert _bits(stribeck_friction(-q)) == _bits(-got)


@st.composite
def reduced_steps(draw):
    """Reduced terms with drawn plant constants, a state, a held drive and a step."""
    terms = replace(
        reduced_terms(fma_paper_plant()),
        inertia=draw(st.floats(0.01, 100.0)),
        damping=draw(st.floats(0.0, 50.0)),
        gravity_arm=draw(st.floats(0.0, 100.0)),
    )
    q, qd = draw(st.floats(-10.0, 10.0)), draw(st.floats(-50.0, 50.0))
    drive, tau_ext = draw(st.floats(-500.0, 500.0)), draw(st.floats(-50.0, 50.0))
    t, dt = draw(st.floats(0.0, 100.0)), draw(st.floats(1.0e-6, 0.1))
    return terms, drive, tau_ext, q, qd, t, dt


def _array_rk4(terms, drive, tau_ext, q, qd, t, dt):
    def deriv(_t, y):
        return (y[1], terms.acceleration(y[1], math.sin(y[0]), stribeck_friction(y[1]), drive, tau_ext))

    return rk4_step(deriv, np.array([q, qd]), t, dt)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reduced_steps())
def test_float_rk4_is_rk4_step(case):
    q, qd = _rk4_reduced(*case)
    expected = _array_rk4(*case)
    assert (_bits(q), _bits(qd)) == (_bits(expected[0]), _bits(expected[1]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(reduced_steps(), st.sampled_from(["nan drive", "nan tau_ext", "overflow"]), st.data())
def test_float_rk4_blows_up_as_rk4_step(case, bad, data):
    terms, drive, tau_ext, q, qd, t, dt = case
    if bad == "nan drive":
        drive = np.nan
    elif bad == "nan tau_ext":
        tau_ext = np.nan
    else:
        # Every stage is finite, but k1 + 2 k2 overflows: a unit inertia
        # with no damping makes each k of qd about the drive. Friction is
        # present, but at dt <= 0.1 it takes under a sixth of a 1e308 drive.
        terms = replace(terms, inertia=1.0, damping=0.0)
        drive = data.draw(st.floats(1.0e308, 1.7e308)) * data.draw(st.sampled_from([1.0, -1.0]))
    case = (terms, drive, tau_ext, q, qd, t, dt)
    with pytest.raises(SimulationBlowUpError) as from_floats:
        _rk4_reduced(*case)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowUpError) as from_arrays:
        _array_rk4(*case)
    assert str(from_floats.value) == str(from_arrays.value)


@st.composite
def weights_and_gears(draw):
    """For 1-4 prime movers: a symmetric positive definite weight of cond
    below 400, a gear row of norm >= 0.1, an output speed and a seed."""
    m = draw(st.integers(1, 4))
    entries = _number(-10.0, 10.0)
    a = draw(arrays(float, (m, m), elements=_number(-1.0, 1.0)))
    w = a @ a.T + (m + 1) * np.eye(m) * draw(_number(0.01, 1.0))
    g = draw(arrays(float, m, elements=entries).filter(lambda g: np.linalg.norm(g) >= 0.1))
    return (w + w.T) / 2.0, g, draw(entries), draw(arrays(float, m, elements=entries))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weights_and_gears())
def test_weighted_pseudo_inverse_is_the_least_weighted_allocation(case):
    # The paper's criterion: of all prime-mover speeds giving the output
    # speed u, G+ u has the least qd^T W qd; the others add self-motion P s.
    w, g, u, s = case
    gp, p = weighted_pseudo_inverse(g, w), null_space_projector(g, w)
    scale = np.linalg.norm(gp) * np.linalg.norm(g)
    assert g @ gp == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(p @ p, p, rtol=0, atol=1e-12 * scale**2 + _FLOOR)
    np.testing.assert_allclose(g @ p, 0.0, rtol=0, atol=1e-12 * scale * np.linalg.norm(g) + _FLOOR)
    # G+ is W-orthogonal to every self-motion, so adding one never lowers the cost.
    np.testing.assert_allclose(p.T @ w @ gp, 0.0, rtol=0, atol=1e-12 * scale * np.abs(w).sum() + _FLOOR)
    best, other = allocate_velocities(g, u, w), allocate_velocities(g, u, w, qd_seed=s)
    assert g @ other == pytest.approx(u, abs=1e-12 * scale * (abs(u) + np.abs(s).sum()) + _FLOOR)
    cost = lambda qd: float(qd @ w @ qd)
    assert cost(other) >= cost(best) - 1e-12 * (cost(best) + cost(other)) - _FLOOR


@st.composite
def short_fma_scenarios(draw):
    """A run of 5-15 ticks of 1 ms, 1-5 substeps each, starting in or near
    a burr band, with each of the runner's switches drawn."""
    substeps = draw(st.integers(1, 5))
    sigma = draw(st.sampled_from([2.0, None, 0.0]))  # None: no disturbance
    # A threshold near zero, so that short runs switch weights both ways.
    policy = replace(fma_paper_weighting(), torque_threshold=draw(st.floats(-1.0, 1.0)))
    return FmaScenario(
        plant=fma_paper_plant(),
        controller_model=fma_paper_design() if draw(st.booleans()) else None,
        weighting=draw(st.sampled_from([None, policy])),
        reference=draw(st.sampled_from(["trapezoid", "rest"])),
        duration=draw(st.integers(5, 15)) * 1.0e-3,
        omega_peak=draw(st.just(0.0) | st.floats(0.5, 20.0)),  # 0: one sweep
        disturbance=None if sigma is None else BurrDisturbance(noise_sigma=sigma),
        timestep=1.0e-3 / substeps,
        tau_filter_window=draw(st.integers(1, 16)),
        seed=draw(st.integers(0, 2**32)),
        q0=draw(st.floats(0.5, 4.5)),
        qd0=draw(st.floats(-3.0, 3.0)),
    )


def _reference_fma_run(sc):
    """run_fma_scenario as a plain loop over the public laws: one scalar
    burr_disturbance draw and the weights from scratch every tick, and
    reduced_dynamics stepped by rk4_step."""
    plant = sc.plant
    ctrl = sc.controller_model or plant
    rng = np.random.default_rng(sc.seed)
    history = deque([0.0] * sc.tau_filter_window, maxlen=sc.tau_filter_window)
    n_ticks = round(sc.duration / sc.control_period)
    rows, tau_out, filtered, disturbed = [], [], [], []
    q, qd = sc.q0, sc.qd0
    for k in range(n_ticks + 1):
        t = k * sc.control_period
        tau_ext = 0.0
        if sc.disturbance is not None:
            dist = sc.disturbance
            tau_ext = burr_disturbance(q, qd, rng, dist.bands, dist.noise_sigma)
        history.append(tau_ext)
        filt = window_mean(history)
        w = None if sc.weighting is None else weighting(sc.weighting, filt)
        if sc.reference == "trapezoid":
            q_ref, qd_ref, qdd_ref = trapezoidal_profile(t, sc.duration, sc.peak_speed)
            q_ref = sc.q0 + q_ref
        else:
            q_ref, qd_ref, qdd_ref = sc.q0, 0.0, 0.0
        v = computed_torque_voltage(ctrl, q, qd, q_ref, qd_ref, qdd_ref, sc.kp, sc.kv, w)
        qdd = reduced_dynamics(plant, q, qd, v, tau_ext, w)
        g_plus = weighted_pseudo_inverse(plant.g_row, w)
        rows.append((t, q, q_ref, qd, qd_ref, g_plus[0] * qd, g_plus[1] * qd, v[0], v[1], tau_ext))
        tau_out.append(plant.output_inertia() * qdd + plant.output_gravity(q) + stribeck_friction(qd) + tau_ext)
        filtered.append(filt)
        disturbed.append(w is not None and w is sc.weighting.disturbed)
        if k == n_ticks:
            break

        def deriv(_t, y):
            return (y[1], reduced_dynamics(plant, y[0], y[1], v, tau_ext, w))

        y = np.array([q, qd])
        for s in range(sc.substeps):
            y = rk4_step(deriv, y, t + s * sc.timestep, sc.timestep)
        q, qd = float(y[0]), float(y[1])
    aux = {"tau_out": tau_out, "tau_filtered": filtered, "disturbed": disturbed}
    return np.array(rows), {name: np.array(values) for name, values in aux.items()}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(short_fma_scenarios())
def test_fma_runner_is_the_loop_over_the_public_laws(sc):
    trace = run_fma_scenario(sc)
    rows, aux = _reference_fma_run(sc)
    assert _same_bits(trace.data, rows)
    assert trace.aux.keys() == aux.keys()
    for name, values in aux.items():
        assert trace.aux[name].dtype == values.dtype
        assert _same_bits(trace.aux[name], values), name


_FORCE_REGULATION = build_scenario(load_scenario("force-regulation"))


@st.composite
def short_force_scenarios(draw):
    """A force run of 5-40 ticks from the built-in home, starting at or
    near the surface, with each of the runner's switches drawn."""
    rate = draw(st.sampled_from([15.0, 25.0, 60.0, 100.0]))
    substeps = draw(st.integers(1, 24))
    window = draw(st.integers(1, substeps) | st.integers(substeps + 1, substeps + 8))
    law = draw(st.sampled_from(["force-pid", "compliant"]))
    gains = {} if law == "force-pid" else {"kv": 0.0, "ki": 0.0}
    return replace(
        _FORCE_REGULATION,
        law=law,
        **gains,
        reference=draw(st.sampled_from(["constant", "sine"])),
        sine_period=draw(st.floats(0.2, 50.0)),
        control_rate=rate,
        physics_timestep=1.0 / (rate * substeps),
        duration=draw(st.integers(5, 40)) / rate,
        filter_window=window,
        arm_lag=draw(st.just(0.0) | st.floats(0.01, 2.0)),
        start_height=draw(st.just(0.0) | st.floats(0.0, 1.0e-3)),
        approach_speed=draw(st.sampled_from([2.25e-3, 1.0e-2])),
        deadband=draw(st.just(0.0) | st.floats(0.0, 2.0)),
    )


def _reference_force_run(sc):
    """run_force_control_scenario as a plain loop over the public laws:
    a fresh g_function and transform of each pose every tick, the force
    laws on (6,) vectors with the gains on z, and every substep's sensed
    wrench stepped through a SignalConditioner."""
    chain = sc.chain
    dt = 1.0 / sc.control_rate
    n_ticks = round(sc.duration * sc.control_rate)
    substeps = sc.substeps
    gamma = 0.0 if sc.arm_lag == 0.0 else math.exp(-dt / (substeps * sc.arm_lag))
    fade = gamma**substeps
    weights = [
        s / substeps if 1.0 - fade < 1e-15 else (1.0 - gamma**s) / (1.0 - fade) for s in range(1, substeps + 1)
    ]

    def height(theta):
        return frame_transforms(chain, theta)[1][-1, 2].item()

    def on_z(value):
        return np.array([0.0, 0.0, value, 0.0, 0.0, 0.0])

    theta_cmd = theta_act = np.array(sc.home)
    z_prev = z_now = z0 = height(theta_act)
    surface = replace(sc.surface, point=(0.0, 0.0, z0 - sc.start_height))

    def sensed(z):
        return Wrench(-contact_wrench(surface, (0.0, 0.0, z)).force, np.zeros(3))

    conditioner = SignalConditioner(window=sc.filter_window, deadband=sc.deadband)
    if sc.law == "force-pid":
        gains = GainSet(kp=on_z(sc.kp / dt), kv=on_z(sc.kv), ki=on_z(sc.ki / dt**2))
    phase, contact_time = ContactPhase.APPROACH, None
    integral = e_prev = f_meas = f_prev = 0.0
    rows, raw_force, phases = [], [sensed(z_now).force[2].item()], []
    for k in range(n_ticks + 1):
        t = k * dt
        prev_phase = phase
        phase = contact_state_step(
            phase, f_meas, force_rate=(f_meas - f_prev) / dt,
            contact_threshold=sc.contact_threshold, settle_rate=sc.settle_rate,
        )
        if prev_phase is ContactPhase.APPROACH and phase is not ContactPhase.APPROACH:
            contact_time, theta_cmd = t, theta_act
        if phase is ContactPhase.APPROACH:
            f_ref = 0.0
        elif sc.reference == "constant":
            f_ref = -abs(sc.force_target)
        else:
            f_ref = sinusoidal_force_reference(t - contact_time, -abs(sc.sine_amplitude), sc.sine_period)
        rate = (z_now - z_prev) / dt if k else 0.0
        rows.append((t, z_now, height(theta_cmd), rate, 0, 0, 0, 0, 0, f_meas, f_ref))
        phases.append(list(ContactPhase).index(phase))
        z_prev, f_prev = z_now, f_meas
        if k == n_ticks:
            break

        jac = g_function(chain, theta_cmd)
        if phase is ContactPhase.APPROACH:
            dtheta = np.linalg.solve(jac, on_z(-sc.approach_speed * dt))
        else:
            e = f_ref - f_meas
            if sc.law == "force-pid":
                integral += e
                errors = on_z(e), on_z((e - e_prev) / dt), on_z(integral * dt)
                dtheta = pure_force_control_step(jac, gains, *errors) * dt
            else:
                dtheta = compliant_control_step(jac, on_z(sc.kp), on_z(e))
            e_prev = e
        theta_cmd = theta_cmd + dtheta
        theta_act = theta_cmd + (theta_act - theta_cmd) * fade
        z_end = height(theta_act)
        for w in weights:
            f_meas = conditioner.step(sensed(z_now + w * (z_end - z_now))).force[2].item()
        raw_force.append(sensed(z_end).force[2].item())
        z_now = z_end
    return np.array(rows), {"raw_force": np.array(raw_force), "phase": np.array(phases)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(short_force_scenarios())
def test_force_runner_is_the_loop_over_the_public_laws(sc):
    trace = run_force_control_scenario(sc)
    rows, aux = _reference_force_run(sc)
    assert trace.data.tobytes() == rows.tobytes()
    assert trace.aux.keys() == aux.keys()
    for name, values in aux.items():
        assert trace.aux[name].dtype == values.dtype
        assert trace.aux[name].tobytes() == values.tobytes(), name


@st.composite
def trapezoid_times(draw):
    """A sweep (total time, peak speed) and an array of times on it: the
    knots 0, ramp, 3·ramp and total with their neighbours inside, a run's
    ticks clipped to the total as the FMA runner clips them, and drawn
    times, in a drawn order."""
    total = draw(st.floats(1e-300, 1e300) | st.sampled_from([1e-3, 0.3, 10.0]))
    omega_peak = draw(st.floats(-1.7e308, 1.7e308) | st.sampled_from([0.0, -0.0, 5e-324, 1.7e308, -1.7e308]))
    ramp = total / 4.0
    knots = [0.0, ramp, 3.0 * ramp, total, np.nextafter(ramp, math.inf), np.nextafter(3.0 * ramp, 0.0)]
    tick = total / draw(st.integers(1, 40))
    ticks = np.minimum(np.arange(draw(st.integers(1, 45))) * tick, total).tolist()
    drawn = draw(st.lists(st.floats(0.0, total), max_size=10))
    times = draw(st.permutations(knots + ticks + drawn))
    return np.array(times), total, omega_peak


def _hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(trapezoid_times(), st.sampled_from(["nan", "below", "above"]), st.integers(0, 99))
def test_trapezoid_on_an_array_is_the_scalar_call_on_each_time(case, bad, where):
    """The array form gives each element the scalar call's bits, and both
    give the bits of the law in Python floats, with no warning where the
    peak speed overflows; an array holding a time the scalar call refuses
    is refused in one line that names that time."""
    times, total, omega_peak = case
    profile = trapezoidal_profile(times, total, omega_peak)
    by_element = [trapezoidal_profile(float(t), total, omega_peak) for t in times]
    in_floats = [float_trapezoid(float(t), total, omega_peak) for t in times]
    for column, values in enumerate(profile):
        assert values.shape == times.shape
        assert _hexes(values) == [p[column].hex() for p in by_element]
        assert _hexes(values) == [p[column].hex() for p in in_floats]
    if times.size % 2 == 0:  # any shape: the elements keep their places
        grid = trapezoidal_profile(times.reshape(2, -1), total, omega_peak)
        assert [_hexes(values) for values in grid] == [_hexes(values) for values in profile]

    value = {"nan": math.nan, "below": -5e-324, "above": np.nextafter(total, math.inf)}[bad]
    refused = times.copy()
    refused[where % times.size] = value
    with pytest.raises(ValueError) as info:
        trapezoidal_profile(refused, total, omega_peak)
    assert str(info.value) == f"t={value} outside [0, {total}]"


# Cells a trace may hold past its time column: any float, and the ones
# whose %.17g is not plain digits or that a writer might mangle.
_CSV_CELLS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]
)


@st.composite
def traces_to_write(draw):
    """An FMA or force trace (10 or 11 columns) whose row count is 0, 1, or
    one away from a whole number of the writer's blocks."""
    block = _CSV_BLOCK_ROWS
    rows = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]))
    columns = TRACE_COLUMNS + draw(st.sampled_from([(), ("f_ref",)]))
    # A pool of drawn cells, placed by a drawn seed: hypothesis need not
    # draw every one of up to 5,000 cells.
    pool = draw(st.lists(_CSV_CELLS, min_size=1, max_size=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.choice(np.array(pool), size=(rows, len(columns) - 1))
    t = np.arange(rows) * draw(st.sampled_from([1.0e-3, 1.0 / 15.0, 0.5]))
    return SimulationTrace(columns, np.column_stack([t, cells]), None, {})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(traces_to_write())
def test_trace_csv_is_the_header_then_each_row_as_17g(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        written = path.read_bytes()
    lines = [",".join(trace.columns) + "\n"]
    lines += [",".join("%.17g" % x for x in row) + "\n" for row in trace.data.tolist()]
    assert written == "".join(lines).encode("ascii")


def _as_float(bits: int) -> float:
    return np.array(bits, dtype=np.uint64).view(np.float64).item()


def _neighbours(x: float, n: int) -> list:
    """x and the n doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -math.inf))
        above.append(np.nextafter(above[-1], math.inf))
    return [float(v) for v in below[:0:-1] + above]


# Cells where the writer's integer path could go wrong, each with its
# negation: every power of ten the path reaches and its neighbours
# (1e-4, 1e-8 and 1e-10 round up to the next power at 17 digits, and
# 1e-4's rounding switches the notation); 9.9999999999999995e-08, whose
# log10 is exactly -7.0; 1e-11, which lies just under 10**-11 and so
# outside the path; 0.001, whose N has 16 trailing zeros; ties that
# round half to even; the notation switches at 1e-5/1e-4 and
# 1e16/1e17; zeros, subnormals, the normal limits and non-finite cells.
_CSV_EDGE_CELLS = [
    sign * x
    for x in [v for k in range(-12, 18) for v in _neighbours(float(f"1e{k}"), 2)]
    + [9.9999999999999995e-08, 1e-11, 0.001, 2251799813685247.25, 2251799813685247.75, 0.5]
    + [9.99995e-05, 9.9999999999999999e-06, 9999999999999998.0, 99999999999999984.0]
    + [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, math.nan]
    for sign in (1.0, -1.0)
]
_EXACT_BITS = (np.float64(1e-11).view(np.uint64).item(), np.float64(1e17).view(np.uint64).item())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.integers(0, 2**64 - 1).map(_as_float)
        | st.builds(lambda bits, sign: sign * _as_float(bits), st.integers(*_EXACT_BITS), st.sampled_from([1.0, -1.0]))
        | st.floats()
        | st.sampled_from(_CSV_EDGE_CELLS),
        min_size=1,
        max_size=120,
    ),
    st.integers(1, 11),
)
@example(_CSV_EDGE_CELLS, 7)
def test_csv_block_writes_each_cell_as_17g(cells, width):
    """A block's bytes are ``%.17g`` of each cell, by integers or by ``%``."""
    cells = cells + [0.0] * (-len(cells) % width)
    block = np.array(cells).reshape(-1, width)
    expected = b"".join(b",".join(b"%.17g" % x for x in row) + b"\n" for row in block.tolist())
    assert _csv_block(block) == expected


# Values a key may take, by what it names: fixtures by their registries, a
# quantity by its canonical unit (any unit not listed: 1e-3 to 1e3). Each
# range is valid whatever the other keys hold; a control period is drawn
# as a whole number of timesteps.
_FIXTURE_NAMES = {
    "actuator": sorted(fixtures.ACTUATOR_FIXTURES),
    "controller_model": ["", *sorted(fixtures.ACTUATOR_FIXTURES)],
    "weighting": ["none", *sorted(fixtures.WEIGHTING_FIXTURES)],
    "chain": sorted(fixtures.CHAIN_FIXTURES),
    "surface": sorted(fixtures.SURFACE_FIXTURES),
}
_QUANTITY_RANGES = {"s": (1.0e-4, 1.0e-2), "Hz": (1.0, 100.0), "rad": (-np.pi, np.pi)}
_NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12)


def _number(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def _band(draw):
    lo = draw(_number(-10.0, 10.0))
    return lo, lo + draw(_number(1.0e-3, 10.0)), draw(_number(0.0, 100.0))


@st.composite
def config_texts(draw):
    """A scenario file of either kind that gives every key of its schema."""
    kind = draw(st.sampled_from(["fma", "chain"]))
    numbers, lines = {}, []
    for section, specs in config._SCHEMAS["fma" if kind == "fma" else "force"].items():
        lines.append(f"[{section}]")
        for key, spec in specs.items():
            number = _number(*_QUANTITY_RANGES.get(spec.unit, (1.0e-3, 1.0e3)))
            if key == "kind" and section == "plant":
                value = kind
            elif spec.choices or key in _FIXTURE_NAMES:
                value = draw(st.sampled_from(spec.choices or _FIXTURE_NAMES[key]))
            elif spec.parse == "str":
                value = draw(_NAMES)
            elif spec.parse == "int":
                value = draw(st.integers(0, 2**31) if key == "seed" else st.integers(1, 64))
            elif spec.parse == "bands":
                bands = draw(st.lists(_band(), min_size=1, max_size=3))
                unit = draw(st.sampled_from(["", " rad", " deg"]))
                value = ", ".join(":".join(map(repr, band)) for band in bands) + unit
            elif spec.parse == "vector":
                angles = draw(st.lists(number, min_size=6, max_size=6))
                value = " ".join([*map(repr, angles), spec.unit])
            else:
                if key == "omega_peak":
                    number = st.just(0.0) | number  # 0: one sweep over the duration
                elif key in ("kv", "ki") and "law = compliant" in lines:
                    number = number.map(lambda _: 0.0)  # the compliant law reads kp alone
                elif key == "control_period":
                    step = numbers["timestep"]
                    number = st.integers(1, 4).map(lambda k: k * step)
                    if kind == "fma":  # also whole steps near 2/kv, where the held-voltage loop turns unstable
                        edge = 2.0 / numbers["kv"] / step
                        number |= st.floats(0.8, 1.25).map(lambda r: max(1, round(r * edge)) * step)
                numbers[key] = draw(number)
                value = f"{numbers[key]!r} {spec.unit}".strip()
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _same(a, b) -> bool:
    """Equality that reaches into dataclasses, sequences and arrays."""
    if is_dataclass(a):
        pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
        return type(a) is type(b) and all(_same(x, y) for x, y in pairs)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(config_texts())
def test_serialized_config_parses_back_to_itself(text):
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    built, rebuilt = build_scenario(cfg), build_scenario(again)
    for f in fields(built):
        assert _same(getattr(rebuilt, f.name), getattr(built, f.name)), f.name


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=False))
def test_unit_suffix_scales_by_its_factor(x):
    for unit in known_units():
        expected = x if math.isinf(x) else x * _UNITS[unit][0]
        assert _same_bits(parse_quantity(f"{x!r} {unit}"), expected), unit


_EDGES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_EDGES, _EDGES, _number(0.0, 100.0)), min_size=1, max_size=4))
def test_band_edges_in_degrees_are_the_radians_of_each_edge(bands):
    text = ", ".join(":".join(map(repr, band)) for band in bands)
    cfg = parse_config(
        "[plant]\nkind = fma\nactuator = fma-paper\n[reference]\nprofile = rest\nduration = 1 s\n"
        f"[disturbance]\nbands = {text} deg\n"
    )
    expected = [(math.radians(lo), math.radians(hi), gain) for lo, hi, gain in bands]
    assert _same_bits(np.array(cfg.disturbance["bands"]), np.array(expected))


# Values past a numeric key's bounds: 0 and -1 below most ranges, 1e-300
# and 1e300 at the ends of the floats, 4.9e-324 and 1e-310 subnormal and
# 1.7e308 near overflow, so that a quantity derived from them (2π/duration,
# 2π·t/period, kp/dt) overflows, nan and inf no numbers at all, and
# "1.5 steps" a control period that is no whole number of timesteps.
_PAST_BOUNDS = ("0", "-1", "1e-300", "1e300", "4.9e-324", "1e-310", "1.7e308", "nan", "inf", "1.5 steps")


@st.composite
def configs_past_one_bound(draw):
    """Variants of one config_texts() file: one per numeric key, with that
    key set to a value past its bound and every other key left valid.

    The durations are those of config_texts(), at most 100 control ticks,
    so a variant that passes every check still runs in milliseconds.
    """
    lines = draw(config_texts()).splitlines()
    cfg = parse_config("\n".join(lines))
    schema, section, variants = config._SCHEMAS[cfg.kind], None, []
    # Consecutive keys take consecutive values, so that every key meets
    # every value over a few examples.
    turn = draw(st.integers(0, len(_PAST_BOUNDS) - 1))
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line[1:-1]
            continue
        key, _, value = line.partition(" = ")
        spec = schema[section][key]
        if spec.parse not in ("int", "quantity", "vector"):
            continue
        bad = _PAST_BOUNDS[(turn + len(variants)) % len(_PAST_BOUNDS)]
        if bad == "1.5 steps":
            bad = repr(1.5 * cfg.run.get("timestep", cfg.run.get("physics_timestep")))
        if spec.parse == "vector":
            angles = value.split()[:-1]
            angles[draw(st.integers(0, len(angles) - 1))] = bad
            bad = " ".join(angles)
        variants.append("\n".join([*lines[:i], f"{key} = {bad} {spec.unit}".rstrip(), *lines[i + 1 :]]))
    return variants


def _assert_cli_contract(argv, context):
    """Run the CLI in-process: it exits 0, 2 or 3, and a failure prints one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), context
    assert code == 0 or (len(lines) == 1 and lines[0].startswith("error: ")), (lines, context)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(configs_past_one_bound())
def test_simulate_exits_0_2_or_3_and_fails_in_one_line(variants):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        for text in variants:
            path.write_text(text + "\n", encoding="utf-8")
            _assert_cli_contract(["simulate", "--config", str(path), "--out", tmp], text)


# Tokens where a number is expected that repr() never writes: junk, option
# look-alikes, and numbers spelt otherwise.
_ODD_TOKENS = ["", " ", "-", "--", "x", "-x", "1,5", "1_0", "0x1p-3", "-.5", "+1", "1e999", "-Infinity", "NaN", "--json"]


@st.composite
def number_tokens(draw, numbers, sizes):
    """Numbers as a command line passes them: each as Python writes it,
    and in half the lists one of them replaced by an odd token."""
    size = draw(sizes)
    tokens = [repr(x) for x in draw(st.lists(numbers, min_size=size, max_size=size))]
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    return tokens


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["fk", "jacobian"]),
    st.sampled_from([*sorted(fixtures.CHAIN_FIXTURES), "nosuch"]),
    number_tokens(st.floats(), st.just(6) | st.integers(0, 8)),
    st.booleans(),
)
def test_fk_and_jacobian_exit_0_2_or_3_and_fail_in_one_line(command, chain, angles, as_json):
    _assert_cli_contract([command, chain, *angles, *(["--json"] if as_json else [])], angles)


_SHORT_SWEEP_INI = """
[plant]
kind = fma
actuator = fma-paper
[reference]
profile = trapezoid
duration = 0.2 s
[disturbance]
noise_sigma = 2
"""


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(number_tokens(_number(0.0625, 4.0) | st.floats(), st.integers(0, 3)).map(",".join))
def test_envelope_exits_0_2_or_3_and_fails_in_one_line(sweep):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.ini"
        path.write_text(_SHORT_SWEEP_INI, encoding="utf-8")
        argv = ["envelope", "--config", str(path), "--sweep", sweep, "--parallel", "1", "--out", tmp]
        _assert_cli_contract(argv, sweep)


# Each joint of a force run's home pose is the built-in's, or at or near 0:
# the shoulder and elbow at 0 stretch the arm out, the wrist at 0 aligns
# joints 4 and 6.
_BUILT_IN_HOME = (0.0, -0.6, 0.9, 0.0, 0.7, 0.0)
_NEAR_ZERO = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-10, 1e-9, 1e-6, -1e-3])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.tuples(*(st.just(x) | _NEAR_ZERO for x in _BUILT_IN_HOME)))
def test_force_run_from_a_home_near_0_exits_0_2_or_3_and_fails_in_one_line(home):
    text = resources.files("fmasim").joinpath("scenarios", "force-regulation.ini").read_text(encoding="utf-8")
    text = text.replace("[plant]\n", f"[plant]\nhome = {' '.join(map(repr, home))} rad\n", 1)
    text = text.replace("duration = 20 s\n", "duration = 3 s\n", 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "home.ini"
        path.write_text(text, encoding="utf-8")
        _assert_cli_contract(["simulate", "--config", str(path), "--out", tmp], home)
