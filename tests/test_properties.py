"""Invariants checked over generated inputs with hypothesis."""
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fmasim.config import build_scenario, load_scenario, replace_values
from fmasim.errors import SimulationBlowUpError
from fmasim.fixtures import fma_paper_plant
from fmasim.fma import reduced_terms, stribeck_friction
from fmasim.force_control import ContactSurface, SignalConditioner, normal_force, window_mean
from fmasim.kinematics import (
    DHRow,
    SerialChainModel,
    _cross,
    _ee_g,
    _g_of,
    frame_transforms,
    g_function,
    h_function,
)
from fmasim.simulation import _rk4_reduced, rk4_step, run_fma_scenario
from fmasim.spatial import Wrench

from oracles import fd_hessian, fd_jacobian, loop_frame_transforms, moving_average_outputs

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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chains_and_poses())
def test_tool_point_g_is_the_masked_kernel(case):
    model, theta = case
    rots, origins = frame_transforms(model, theta)
    expected = _g_of(rots, origins, origins[-1][None], np.array([model.dof - 1]))[0]
    assert _ee_g(rots, origins).tobytes() == expected.tobytes()


_vector_parts = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1.0e6, 1.0e6, allow_subnormal=False),
    st.floats(-1.0, 1.0),
)


@st.composite
def cross_operands(draw):
    """Operand pairs in the broadcast shapes the G/H kernels pass to ``_cross``."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    shape_a, shape_b = draw(
        st.sampled_from(
            [((n, 3), (m, n, 3)), ((n, n, 3), (m, n, n, 3)), ((n, 1, 3), (m, 1, n, 3))]
        )
    )
    return (
        draw(arrays(np.float64, shape_a, elements=_vector_parts)),
        draw(arrays(np.float64, shape_b, elements=_vector_parts)),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cross_operands())
def test_cross_is_np_cross(operands):
    a, b = operands
    got, expected = _cross(a, b), np.cross(a, b)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


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
    bias_wrench = Wrench(bias[:3], bias[3:])
    batched = SignalConditioner(bias_wrench, window, deadband)
    stepped = SignalConditioner(bias_wrench, window, deadband)
    reference = moving_average_outputs(np.concatenate(blocks), bias, window, deadband)
    seen = 0
    for block in blocks:
        out = batched.step_batch(block).as_array()
        for row in block:
            one = stepped.step(Wrench(row[:3], row[3:])).as_array()
            assert _same_bits(one, reference[seen])
            seen += 1
        assert _same_bits(out, one)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conditioner_streams())
def test_filter_batch_is_step_batch_without_the_wrench(case):
    window, bias, deadband, blocks = case
    bias_wrench = Wrench(bias[:3], bias[3:])
    filtered = SignalConditioner(bias_wrench, window, deadband)
    stepped = SignalConditioner(bias_wrench, window, deadband)
    for block in blocks:
        got = filtered.filter_batch(block)
        assert got.shape == (6,)
        assert got.tobytes() == stepped.step_batch(block).as_array().tobytes()


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(axis_surfaces_and_points())
def test_batched_normal_force_rows_are_one_point_calls(case):
    surface, points, velocities = case
    forces = normal_force(surface, points, velocities)
    for i, point in enumerate(points):
        velocity = None if velocities is None else velocities[i : i + 1]
        one = normal_force(surface, point[None], velocity)
        assert forces[i : i + 1].tobytes() == one.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 32),
    st.integers(1, 40),
    st.data(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_batch_conditioner_rejects_non_finite_samples(window, m, data, bad):
    cond = SignalConditioner(window=window)
    block = np.ones((m, 6))
    block[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, 5))] = bad
    with pytest.raises(ValueError, match="finite"):
        cond.step_batch(block)
    # the rejected block leaves the filter as it was
    assert cond.step_batch(np.ones((1, 6))).force[2] == 1.0 / window


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
    # a new array: the conditioner zeroes parts of the result in place
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
    scalar = stribeck_friction(qd)
    assert type(scalar) is float
    with np.errstate(over="ignore"):
        element = stribeck_friction(np.array([qd], dtype=float))[0]
    assert _bits(scalar) == _bits(element)


@st.composite
def reduced_steps(draw):
    """Reduced terms with drawn plant constants, a state, a held drive and a step."""
    terms = replace(
        reduced_terms(fma_paper_plant()),
        inertia=draw(st.floats(0.01, 100.0)),
        damping=draw(st.floats(0.0, 50.0)),
        gravity_arm=draw(st.floats(0.0, 100.0)),
        stribeck=draw(st.booleans()),
    )
    q, qd = draw(st.floats(-10.0, 10.0)), draw(st.floats(-50.0, 50.0))
    drive, tau_ext = draw(st.floats(-500.0, 500.0)), draw(st.floats(-50.0, 50.0))
    t, dt = draw(st.floats(0.0, 100.0)), draw(st.floats(1.0e-6, 0.1))
    return terms, drive, tau_ext, q, qd, t, dt


def _array_rk4(terms, drive, tau_ext, q, qd, t, dt):
    def deriv(_t, y):
        return (y[1], terms.acceleration(y[0], y[1], drive, tau_ext))

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
        # with no damping or friction makes each k of qd about the drive.
        terms = replace(terms, inertia=1.0, damping=0.0, stribeck=False)
        drive = data.draw(st.floats(1.0e308, 1.7e308)) * data.draw(st.sampled_from([1.0, -1.0]))
    case = (terms, drive, tau_ext, q, qd, t, dt)
    with pytest.raises(SimulationBlowUpError) as from_floats:
        _rk4_reduced(*case)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowUpError) as from_arrays:
        _array_rk4(*case)
    assert str(from_floats.value) == str(from_arrays.value)
