"""Invariants checked over generated inputs with hypothesis."""
from collections import deque

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fmasim.config import build_scenario, load_scenario, replace_values
from fmasim.force_control import SignalConditioner, window_mean
from fmasim.kinematics import DHRow, SerialChainModel, g_function, h_function
from fmasim.simulation import run_fma_scenario
from fmasim.spatial import Wrench

from oracles import fd_hessian, fd_jacobian, moving_average_outputs

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
