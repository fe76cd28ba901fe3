"""Invariants checked over generated inputs with hypothesis."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from fmasim.kinematics import DHRow, SerialChainModel, g_function, h_function

from oracles import fd_hessian, fd_jacobian

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
