import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fmasim
from fmasim.dynamics import (
    DegenerateConfigurationError,
    ExternalLoad,
    compute_dynamics,
    coriolis_torque,
    effective_inertia,
    forward_dynamics,
    gravity_torque,
    inverse_dynamics,
)
from fmasim.fixtures import powercube6
from fmasim.kinematics import DHRow, JointState, SerialChainModel, com_positions, g_function
from fmasim.spatial import Wrench

from oracles import rnea_torques, two_link_lagrangian_torques

L1, L2 = 0.4, 0.3
C1, C2 = 0.18, 0.12
M1, M2 = 2.1, 1.3
IZZ1, IZZ2 = 0.031, 0.017


def two_link():
    dh = (DHRow(), DHRow(a_prev=L1))
    masses = np.array([M1, M2])
    coms = np.array([[C1, 0.0, 0.0], [C2, 0.0, 0.0]])
    inertias = np.array([np.diag([0.0, 0.0, IZZ1]), np.diag([0.0, 0.0, IZZ2])])
    return SerialChainModel(dh, masses, coms, inertias, name="2r")


GRAVITY_XY = np.array([0.0, -9.81, 0.0])


def test_inverse_dynamics_matches_lagrangian_oracle():
    pytest.importorskip("sympy")
    model = two_link()
    oracle = two_link_lagrangian_torques(M1, M2, L1, C1, C2, IZZ1, IZZ2)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-3.0, 3.0, 2)
        qdd = rng.uniform(-5.0, 5.0, 2)
        tau = inverse_dynamics(model, JointState(q, qd, qdd), gravity=GRAVITY_XY)
        worst = max(worst, np.max(np.abs(tau - oracle(q, qd, qdd))))
    assert worst < 1.0e-8


def test_forward_inverse_round_trip():
    model = powercube6()
    rng = np.random.default_rng(12)
    for _ in range(5):
        q = rng.uniform(-1.5, 1.5, 6)
        qd = rng.uniform(-2.0, 2.0, 6)
        qdd = rng.uniform(-4.0, 4.0, 6)
        tau = inverse_dynamics(model, JointState(q, qd, qdd))
        back = forward_dynamics(model, q, qd, tau)
        assert np.allclose(back, qdd, atol=1e-9)


def random_spatial_chain(rng, dof=6):
    """Random D-H rows, COM offsets and full (non-diagonal) SPD inertias."""
    dh = tuple(
        DHRow(
            alpha_prev=rng.uniform(-np.pi, np.pi),
            a_prev=rng.uniform(-0.4, 0.4),
            d=rng.uniform(-0.4, 0.4),
            theta_offset=rng.uniform(-np.pi, np.pi),
        )
        for _ in range(dof)
    )
    masses = rng.uniform(0.5, 8.0, dof)
    coms = rng.uniform(-0.2, 0.2, (dof, 3))
    inertias = []
    for _ in range(dof):
        a = rng.uniform(-0.3, 0.3, (3, 3))
        spd = a @ a.T + 0.01 * np.eye(3)
        inertias.append(0.5 * (spd + spd.T))
    return SerialChainModel(dh, masses, coms, np.array(inertias), name="random")


def test_inverse_dynamics_matches_newton_euler_oracle():
    # checks the spatial terms (full inertias, dPi/dtheta) the planar oracle cannot
    rng = np.random.default_rng(21)
    gravity = np.array([1.3, -4.2, -8.6])
    worst = 0.0
    for _ in range(10):
        model = random_spatial_chain(rng)
        q = rng.uniform(-np.pi, np.pi, 6)
        qd = rng.uniform(-3.0, 3.0, 6)
        qdd = rng.uniform(-5.0, 5.0, 6)
        tau = inverse_dynamics(model, JointState(q, qd, qdd), gravity=gravity)
        oracle = rnea_torques(model, q, qd, qdd, gravity)
        worst = max(worst, np.max(np.abs(tau - oracle)) / np.max(np.abs(oracle)))
    assert worst < 1.0e-9


def test_unforced_pendulum_conserves_energy(pendulum_energy_drift):
    # swing in the x-y plane with gravity along -y so the single rotary
    # joint does work against it; RK4 at 1 ms should hold energy to 1e-4
    assert pendulum_energy_drift < 1.0e-4


def test_gravity_torque_is_potential_gradient():
    model = powercube6()
    q = np.array([0.4, -0.7, 0.3, 0.9, -0.2, 0.6])

    def potential(theta):
        coms = com_positions(model, theta)
        return sum(m * 9.81 * c[2] for m, c in zip(model.masses, coms))

    g_tau = gravity_torque(model, q)
    h = 1.0e-6
    for i in range(6):
        dq = np.zeros(6)
        dq[i] = h
        fd = (potential(q + dq) - potential(q - dq)) / (2.0 * h)
        # tau_gravity holds the arm: it balances the potential gradient
        assert abs(g_tau[i] - fd) < 1.0e-5


def test_effective_inertia_is_spd():
    model = powercube6()
    rng = np.random.default_rng(13)
    for _ in range(4):
        q = rng.uniform(-np.pi, np.pi, 6)
        m = effective_inertia(model, q)
        assert np.allclose(m, m.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(m) > 0.0)


def test_coriolis_vanishes_at_rest():
    model = powercube6()
    quants = compute_dynamics(model, np.array([0.3, 0.1, -0.5, 0.8, 0.2, -0.9]))
    tau = coriolis_torque(quants.power, np.zeros(6))
    assert np.allclose(tau, 0.0, atol=1e-14)


def test_coriolis_quadratic_in_velocity():
    model = powercube6()
    quants = compute_dynamics(model, np.array([0.7, -0.3, 0.4, -0.6, 0.1, 0.9]))
    qd = np.array([0.5, -1.0, 0.8, 0.3, -0.7, 0.2])
    tau1 = coriolis_torque(quants.power, qd)
    tau2 = coriolis_torque(quants.power, 2.0 * qd)
    assert np.allclose(tau2, 4.0 * tau1, atol=1e-12)


def test_external_load_matches_static_map():
    model = powercube6()
    q = np.array([0.2, -0.4, 0.6, -0.8, 1.0, -1.2])
    w = Wrench(np.array([5.0, -3.0, 8.0]), np.array([0.4, 0.0, -0.2]))
    base = inverse_dynamics(model, JointState(q, np.zeros(6), np.zeros(6)))
    loaded = inverse_dynamics(
        model,
        JointState(q, np.zeros(6), np.zeros(6)),
        loads=(ExternalLoad(w, link=6, at="frame"),),
    )
    g = g_function(model, q)
    assert np.allclose(loaded - base, g.T @ w.as_array(), atol=1e-10)


def test_viscous_term_adds_linear_drag():
    model = powercube6()
    q = np.zeros(6)
    qd = np.array([1.0, -0.5, 0.25, 0.75, -1.5, 0.1])
    visc = np.full(6, 0.3)
    tau_dry = inverse_dynamics(model, JointState(q, qd, np.zeros(6)))
    tau_wet = inverse_dynamics(model, JointState(q, qd, np.zeros(6)), viscous=visc)
    assert np.allclose(tau_wet - tau_dry, visc * qd, atol=1e-12)


def test_degenerate_inertia_raises():
    dh = (DHRow(), DHRow(a_prev=0.0))
    # both point masses collapsed onto the joint axes: no inertia about z
    model = SerialChainModel(
        dh,
        np.array([1.0, 1.0]),
        np.zeros((2, 3)),
        np.array([np.diag([0.1, 0.1, 0.0])] * 2),
        name="degenerate",
    )
    with pytest.raises(DegenerateConfigurationError):
        forward_dynamics(model, np.zeros(2), np.zeros(2), np.zeros(2))


def _run_fresh(code):
    """Run `code` in a new interpreter that imports this fmasim."""
    src = str(Path(fmasim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)


def test_import_does_not_load_scipy():
    submodules = [m.name for m in pkgutil.iter_modules(fmasim.__path__)]
    imports = "".join(f"import fmasim.{name}; " for name in submodules)
    _run_fresh(imports + 'import sys; assert "scipy" not in sys.modules')


def test_cli_import_does_not_load_dynamics():
    _run_fresh('import fmasim.cli; import sys; assert "fmasim.dynamics" not in sys.modules')
