import dataclasses
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fmasim
from fmasim import dynamics, kinematics
from fmasim.dynamics import (
    DegenerateConfigurationError,
    ExternalLoad,
    compute_dynamics,
    coriolis_torque,
    forward_dynamics,
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

    g_tau = compute_dynamics(model, q).gravity
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
        m = compute_dynamics(model, q).inertia
        assert np.allclose(m, m.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(m) > 0.0)


def test_power_array_is_the_inertia_derivative():
    # The quadratic forms see only the part of P* symmetric in (i, j);
    # central differences of I* see all of it.
    model = powercube6()
    rng = np.random.default_rng(14)
    h = 1.0e-6
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 6)
        grad = np.empty((6, 6, 6))
        for i in range(6):
            dq = np.zeros(6)
            dq[i] = h
            plus, minus = compute_dynamics(model, q + dq), compute_dynamics(model, q - dq)
            grad[i] = (plus.inertia - minus.inertia) / (2.0 * h)
        power = compute_dynamics(model, q).power
        fd = grad - 0.5 * grad.transpose(1, 0, 2)
        assert np.max(np.abs(power - fd)) <= 1.0e-6 * np.max(np.abs(power))


def test_one_joint_power_array_is_zero():
    # One joint turns the whole chain rigidly, so I* does not depend on it.
    rng = np.random.default_rng(15)
    model = random_spatial_chain(rng, dof=1)
    for q in rng.uniform(-np.pi, np.pi, (5, 1)):
        assert not compute_dynamics(model, q).power.any()


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


def test_forward_dynamics_refuses_non_finite_arguments():
    # Every dynamics entry point refuses each array argument it reads when
    # it is one entry short or a column, or holds a NaN or an infinity, by name.
    model, n, q = powercube6(), 6, np.zeros(6)
    power = compute_dynamics(model, q).power
    calls = {
        "forward_dynamics": lambda a: forward_dynamics(
            model, q, a["theta_dot"], a["tau"], gravity=a["gravity"], viscous=a["viscous"]
        ),
        "inverse_dynamics": lambda a: inverse_dynamics(
            model, JointState(q, a["theta_dot"]), gravity=a["gravity"], viscous=a["viscous"]
        ),
        "compute_dynamics": lambda a: compute_dynamics(model, q, gravity=a["gravity"]),
        "coriolis_torque": lambda a: coriolis_torque(power, a["theta_dot"]),
    }
    reads = {
        "forward_dynamics": ("theta_dot", "tau", "gravity", "viscous"),
        "inverse_dynamics": ("gravity", "viscous"),
        "compute_dynamics": ("gravity",),
        "coriolis_torque": ("theta_dot",),
    }
    good = dict(theta_dot=np.zeros(n), tau=np.zeros(n), gravity=np.array([0.0, 0.0, -9.81]), viscous=np.zeros(n))
    for entry, names in reads.items():
        for name in names:
            size = len(good[name])
            for bad in ("short", "column", math.nan, math.inf):
                if bad == "short":
                    value, message = np.zeros(size - 1), rf"must have shape \({size},\), got \({size - 1},\)$"
                elif bad == "column":
                    value, message = np.zeros((size, 1)), rf"must have shape \({size},\), got \({size}, 1\)$"
                else:
                    value, message = good[name].copy(), "must be finite, got "
                    value[-1] = bad
                with pytest.raises(ValueError, match=f"^{name} {message}") as refused:
                    calls[entry](dict(good, **{name: value}))
                assert len(str(refused.value).splitlines()) == 1, (entry, name, bad)


def test_link_spatial_inertias_are_read_only_and_built_once(monkeypatch):
    calls = []
    real_skew = kinematics.skew
    monkeypatch.setattr(kinematics, "skew", lambda v: calls.append(1) or real_skew(v))
    model = powercube6()
    q, qd = np.full(6, 0.3), np.full(6, -0.2)
    for _ in range(3):
        forward_dynamics(model, q, qd, np.zeros(6))
        compute_dynamics(model, q)
    assert len(calls) == 1
    held = model._spatial_inertias
    assert held.shape == (6, 6, 6) and not held.flags.writeable
    with pytest.raises(ValueError):
        held[0, 0, 0] = 1.0
    # A chain with other mass properties builds its own, once.
    other = dataclasses.replace(model, masses=2.0 * model.masses)
    inverse_dynamics(other, JointState(q, qd))
    inverse_dynamics(other, JointState(q, qd))
    assert len(calls) == 2
    assert np.array_equal(other._spatial_inertias[:, 3:, 3:], 2.0 * held[:, 3:, 3:])


def _count_kernels(monkeypatch):
    calls = {"frame_floats": 0, "_world_coms": 0}
    for module, kernel in ((kinematics, kinematics.frame_floats), (dynamics, dynamics._world_coms)):
        def counting(*args, kernel=kernel):
            calls[kernel.__name__] += 1
            return kernel(*args)

        monkeypatch.setattr(module, kernel.__name__, counting)
    return calls


def test_forward_dynamics_transforms_once_and_forms_no_world_coms(monkeypatch):
    # Each link's inertia moves by its frame transform, so an unloaded call
    # needs no world COM; a load at a COM forms the one it acts at.
    model = powercube6()
    q, qd, tau = np.full(6, 0.3), np.full(6, -0.2), np.ones(6)
    calls = _count_kernels(monkeypatch)
    forward_dynamics(model, q, qd, tau)
    assert calls == {"frame_floats": 1, "_world_coms": 0}
    load = ExternalLoad(Wrench(np.ones(3), np.zeros(3)), link=4, at="com")
    forward_dynamics(model, q, qd, tau, loads=(load,))
    assert calls == {"frame_floats": 2, "_world_coms": 1}


def _run_fresh(code):
    """Run `code` in a new interpreter that imports this fmasim."""
    src = str(Path(fmasim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)


def test_import_does_not_load_scipy():
    submodules = [m.name for m in pkgutil.iter_modules(fmasim.__path__)]
    imports = "".join(f"import fmasim.{name}; " for name in submodules)
    _run_fresh(imports + 'import sys; assert "scipy" not in sys.modules')


def test_fma_import_loads_no_chain_or_contact_module():
    # The actuator model is a one-axis plant; it needs none of the chain or contact code.
    unused = ("fmasim.spatial", "fmasim.kinematics", "fmasim.force_control")
    _run_fresh(f"import fmasim.fma, sys; loaded = set({unused}) & set(sys.modules); assert not loaded, loaded")


def test_fma_and_scenario_imports_load_no_module_above_their_checks():
    # The argument checks live in fmasim.errors, the bottom module, so fma
    # loads errors and units alone, and scenario, which names fma's
    # classes only in annotations, does not load fma.
    _run_fresh(
        'import fmasim.fma, sys; loaded = {m for m in sys.modules if m.startswith("fmasim.")}; '
        'assert loaded <= {"fmasim.errors", "fmasim.fma", "fmasim.units"}, loaded'
    )
    _run_fresh('import fmasim.scenario, sys; assert "fmasim.fma" not in sys.modules')


def test_cli_import_does_not_load_dynamics():
    # Nor the process pool, which only envelope --parallel uses, nor the
    # plot writer, which only --svg uses.
    unused = ("fmasim.dynamics", "concurrent.futures.process", "fmasim.svg")
    _run_fresh(f"import fmasim.cli, sys; loaded = set({unused}) & set(sys.modules); assert not loaded, loaded")


def test_config_import_loads_no_runner():
    # The scenario classes live in fmasim.scenario, so reading and building
    # a scenario needs no runner.
    _run_fresh('import fmasim.config, sys; assert "fmasim.simulation" not in sys.modules')
