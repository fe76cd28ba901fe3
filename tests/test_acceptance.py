"""End-to-end acceptance checks, one recorded pass/fail line per criterion.

Each test computes its figures first, records them for the terminal
summary, and only then asserts, so a red criterion still reports what
was actually measured.
"""
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from fmasim.cli import main as cli_main
from fmasim.config import build_scenario, load_scenario
from fmasim.fixtures import (
    fma_star_geometry,
    powercube6,
    sensor_tool_transform,
)
from fmasim.fma import (
    allocate_velocities,
    gear_ratios,
    null_space_projector,
    scale_ratio,
    weighted_pseudo_inverse,
)
from fmasim.force_control import natural_frequency
from fmasim.kinematics import DHRow, JointState, SerialChainModel, g_function, h_function
from fmasim.dynamics import inverse_dynamics
from fmasim.simulation import (
    SimulationTrace,
    _contact_row,
    _lag_percent,
    compute_metrics,
    pcb_insertion_profile,
    run_fma_scenario,
    run_force_control_scenario,
)
from fmasim.spatial import Wrench

from oracles import fd_hessian, fd_jacobian, two_link_lagrangian_torques


def _run_force(name):
    trace = run_force_control_scenario(build_scenario(load_scenario(name)))
    return trace, compute_metrics(trace)


@pytest.fixture(scope="module")
def deburr_run():
    scenario = build_scenario(load_scenario("fma-paper-deburr"))
    t0 = time.perf_counter()
    trace = run_fma_scenario(scenario)
    runtime = time.perf_counter() - t0
    return scenario, trace, compute_metrics(trace), runtime


@pytest.fixture(scope="module")
def regulation_run():
    return _run_force("force-regulation")


@pytest.fixture(scope="module")
def kp03_run():
    return _run_force("compliant-kp03")


@pytest.fixture(scope="module")
def kp01_run():
    return _run_force("compliant-kp01")


@pytest.fixture(scope="module")
def sine_run():
    return _run_force("force-sine-tracking")


def test_criterion_01_gear_train_exactness():
    g1, g2 = gear_ratios(fma_star_geometry())
    rho = scale_ratio(0.007341, -0.10111)
    ok = (
        abs(g1 - 0.007341) <= 1.0e-6
        and abs(g2 - (-0.10111)) <= 1.0e-5
        and abs(rho - 13.773) <= 1.0e-3
    )
    record_acceptance(
        "1", "star gear coefficients", ok, f"g1={g1:.7f} g2={g2:.6f} rho={rho:.4f}"
    )
    assert abs(g1 - 0.007341) <= 1.0e-6
    assert abs(g2 - (-0.10111)) <= 1.0e-5
    assert abs(rho - 13.773) <= 1.0e-3


def test_criterion_02_deburring_sweep(deburr_run):
    scenario, trace, metrics, runtime = deburr_run
    t = trace.t
    q_ref = trace.column("q_ref")
    err = np.abs(trace.column("q") - q_ref)

    # a disturbance window spans the reference's stay inside a burr band,
    # padded for the filter to notice the entry and shed the exit transient
    inside = np.zeros_like(t, dtype=bool)
    for lo, hi, _ in scenario.disturbance.bands:
        occ = (q_ref > lo) & (q_ref < hi)
        if occ.any():
            inside |= (t >= t[occ][0] - 0.1) & (t <= t[occ][-1] + 0.7)

    dominant = max(metrics.pvke_percent)
    err_out = float(err[~inside].max())
    err_in = float(err[inside].max())
    speed_ratio = metrics.mean_abs_speed[0] / metrics.mean_abs_speed[1]
    torque_ratio = metrics.mean_abs_torque[1] / metrics.mean_abs_torque[0]

    ok = (
        78.0 <= dominant <= 88.0
        and err_out <= 0.01
        and err_in <= 0.04
        and speed_ratio >= 5.0
        and torque_ratio >= 10.0
        and runtime < 30.0
    )
    record_acceptance(
        "2",
        "deburring sweep reproduction",
        ok,
        f"pvke={dominant:.1f}% err_out={err_out:.4f} err_in={err_in:.4f} "
        f"speed x{speed_ratio:.2f} torque x{torque_ratio:.2f} {runtime:.2f}s",
    )
    assert 78.0 <= dominant <= 88.0
    assert err_out <= 0.01
    assert err_in <= 0.04
    assert speed_ratio >= 5.0
    assert torque_ratio >= 10.0
    assert runtime < 30.0


def _random_speed_map(rng):
    g = rng.normal(size=2)
    while g @ g < 1.0e-3:
        g = rng.normal(size=2)
    a = rng.normal(size=(2, 2))
    w = a @ a.T + 2.0 * np.eye(2)
    return g, w


def test_criterion_03_allocation_optimality():
    rng = np.random.default_rng(1000)
    worst_residual = 0.0
    optimal = True
    for _ in range(1000):
        g, w = _random_speed_map(rng)
        qd_out = rng.normal() * 10.0
        qd = allocate_velocities(g, qd_out, w)
        worst_residual = max(worst_residual, abs(g @ qd - qd_out))
        cost = qd @ w @ qd
        null = null_space_projector(g, w)
        alts = qd[None, :] + rng.normal(size=(1000, 2)) @ null.T
        alt_costs = np.einsum("ij,jk,ik->i", alts, w, alts)
        if np.any(alt_costs < cost - 1.0e-9):
            optimal = False
    ok = worst_residual <= 1.0e-10 and optimal
    record_acceptance(
        "3",
        "allocation optimality",
        ok,
        f"worst residual {worst_residual:.2e}, optimal vs 10^6 alternatives: {optimal}",
    )
    assert worst_residual <= 1.0e-10
    assert optimal


def test_criterion_04_projector_algebra():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        g, w = _random_speed_map(rng)
        gp = weighted_pseudo_inverse(g, w)
        p = null_space_projector(g, w)
        worst = max(
            worst,
            float(np.max(np.abs(p @ p - p))),
            float(np.max(np.abs(g @ p))),
            abs(np.trace(p) - 1.0),
            abs(g @ gp - 1.0),
        )
    ok = worst <= 1.0e-12
    record_acceptance("4", "projector algebra", ok, f"worst identity defect {worst:.2e}")
    assert worst <= 1.0e-12


def test_criterion_05a_jacobian_oracle():
    model = powercube6()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, 6)
        worst = max(worst, float(np.max(np.abs(g_function(model, theta) - fd_jacobian(model, theta)))))
    ok = worst < 1.0e-6
    record_acceptance("5a", "jacobian vs finite differences", ok, f"worst {worst:.2e}")
    assert worst < 1.0e-6


def test_criterion_05b_hessian_oracle():
    model = powercube6()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, 6)
        worst = max(worst, float(np.max(np.abs(h_function(model, theta) - fd_hessian(model, theta)))))
    ok = worst < 1.0e-5
    record_acceptance("5b", "hessian vs finite differences", ok, f"worst {worst:.2e}")
    assert worst < 1.0e-5


def test_criterion_05c_lagrangian_oracle():
    pytest.importorskip("sympy")
    l1, c1, c2 = 0.4, 0.18, 0.12
    m1, m2 = 2.1, 1.3
    izz1, izz2 = 0.031, 0.017
    dh = (DHRow(), DHRow(a_prev=l1))
    model = SerialChainModel(
        dh,
        np.array([m1, m2]),
        np.array([[c1, 0.0, 0.0], [c2, 0.0, 0.0]]),
        np.array([np.diag([0.0, 0.0, izz1]), np.diag([0.0, 0.0, izz2])]),
        name="2r",
    )
    oracle = two_link_lagrangian_torques(m1, m2, l1, c1, c2, izz1, izz2)
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-3.0, 3.0, 2)
        qdd = rng.uniform(-5.0, 5.0, 2)
        tau = inverse_dynamics(model, JointState(q, qd, qdd), gravity=np.array([0.0, -9.81, 0.0]))
        worst = max(worst, float(np.max(np.abs(tau - oracle(q, qd, qdd)))))
    ok = worst < 1.0e-8
    record_acceptance("5c", "inverse dynamics vs symbolic oracle", ok, f"worst {worst:.2e}")
    assert worst < 1.0e-8


def test_criterion_05d_energy_conservation(pendulum_energy_drift):
    drift = pendulum_energy_drift
    ok = drift < 1.0e-4
    record_acceptance("5d", "unforced pendulum energy drift", ok, f"relative drift {drift:.2e}")
    assert drift < 1.0e-4


def test_criterion_06_sensor_axis_map():
    xf = sensor_tool_transform()
    w = Wrench(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    out = xf.apply(w).as_array()
    expected = np.array([-2.0, -1.0, -3.0, -5.0, -4.0, -6.0])
    ok = np.array_equal(out, expected)
    record_acceptance("6", "sensor axis map", ok, f"mapped to {out.tolist()}")
    assert np.array_equal(out, expected)


def test_criterion_07a_force_regulation(regulation_run):
    trace, metrics = regulation_run
    target = abs(trace.scenario.force_target)
    tol = 0.02 * target
    err = np.abs(trace.column("tau_ext") - trace.column("f_ref"))
    settled = metrics.settling_time is not None
    if settled:
        t_settle = trace.t[_contact_row(trace)] + metrics.settling_time
        after = trace.t >= t_settle
        holds = bool(np.all(err[after] <= tol))
    else:
        holds = False
    tail = trace.t >= trace.t[-1] - 2.0
    steady_err = float(np.max(err[tail]))
    steady = steady_err < 1.0e-3
    ok = settled and holds and steady
    record_acceptance(
        "7a",
        "force regulation reaches and holds",
        ok,
        f"settle={metrics.settling_time if settled else 'never'}s "
        f"band +/-{tol:.3f}N held={holds} final err {steady_err:.1e}N",
    )
    assert settled, "regulation never entered the 2% band"
    assert holds, "force left the 2% band after settling"
    assert steady, f"steady-state error {steady_err} N"


def test_criterion_07b_compliant_overshoot_ordering(kp03_run, kp01_run):
    _, hot = kp03_run
    _, cool = kp01_run
    ok = hot.overshoot_percent > 0.0 and cool.overshoot_percent == 0.0
    record_acceptance(
        "7b",
        "compliant overshoot ordering",
        ok,
        f"kp=0.03 -> {hot.overshoot_percent:.1f}%, kp=0.01 -> {cool.overshoot_percent:.1f}%",
    )
    assert hot.overshoot_percent > 0.0
    assert cool.overshoot_percent == 0.0


def test_criterion_07c_sine_tracking_lag_and_clamp(sine_run):
    trace, metrics = sine_run
    t = trace.t
    start = _contact_row(trace)
    half = trace.scenario.sine_period / 2.0
    k = int(round(half / (t[1] - t[0])))
    phase = trace.aux["phase"]
    w1 = SimulationTrace(
        trace.columns, trace.data[start : start + k], trace.scenario, {"phase": phase[start : start + k]}
    )
    w2 = SimulationTrace(
        trace.columns,
        trace.data[start + k : start + 2 * k],
        trace.scenario,
        {"phase": phase[start + k : start + 2 * k]},
    )
    lag1 = _lag_percent(w1)
    lag2 = _lag_percent(w2)
    constant = (
        metrics.lag_percent is not None
        and lag1 is not None
        and lag2 is not None
        and lag1 >= 0.0
        and lag2 >= 0.0
        and abs(lag1 - lag2) <= 0.005
    )

    f = trace.column("tau_ext")
    raw = trace.aux["raw_force"]
    contact = t >= t[start]
    nonzero = contact & (f != 0.0)
    floor = float(np.min(np.abs(f[nonzero])))
    clamped = floor >= trace.scenario.deadband
    valley = contact & (np.abs(trace.column("f_ref")) <= 0.2)
    # at the reference valleys the display drops out entirely while the
    # tool is still pressing on the surface
    dropout = bool(np.any(f[valley] == 0.0)) and float(np.max(raw[valley])) < 0.0

    ok = constant and clamped and dropout
    record_acceptance(
        "7c",
        "sine tracking lag and deadband clamp",
        ok,
        f"lag halves {lag1:.4f}%/{lag2:.4f}%, nonzero floor {floor:.3f}N "
        f">= deadband {trace.scenario.deadband:.3f}N",
    )
    assert constant, f"lag not constant: {lag1} vs {lag2}"
    assert clamped, f"forces displayed below the deadband: {floor}"
    assert dropout, "reference valleys never exercised the deadband"


def test_criterion_08_insertion_profile():
    eps = 1.0e-9
    checks = {
        "rest": pcb_insertion_profile(1.0) == 0.0,
        "dwell": pcb_insertion_profile(2.0) == 28.0,
        "knot1": abs(pcb_insertion_profile(1.485 - eps) - 30.0) < 0.5,
        "knot2": abs(pcb_insertion_profile(1.68 - eps) - 65.0) < 0.5,
    }
    ok = all(checks.values())
    record_acceptance(
        "8",
        "insertion force profile",
        ok,
        f"f(1.485-)= {pcb_insertion_profile(1.485 - eps):.3f}N f(1.68-)= {pcb_insertion_profile(1.68 - eps):.3f}N",
    )
    assert checks["rest"]
    assert checks["dwell"]
    assert checks["knot1"]
    assert checks["knot2"]


def test_criterion_09a_interface_frequency_spot_check():
    freq = natural_frequency(4391.0, 1.2)
    ok = abs(freq - 9.623) <= 0.001
    record_acceptance(
        "9a",
        "interface natural frequency",
        ok,
        f"computed {freq:.5f} Hz vs quoted 9.623 +/- 0.001",
    )
    # sqrt(4391/1.2)/2pi = 9.62745 Hz; the quoted 9.623 is not reachable
    # from these inputs, so this check documents the discrepancy
    assert ok, f"natural_frequency(4391, 1.2) = {freq:.5f} Hz, quoted 9.623 +/- 0.001"


def test_criterion_09b_frequency_margin():
    freq = natural_frequency(4391.0, 1.2)
    margin = 100.0 * 0.02 / freq
    ok = abs(margin - 0.207) <= 0.001
    record_acceptance("9b", "tracking frequency margin", ok, f"{margin:.5f}% vs 0.207 +/- 0.001")
    assert ok


def test_criterion_10_trace_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--config", "fma-paper-deburr"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    same = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    record_acceptance("10", "seeded trace determinism", same, "byte-identical trace.csv")
    assert same
