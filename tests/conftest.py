"""Shared helpers: the acceptance report printed after the test run, and
the pendulum energy drift two tests assert on."""
import numpy as np
import pytest

_RESULTS = []


def record_acceptance(number, label: str, passed: bool, detail: str = ""):
    """Register one acceptance-criterion outcome for the final summary."""
    _RESULTS.append((str(number), label, bool(passed), detail))


def _order(entry):
    number = entry[0]
    digits = "".join(ch for ch in number if ch.isdigit())
    return (int(digits) if digits else 0, number)


@pytest.hookimpl
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.ensure_newline()
    tr.section("acceptance criteria")
    for number, label, passed, detail in sorted(_RESULTS, key=_order):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:>2}: {status}  {label}"
        if detail:
            line += f"  ({detail})"
        tr.write_line(line, green=passed, red=not passed)


@pytest.fixture(scope="session")
def pendulum_energy_drift() -> float:
    """Relative energy drift of an unforced pendulum over 10 s of RK4 at 1 ms.

    One rotary joint swings in the x-y plane with gravity along -y, so it
    does work against gravity, from rest at 2 rad.
    """
    from fmasim.dynamics import compute_dynamics, forward_dynamics
    from fmasim.kinematics import DHRow, SerialChainModel, com_positions
    from fmasim.simulation import rk4_step

    model = SerialChainModel(
        (DHRow(),),
        np.array([1.7]),
        np.array([[0.25, 0.0, 0.0]]),
        np.array([np.diag([0.0, 0.0, 0.012])]),
        name="pendulum",
    )
    gravity = np.array([0.0, -9.81, 0.0])
    i_eff = float(compute_dynamics(model, np.zeros(1)).inertia[0, 0])

    def energy(q, qd):
        com = com_positions(model, np.array([q]))[0]
        return 0.5 * i_eff * qd**2 + 1.7 * 9.81 * com[1]

    def deriv(_t, y):
        qdd = forward_dynamics(model, y[:1], y[1:], np.zeros(1), gravity=gravity)
        return np.array([y[1], qdd[0]])

    y = np.array([2.0, 0.0])
    e0 = energy(*y)
    for k in range(10_000):
        y = rk4_step(deriv, y, k * 1.0e-3, 1.0e-3)
    return abs(energy(*y) - e0) / abs(e0)
