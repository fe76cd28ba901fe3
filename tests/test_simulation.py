import functools
import hashlib
import math
from collections import deque
from dataclasses import fields, replace

import numpy as np
import pytest

import fmasim.simulation as simulation
from fmasim.config import build_scenario, load_scenario
from fmasim.dynamics import forward_dynamics
from fmasim.errors import SimulationBlowUpError
from fmasim.fixtures import (
    compliant_scale_surface,
    fma_paper_plant,
    fma_paper_weighting,
    powercube6,
)
from fmasim.fma import (
    DualActuatorModel,
    PrimeMoverParams,
    StarCompoundGeometry,
    computed_torque_voltage,
    reduced_terms,
    stribeck_friction,
)
from fmasim.force_control import ContactSurface, _condition_axis, _force_axis, _penalty, window_mean
from fmasim.scenario import BurrDisturbance, FmaScenario, ForceControlScenario
from fmasim.simulation import (
    Metrics,
    SimulationTrace,
    burr_disturbance,
    compute_metrics,
    envelope_points,
    metrics_text,
    pcb_insertion_profile,
    rk4_step,
    run_fma_scenario,
    run_force_control_scenario,
    sinusoidal_force_reference,
    trapezoidal_profile,
    write_trace_csv,
)
from fmasim.units import MM_PER_LBF_TO_M_PER_N

from test_golden import GOLDEN


def test_rk4_is_fourth_order():
    def deriv(_t, y):
        return -y

    def err(n):
        y = np.array([1.0])
        dt = 1.0 / n
        for k in range(n):
            y = rk4_step(deriv, y, k * dt, dt)
        return abs(y[0] - math.exp(-1.0))

    order = math.log2(err(50) / err(100))
    assert order > 3.9


def test_rk4_accuracy_at_millisecond_steps():
    def deriv(t, y):
        return np.array([math.cos(t)])

    y = np.array([0.0])
    for k in range(1000):
        y = rk4_step(deriv, y, k * 1.0e-3, 1.0e-3)
    assert abs(y[0] - math.sin(1.0)) < 1.0e-9


def test_rk4_validation():
    with pytest.raises(ValueError):
        rk4_step(lambda t, y: y, np.array([1.0]), 0.0, 0.0)
    with pytest.raises(SimulationBlowUpError):
        rk4_step(lambda t, y: np.array([math.inf]), np.array([1.0]), 0.0, 1e-3)


def _speed(t, total, w):
    return trapezoidal_profile(t, total, w)[1]


def test_trapezoid_profile_values():
    w = 2.0 * math.pi / 10.0
    assert _speed(0.0, 10.0, w) == 0.0
    assert _speed(2.5, 10.0, w) == pytest.approx(w)
    assert _speed(5.0, 10.0, w) == pytest.approx(w)
    # halfway down the deceleration ramp
    assert _speed(8.75, 10.0, w) == pytest.approx(w / 2.0)
    assert _speed(10.0, 10.0, w) == pytest.approx(0.0)
    assert trapezoidal_profile(1.0, 10.0, w)[2] == pytest.approx(w / 2.5)
    assert trapezoidal_profile(5.0, 10.0, w)[2] == 0.0
    assert trapezoidal_profile(9.0, 10.0, w)[2] == pytest.approx(-w / 2.5)


def test_trapezoid_profile_domain():
    with pytest.raises(ValueError):
        trapezoidal_profile(-0.1, 10.0, 1.0)
    with pytest.raises(ValueError):
        trapezoidal_profile(10.1, 10.0, 1.0)
    with pytest.raises(ValueError):
        trapezoidal_profile(1.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "profile, args, message",
    [
        (trapezoidal_profile, (math.nan, 1.0, 1.0), "t=nan outside [0, 1.0]"),
        (trapezoidal_profile, (0.5, math.inf, 1.0), "total_time must be positive and finite, got inf"),
        (pcb_insertion_profile, (math.nan,), "t=nan outside [0, 2.22]"),
        (sinusoidal_force_reference, (math.nan, -1.0, 50.0), "t_c must be nonnegative and finite, got nan"),
        (sinusoidal_force_reference, (1.0, -1.0, math.nan), "period must be positive and finite, got nan"),
        (trapezoidal_profile, (0.5, 1.0, math.nan), "omega_peak must be finite, got nan"),
        (trapezoidal_profile, (0.5, 1.0, math.inf), "omega_peak must be finite, got inf"),
        (sinusoidal_force_reference, (1.0, math.nan, 50.0), "f_max must be finite, got nan"),
        (
            sinusoidal_force_reference,
            (1e300, -1.0, 1e-300),
            "the phase 2π·t_c/period overflows at t_c = 1e+300, period = 1e-300",
        ),
    ],
)
def test_reference_profiles_refuse_non_finite_arguments(profile, args, message):
    # A range check written `x < lo or x > hi` lets NaN through.
    with pytest.raises(ValueError) as refused:
        profile(*args)
    assert str(refused.value) == message


_NAN, _INF = math.nan, math.inf
_TERMS = reduced_terms(fma_paper_plant())
_BLOW_UP = (SimulationBlowUpError, "non-finite derivative at t=0 s")
_SIN_OF_INF = (ValueError, "math domain error")


def _window():
    return deque([0.0] * 4, maxlen=4)


def _rk4(drive, q):
    return simulation._rk4_reduced(_TERMS, drive, 0.0, q, 0.2, 0.0, 1e-3)


@pytest.mark.parametrize(
    "kernel, args, expected",
    [
        (stribeck_friction, (_NAN,), _NAN),
        (stribeck_friction, (_INF,), _INF),
        (stribeck_friction, (-_INF,), -_INF),
        (_penalty, (ContactSurface(1000.0), _NAN), _NAN),
        (_penalty, (ContactSurface(1000.0), _INF), _INF),
        (_penalty, (ContactSurface(1000.0), -_INF), 0.0),
        (_penalty, (ContactSurface(1000.0, damping=5.0), 1e-3, _NAN), _NAN),
        (window_mean, ([1.0, _NAN],), _NAN),
        (window_mean, ([1.0, _INF],), _INF),
        (window_mean, ([_INF, -_INF],), _NAN),
        (window_mean, ([],), (ValueError, "history must hold at least one sample, got none")),
        (
            _condition_axis,
            (_window(), [1.0, _NAN], 0.0, 0.0),
            (ValueError, "wrench samples must be finite, got [1.0, nan]"),
        ),
        (
            _condition_axis,
            (_window(), [-_INF], 0.0, 0.0),
            (ValueError, "wrench samples must be finite, got [-inf]"),
        ),
        (_rk4, (_NAN, 0.1), _BLOW_UP),
        (_rk4, (0.0, _NAN), _BLOW_UP),
        (_rk4, (_INF, 0.1), _SIN_OF_INF),
        (_rk4, (0.0, _INF), _SIN_OF_INF),
        (_force_axis, (2.0, _NAN), _NAN),
        (_force_axis, (0.0, _INF), _NAN),
        (_force_axis, (2.0, -_INF, 1.0, _INF), _NAN),
        (_force_axis, (2.0, -0.0), -0.0),
    ],
)
def test_per_tick_kernels_treat_non_finite_input_as_documented(kernel, args, expected):
    # The runners check their state every tick, so these kernels check
    # nothing or raise what their docstrings say; a refused sample does not
    # enter the window.
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as refused:
            kernel(*args)
        assert type(refused.value) is error and str(refused.value) == message
        if kernel is _condition_axis:
            assert list(args[0]) == [0.0] * 4
        return
    value = kernel(*args)
    assert type(value) is float
    if math.isnan(expected):
        assert math.isnan(value)
    else:
        assert value == expected and math.copysign(1.0, value) == math.copysign(1.0, expected)


def test_trapezoid_position_integrates_velocity():
    w = 0.62832
    total = 10.0
    ts = np.linspace(0.0, total, 2001)
    integral = 0.0
    prev_v = _speed(0.0, total, w)
    for a, b in zip(ts[:-1], ts[1:]):
        v = _speed(b, total, w)
        integral += 0.5 * (prev_v + v) * (b - a)
        prev_v = v
        assert trapezoidal_profile(b, total, w)[0] == pytest.approx(integral, abs=1e-6)
    # ramps average to half speed, so the sweep covers 3/4 of w * T
    w = 2.0 * math.pi / total
    assert trapezoidal_profile(total, total, w)[0] == pytest.approx(0.75 * w * total)


def test_sinusoidal_reference_is_rectified():
    assert sinusoidal_force_reference(0.0, -13.3, 50.0) == 0.0
    assert sinusoidal_force_reference(12.5, -13.3, 50.0) == pytest.approx(-13.3)
    assert sinusoidal_force_reference(37.5, -13.3, 50.0) == pytest.approx(-13.3)
    assert sinusoidal_force_reference(25.0, -13.3, 50.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        sinusoidal_force_reference(-1.0, 1.0, 50.0)
    with pytest.raises(ValueError):
        sinusoidal_force_reference(1.0, 1.0, 0.0)


def test_insertion_profile_knots():
    assert pcb_insertion_profile(0.0) == 0.0
    assert pcb_insertion_profile(1.2299) == 0.0
    eps = 1.0e-9
    # quintic blends land on the next segment start within the drawing tolerance
    assert abs(pcb_insertion_profile(1.485 - eps) - 30.0) < 0.5
    assert abs(pcb_insertion_profile(1.68 - eps) - 65.0) < 0.5
    assert abs(pcb_insertion_profile(1.86 - eps) - 28.0) < 0.5
    assert pcb_insertion_profile(2.0) == 28.0
    assert pcb_insertion_profile(2.22) == 28.0
    with pytest.raises(ValueError):
        pcb_insertion_profile(-0.01)
    with pytest.raises(ValueError):
        pcb_insertion_profile(2.23)


def test_burr_disturbance_band_gating():
    rng = np.random.default_rng(0)
    bands = ((1.0, 2.0, 5.0),)
    assert burr_disturbance(0.5, 3.0, rng, bands, noise_sigma=0.0) == 0.0
    # band edges are open
    assert burr_disturbance(1.0, 3.0, rng, bands, noise_sigma=0.0) == 0.0
    assert burr_disturbance(2.0, 3.0, rng, bands, noise_sigma=0.0) == 0.0
    assert burr_disturbance(1.5, 3.0, rng, bands, noise_sigma=0.0) == pytest.approx(15.0)


@pytest.mark.parametrize(
    "q, qd, bands, sigma, message",
    [
        (math.nan, 1.0, ((1.0, 2.0, 5.0),), 2.0, "q must be finite, got nan"),
        (math.inf, 1.0, ((1.0, 2.0, 5.0),), 2.0, "q must be finite, got inf"),
        (1.5, -math.inf, ((1.0, 2.0, 5.0),), 2.0, "qd must be finite, got -inf"),
        (1.5, 1.0, ((math.nan, 2.0, 5.0),), 0.0, "bands must be finite, got ((nan, 2.0, 5.0),)"),
        (0.0, 1.0, ((1.0, 2.0, 5.0),), math.nan, "noise_sigma must be finite, got nan"),
    ],
)
def test_burr_disturbance_refuses_non_finite_arguments(q, qd, bands, sigma, message):
    """A NaN angle or band edge read as outside every band, and a NaN
    sigma as no noise."""
    with pytest.raises(ValueError) as info:
        burr_disturbance(q, qd, np.random.default_rng(0), bands, noise_sigma=sigma)
    assert str(info.value) == message


def test_burr_disturbance_noise_statistics():
    rng = np.random.default_rng(7)
    samples = np.array([burr_disturbance(0.0, 0.0, rng) for _ in range(100_000)])
    assert abs(samples.mean()) < 0.05
    assert abs(samples.std() - 2.0) / 2.0 < 0.05


def test_burr_disturbance_deterministic_under_seed():
    a = [burr_disturbance(1.5, 2.0, np.random.default_rng(42)) for _ in range(1)]
    b = [burr_disturbance(1.5, 2.0, np.random.default_rng(42)) for _ in range(1)]
    assert a == b


def test_burr_dataclass_validation():
    with pytest.raises(ValueError):
        BurrDisturbance(bands=((2.0, 1.0, 5.0),))
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            BurrDisturbance(noise_sigma=sigma)


def test_fma_scenario_validation():
    plant = fma_paper_plant()
    with pytest.raises(ValueError):
        FmaScenario(plant, reference="cubic")
    with pytest.raises(ValueError):
        FmaScenario(plant, timestep=2.0e-3, control_period=3.0e-3)
    with pytest.raises(ValueError):
        FmaScenario(plant, duration=-1.0)
    assert FmaScenario(plant, duration=4.0).peak_speed == pytest.approx(2.0 * math.pi / 4.0)
    assert FmaScenario(plant, omega_peak=0.9).peak_speed == 0.9


BUILT_IN = {FmaScenario: "fma-paper-deburr", ForceControlScenario: "force-regulation"}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in BUILT_IN for f in fields(cls) if f.type == "float"],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_scenario_float_fields_must_be_finite(cls, name, value):
    scenario = build_scenario(load_scenario(BUILT_IN[cls]))
    assert isinstance(scenario, cls)
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        replace(scenario, **{name: value})


# The built-in that holds an instance of each class with rules, and the
# path to it there. The force scenario tracks a sine, so that sine_period
# has its rule.
RULED = {
    FmaScenario: ("fma-paper-deburr",),
    ForceControlScenario: ("force-sine-tracking",),
    BurrDisturbance: ("fma-paper-deburr", "disturbance"),
    DualActuatorModel: ("fma-paper-deburr", "plant"),
    PrimeMoverParams: ("fma-paper-deburr", "plant", "motion_pm"),
    StarCompoundGeometry: ("fma-paper-deburr", "plant", "geometry"),
}


@pytest.mark.parametrize(
    "cls, name, value, rule",
    [
        (FmaScenario, "timestep", 0.0, "positive"),
        (FmaScenario, "duration", -1.0, "positive"),
        (FmaScenario, "omega_peak", -0.5, "nonnegative"),
        (FmaScenario, "seed", -1, "nonnegative"),
        (FmaScenario, "reference", "cubic", "one of ['trapezoid', 'rest']"),
        (FmaScenario, "tau_filter_window", 0, "positive"),
        (ForceControlScenario, "control_rate", 0.0, "positive"),
        (ForceControlScenario, "duration", 0.0, "positive"),
        (ForceControlScenario, "deadband", -1.0, "nonnegative"),
        (ForceControlScenario, "seed", -3, "nonnegative"),
        (ForceControlScenario, "approach_speed", -1e-3, "positive"),
        (ForceControlScenario, "start_height", -0.01, "nonnegative"),
        (ForceControlScenario, "arm_lag", -2.0, "nonnegative"),
        (ForceControlScenario, "sine_period", 0.0, "positive"),
        (ForceControlScenario, "law", "impedance", "one of ['force-pid', 'compliant']"),
        (ForceControlScenario, "kp", -1e-5, "nonnegative"),
        (ForceControlScenario, "kv", -1.0, "nonnegative"),
        (ForceControlScenario, "ki", -0.5, "nonnegative"),
        (BurrDisturbance, "noise_sigma", -1.0, "nonnegative"),
        (StarCompoundGeometry, "r9", -1.0, "positive"),
        (PrimeMoverParams, "rotor_inertia", 0.0, "positive"),
        (PrimeMoverParams, "damping", -1e-6, "nonnegative"),
        (DualActuatorModel, "link_mass", 0.0, "positive"),
        (DualActuatorModel, "tool_mass", -0.5, "nonnegative"),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_scenario_sign_checks_name_the_one_refused_field(cls, name, value, rule):
    # Each field is checked on its own, so a valid neighbour is never blamed.
    builtin, *path = RULED[cls]
    owner = functools.reduce(getattr, path, build_scenario(load_scenario(builtin)))
    assert isinstance(owner, cls)
    with pytest.raises(ValueError) as refused:
        replace(owner, **{name: value})
    assert str(refused.value) == f"{name} must be {rule}, got {value!r}"


@pytest.mark.parametrize(
    "ki, blamed",
    [
        (2.248089438709618e-06, "ki = 2.248089438709618e-06 m/N is too large: "),
        # 0/0: no ki is small enough, so the rate is named.
        (0.0, "control_rate = 1e+170 Hz is too high: dt**2 underflows to 0, "),
    ],
)
def test_force_pid_overflow_names_the_configured_gain(ki, blamed):
    # dt**2 underflows to 0 at this rate, so ki/dt**2 cannot be formed; the
    # message names the scenario's own ki, or the rate when ki is 0.
    scenario = build_scenario(load_scenario("force-regulation"))
    with pytest.raises(ValueError) as refused:
        replace(scenario, ki=ki, control_rate=1e170, physics_timestep=1e-171, duration=1e-170)
    assert str(refused.value).startswith(blamed)


def test_force_scenario_validation():
    chain = powercube6()
    surface = compliant_scale_surface()
    kp = MM_PER_LBF_TO_M_PER_N
    with pytest.raises(ValueError):
        ForceControlScenario(chain, surface, kp, law="impedance")
    with pytest.raises(ValueError):
        ForceControlScenario(chain, surface, kp, reference="square")
    with pytest.raises(ValueError):
        ForceControlScenario(chain, surface, kp, home=(0.0, 0.0))
    with pytest.raises(ValueError, match="home must be finite"):
        ForceControlScenario(chain, surface, kp, home=(0.0, math.nan, 0.9, 0.0, 0.7, 0.0))
    with pytest.raises(ValueError):
        ForceControlScenario(chain, surface, kp, physics_timestep=1.0)


@pytest.mark.parametrize(
    "field, value", [("normal", (1.0, 0.0, 0.0)), ("normal", (0.0, 0.0, -1.0)), ("damping", 1.0e4)]
)
def test_force_scenario_refuses_a_surface_the_runner_would_misread(field, value):
    # The runner presses along -z onto a pure spring; it would ignore a
    # tilted normal or a damper and write the undamped +z trace.
    scenario = build_scenario(load_scenario("force-regulation"))
    surface = replace(scenario.surface, **{field: value})
    with pytest.raises(ValueError, match=f"^surface {field} must be"):
        replace(scenario, surface=surface)


def rest_scenario(duration=0.5):
    plant = fma_paper_plant()
    return FmaScenario(
        plant=plant,
        controller_model=plant,
        weighting=fma_paper_weighting(),
        kp=900.0,
        kv=60.0,
        reference="rest",
        duration=duration,
        disturbance=None,
        seed=0,
        name="rest-hold",
    )


def test_rest_scenario_holds_equilibrium():
    # breakaway friction flips sign between ticks, so the hold is a tight
    # limit cycle around zero rather than an exact fixed point
    trace = run_fma_scenario(rest_scenario())
    assert np.max(np.abs(trace.column("qd"))) < 5.0e-4
    assert np.max(np.abs(trace.column("q"))) < 2.0e-4


def test_fma_trace_structure_and_metrics():
    trace = run_fma_scenario(rest_scenario(0.2))
    assert trace.columns[:3] == ("t", "q", "q_ref")
    assert trace.n_samples == 201
    assert isinstance(trace.scenario, FmaScenario)
    metrics = compute_metrics(trace)
    assert metrics.kind == "fma"
    assert metrics.max_position_error < 2.0e-4
    # rotors hold still in a perfect hover, partition may be degenerate
    text = metrics_text(metrics)
    assert "max_position_error" in text
    assert "kind = fma" in text


def test_deburr_voltages_are_the_computed_torque_law():
    # The runner and computed_torque_voltage share one servo law, bit for bit.
    scenario = build_scenario(load_scenario("fma-paper-deburr"))
    trace = run_fma_scenario(scenario)
    policy = scenario.weighting
    assert trace.aux["disturbed"].any() and not trace.aux["disturbed"].all()
    names = ("t", "q", "q_ref", "qd", "qd_ref", "v1", "v2")
    for k in range(0, trace.n_samples, 97):
        t, q, q_ref, qd, qd_ref, v1, v2 = (trace.column(name)[k] for name in names)
        qdd_ref = trapezoidal_profile(t, scenario.duration, scenario.peak_speed)[2]
        weight = policy.disturbed if trace.aux["disturbed"][k] else policy.quiet
        v = computed_torque_voltage(
            scenario.controller_model, q, qd, q_ref, qd_ref, qdd_ref, scenario.kp, scenario.kv, weight
        )
        assert v.tobytes() == np.array([v1, v2]).tobytes()


def test_trace_csv_round_trips_floats(tmp_path):
    trace = run_fma_scenario(rest_scenario(0.05))
    write_trace_csv(trace, tmp_path / "trace.csv")
    text = (tmp_path / "trace.csv").read_bytes().decode("ascii")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(trace.columns)
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, trace.data)


def test_simulation_trace_validation():
    cols = ("t", "q")
    with pytest.raises(ValueError):
        SimulationTrace(cols, np.zeros((3, 3)), None, {})
    with pytest.raises(ValueError):
        SimulationTrace(cols, np.array([[0.0, 1.0], [0.0, 2.0]]), None, {})
    with pytest.raises(ValueError):
        SimulationTrace(cols, np.array([[0.0, 1.0], [1.0, 2.0], [1.5, 3.0]]), None, {})
    trace = SimulationTrace(cols, np.array([[0.0, 1.0], [1.0, 2.0]]), None, {})
    with pytest.raises(ValueError):
        trace.data[0, 0] = 5.0
    with pytest.raises(KeyError):
        trace.column("missing")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "times, row",
    [
        ([math.nan, 0.1, 0.2], 0),
        ([0.0, math.nan, 0.2], 1),
        ([0.0, 0.1, math.nan], 2),
        ([0.0, 0.1, math.inf], 2),
        ([-math.inf, 0.1, 0.2], 0),
        ([math.nan], 0),
        ([math.inf], 0),
    ],
    ids=["nan-first", "nan-middle", "nan-last", "inf", "-inf", "nan-one-row", "inf-one-row"],
)
def test_simulation_trace_refuses_non_finite_times(times, row):
    data = np.column_stack((times, np.arange(len(times), dtype=float)))
    with pytest.raises(ValueError, match=rf"^time must be finite, got {times[row]} in row {row}$"):
        SimulationTrace(("t", "x"), data, None, {})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("times", [[-1.7e308, 1.7e308], [-1.7e308, 1.7e308, 1.71e308]], ids=["2-rows", "3-rows"])
def test_simulation_trace_refuses_an_interval_that_overflows(times):
    # Finite times whose difference is past the floats; in the 3-row case
    # the intervals inf and 1e306 would read as constant, inf - inf being nan.
    data = np.column_stack((times, np.zeros(len(times))))
    with pytest.raises(ValueError, match="^sample interval must be finite, got inf$"):
        SimulationTrace(("t", "x"), data, None, {})


@pytest.mark.parametrize("partition", [(math.nan, math.nan), (math.nan, 100.0), (math.inf, -math.inf)])
def test_metrics_refuses_a_partition_off_100_percent(partition):
    with pytest.raises(ValueError, match="^kinetic-energy partition must sum to 100%$"):
        Metrics(kind="fma", pvke_percent=partition)


def test_metrics_validation_and_dispatch():
    with pytest.raises(ValueError):
        Metrics(kind="fma", pvke_percent=(50.0, 60.0))
    empty = SimulationTrace(("t",), np.zeros((0, 1)), rest_scenario(), {})
    with pytest.raises(ValueError):
        compute_metrics(empty)
    bogus = SimulationTrace(("t",), np.zeros((1, 1)), None, {})
    with pytest.raises(ValueError):
        compute_metrics(bogus)


def test_envelope_points_pool_and_dedup():
    trace = run_fma_scenario(rest_scenario(0.1))
    points = envelope_points([trace])
    assert points
    assert all(p.tag == "rest-hold" for p in points)
    # a perfect hover visits essentially one operating point
    assert len(points) < trace.n_samples
    stripped = SimulationTrace(trace.columns, trace.data, trace.scenario, {})
    with pytest.raises(ValueError):
        envelope_points([stripped])
    with pytest.raises(ValueError):
        envelope_points([])


def test_force_run_reaches_contact():
    scenario = ForceControlScenario(
        chain=powercube6(),
        surface=compliant_scale_surface(),
        kp=0.1 * MM_PER_LBF_TO_M_PER_N,
        kv=0.1 * MM_PER_LBF_TO_M_PER_N,
        ki=0.01 * MM_PER_LBF_TO_M_PER_N,
        duration=12.0,
        name="contact-smoke",
    )
    trace = run_force_control_scenario(scenario)
    assert isinstance(trace.scenario, ForceControlScenario)
    assert simulation._contact_row(trace) is not None
    assert trace.columns[-1] == "f_ref"
    # pushing down on the scale: sensed force goes negative
    assert trace.column("tau_ext").min() < -1.0


def _counted_run(monkeypatch, tmp_path, name):
    """Run a built-in force scenario; return its full-transform, tool-height and tick counts."""
    calls = {"frame_floats": 0, "tool_height": 0}

    def counted(kernel):
        def counting(chain, theta):
            calls[kernel.__name__] += 1
            return kernel(chain, theta)

        return counting

    for kernel in (simulation.frame_floats, simulation.tool_height):
        monkeypatch.setattr(simulation, kernel.__name__, counted(kernel))
    scenario = build_scenario(load_scenario(name))
    trace = run_force_control_scenario(scenario)
    write_trace_csv(trace, tmp_path / "trace.csv")
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
    n_ticks = round(scenario.duration * scenario.control_rate)
    return calls["frame_floats"], calls["tool_height"], n_ticks


def test_rigid_arm_transforms_each_pose_once(monkeypatch, tmp_path):
    # The arm lands on the command every tick, so the command transform
    # reuses the actual one: one transform per tick plus the home pose.
    transforms, heights, n_ticks = _counted_run(monkeypatch, tmp_path, "force-regulation")
    assert transforms <= n_ticks + 2
    assert heights == 0


def test_lagging_arm_transforms_command_and_actual_each_tick(monkeypatch, tmp_path):
    # The actual pose trails the command, so each tick transforms the
    # command and takes only the tool height of the actual pose; the home
    # pose is the one transform the two share.
    transforms, heights, n_ticks = _counted_run(monkeypatch, tmp_path, "compliant-kp03")
    assert transforms == n_ticks + 1
    assert heights == n_ticks


@pytest.mark.parametrize("name", ["force-regulation", "compliant-kp03"])
def test_force_run_solves_the_jacobian_once_per_tick(monkeypatch, name):
    # Every tick before the last takes one step, the last tick none.
    solves = []
    solve = simulation._solve_jacobian

    def counting(g, rhs):
        solves.append(None)
        return solve(g, rhs)

    monkeypatch.setattr(simulation, "_solve_jacobian", counting)
    scenario = build_scenario(load_scenario(name))
    run_force_control_scenario(scenario)
    assert len(solves) == round(scenario.duration * scenario.control_rate)


def test_hot_paths_call_lapack_without_the_linalg_wrapper(monkeypatch):
    # The force tick's solve and forward_dynamics' guard and solve go to
    # numpy's gufuncs through spatial's helpers; np.linalg's wrappers are
    # left to the cold paths, such as the checks made when a chain is built.
    scenario = build_scenario(load_scenario("force-regulation"))
    chain = powercube6()

    def refused(*args, **kwargs):
        raise AssertionError("a hot path called np.linalg's wrapper")

    monkeypatch.setattr(np.linalg, "solve", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    assert len(run_force_control_scenario(scenario).data) == 301
    assert np.isfinite(forward_dynamics(chain, np.full(6, 0.3), np.full(6, 0.1), np.zeros(6))).all()
