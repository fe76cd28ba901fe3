"""Scenario execution for the dual-actuator rig and the contact tasks.

Reference generators, the burr-disturbance model, a classic fixed-step
RK4 integrator, two scenario runners that produce uniformly sampled
traces, the metrics extracted from those traces, and performance-envelope
points. Runs are deterministic: all randomness flows from one seeded
PCG64 generator per run, and repeated runs of the same scenario yield
bit-identical traces.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from . import fma
from .errors import DegenerateConfigurationError, SimulationBlowUpError
from .fma import DualActuatorModel, WeightingPolicy, _check_finite_floats
from .force_control import (
    DEFAULT_CONTACT_THRESHOLD,
    DEFAULT_SETTLE_RATE,
    ContactPhase,
    ContactSurface,
    GainSet,
    _condition_axis,
    _penalty,
    _solve_jacobian,
    compliant_control_step,
    contact_state_step,
    pure_force_control_step,
    window_mean,
)
from .kinematics import SerialChainModel, _point_g, frame_floats, tool_height
from .units import LBF_TO_N

TRACE_COLUMNS = ("t", "q", "q_ref", "qd", "qd_ref", "qM1", "qM2", "v1", "v2", "tau_ext")

# Default burr bands, (lo, hi, gain) with edges in rad: viscous gain over
# two angle windows of the deburring sweep.
DEFAULT_BURR_BANDS = ((1.0, 2.0, 5.0), (3.0, 4.0, 25.0))

# Limits a scenario must keep, checked when it is built, before its runner
# allocates or loops: the trace's bytes (rows x columns x 8), a filter
# window's length in samples, and both the integration steps (ticks x
# substeps) and the filter's reads (ticks x window).
MAX_TRACE_BYTES = 2**30
MAX_FILTER_WINDOW = 2**20
MAX_STEPS = 10**8

# The largest joint step a force run may command in one control tick. A
# resolved-rate step is a move along the Jacobian, which holds only near
# the pose it was taken at; a quarter turn in one tick comes from solving
# a near-singular Jacobian, not from a force law. The built-in runs step
# at most 0.0046 rad.
MAX_JOINT_STEP = math.pi / 2.0

# The largest tracking error |q - q_ref| an FMA run may reach. Half a turn
# of the output link is no tracking at all. A loop made unstable by its
# held voltages (a control period near or past 2/kv) passes this bound
# seconds before its state overflows, and would otherwise exit 0 with
# nonsense metrics. The built-in stays within 0.0142 rad, and its
# envelope sweep at peak-speed multipliers up to 64 within 0.181 rad.
MAX_TRACKING_ERROR = math.pi


def _check_run_size(ticks: float, substeps: int, columns: int, window_key: str, window: int):
    """Raise ValueError when a run of ``ticks`` control ticks would pass a limit above, or has no window."""
    if not math.isfinite(ticks):
        raise ValueError(f"the run would take {ticks} control ticks")
    rows = round(ticks) + 1
    size = rows * columns * 8
    if size > MAX_TRACE_BYTES:
        raise ValueError(
            f"the trace would take {size:.3g} bytes ({rows} rows x {columns} columns x 8); "
            f"the limit is {MAX_TRACE_BYTES} bytes"
        )
    if window < 1:
        raise ValueError(f"{window_key} must be at least 1")
    if window > MAX_FILTER_WINDOW:
        raise ValueError(f"{window_key} = {window} samples; the limit is {MAX_FILTER_WINDOW}")
    ticks = rows - 1
    for work, what, per_tick in (
        (ticks * substeps, "integration steps", f"{substeps} substeps"),
        (ticks * window, "filter reads", f"{window} samples"),
    ):
        if work > MAX_STEPS:
            raise ValueError(
                f"the run would take {work:.3g} {what} ({ticks} ticks x {per_tick}); "
                f"the limit is {MAX_STEPS:.0e}"
            )


def rk4_step(deriv, state, t: float, dt: float):
    """One classic fourth-order Runge-Kutta step of d(state)/dt = deriv(t, state)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(deriv(t, y), dtype=float)
    k2 = np.asarray(deriv(t + 0.5 * dt, y + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(deriv(t + 0.5 * dt, y + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(deriv(t + dt, y + dt * k3), dtype=float)
    increment = (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (dt / 6.0)
    if not np.all(np.isfinite(increment)):
        raise SimulationBlowUpError(f"non-finite derivative at t={t:.6g} s")
    return y + increment


def _rk4_reduced(terms, drive: float, tau_ext: float, q: float, qd: float, t: float, dt: float, k1=None):
    """``rk4_step`` of the reduced output-shaft model, in plain floats.

    The state is (q, qd) under a drive torque and disturbance held over
    the step; ``k1`` is the acceleration at (q, qd) if the caller has it.
    The operations and their order are ``rk4_step``'s, so the result is
    the same to the bit.
    """
    accel, sin, friction = terms.acceleration, math.sin, fma.stribeck_friction
    k1q, k1d = qd, accel(qd, sin(q), friction(qd), drive, tau_ext) if k1 is None else k1
    yq, yd = q + 0.5 * dt * k1q, qd + 0.5 * dt * k1d
    k2q, k2d = yd, accel(yd, sin(yq), friction(yd), drive, tau_ext)
    yq, yd = q + 0.5 * dt * k2q, qd + 0.5 * dt * k2d
    k3q, k3d = yd, accel(yd, sin(yq), friction(yd), drive, tau_ext)
    yq, yd = q + dt * k3q, qd + dt * k3d
    k4q, k4d = yd, accel(yd, sin(yq), friction(yd), drive, tau_ext)
    h = dt / 6.0
    dq = (k1q + 2.0 * k2q + 2.0 * k3q + k4q) * h
    dqd = (k1d + 2.0 * k2d + 2.0 * k3d + k4d) * h
    if not (math.isfinite(dq) and math.isfinite(dqd)):
        raise SimulationBlowUpError(f"non-finite derivative at t={t:.6g} s")
    return q + dq, qd + dqd


def trapezoidal_profile(t: float, total_time: float, omega_peak: float) -> tuple[float, float, float]:
    """Position, speed and acceleration of a ramp/plateau/ramp speed profile.

    The ramps last a quarter of ``total_time`` at each end; the position
    is integrated from zero.
    """
    if not 0.0 < total_time < math.inf:
        raise ValueError(f"total_time must be positive and finite, got {total_time}")
    if not 0.0 <= t <= total_time:
        raise ValueError(f"t={t} outside [0, {total_time}]")
    if not -math.inf < omega_peak < math.inf:
        raise ValueError(f"omega_peak must be finite, got {omega_peak}")
    ramp = total_time / 4.0
    accel = omega_peak / ramp
    if t <= ramp:
        return 0.5 * accel * t * t, omega_peak * t / ramp, accel
    if t < 3.0 * ramp:
        return omega_peak * ramp / 2.0 + omega_peak * (t - ramp), omega_peak, 0.0
    tau = t - 3.0 * ramp
    q = omega_peak * ramp / 2.0 + 2.0 * omega_peak * ramp + omega_peak * tau - 0.5 * accel * tau * tau
    return q, omega_peak * (total_time - t) / ramp, -accel


def sinusoidal_force_reference(t_c: float, f_max: float, period: float) -> float:
    """Rectified sinusoid of one sign; f_max carries the (negative) push sign."""
    if not 0.0 <= t_c < math.inf:
        raise ValueError(f"t_c must be nonnegative and finite, got {t_c}")
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be positive and finite, got {period}")
    if not -math.inf < f_max < math.inf:
        raise ValueError(f"f_max must be finite, got {f_max}")
    return f_max * abs(math.sin(2.0 * math.pi * t_c / period))


def pcb_insertion_profile(t: float) -> float:
    """Board-insertion force reference: rest, three quintic blends, dwell.

    The final quintic coefficient is taken with negative sign, pinned by
    the requirement that the profile be continuous at the 1.86 s knot.
    """
    if not 0.0 <= t <= 2.22:
        raise ValueError(f"t={t} outside [0, 2.22]")
    if t < 1.23:
        return 0.0
    if t < 1.485:
        x = t - 1.23
        return 5789.63 * x**3 - 21994.91 * x**4 + 25041.65 * x**5
    if t < 1.68:
        x = t - 1.485
        return 30.0 + 200.0 * x + 15644.23 * x**3 - 147313.65 * x**4 + 329844.99 * x**5
    if t < 1.86:
        x = t - 1.68
        return 65.0 - 63443.07 * x**3 + 528692.27 * x**4 - 1174871.72 * x**5
    return 28.0


def _banded_drag(q: float, qd: float, bands) -> float:
    """Viscous drag of the first band (lo, hi, gain) holding q, else 0."""
    b = 0.0
    for lo, hi, gain in bands:
        if lo < q < hi:
            b = gain
            break
    return b * qd


def burr_disturbance(q: float, qd: float, rng, bands=DEFAULT_BURR_BANDS, noise_sigma: float = 2.0) -> float:
    """Disturbance torque: banded viscous drag plus Gaussian sensor noise."""
    tau = _banded_drag(q, qd, bands)
    if noise_sigma > 0.0:
        tau += rng.normal(0.0, noise_sigma)
    return tau


@dataclass(frozen=True)
class BurrDisturbance:
    """Banded viscous disturbance parameters; bands are (lo, hi, gain) in rad."""

    bands: tuple = DEFAULT_BURR_BANDS
    noise_sigma: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        bands = tuple((float(lo), float(hi), float(g)) for lo, hi, g in self.bands)
        if not all(math.isfinite(x) for band in bands for x in band):
            raise ValueError("bands must be finite")
        for lo, hi, _ in bands:
            if hi <= lo:
                raise ValueError("disturbance band must have hi > lo")
        object.__setattr__(self, "bands", bands)


@dataclass(frozen=True, eq=False)
class FmaScenario:
    """One dual-actuator run: plant, controller beliefs, reference, disturbance."""

    plant: DualActuatorModel
    controller_model: DualActuatorModel | None = None
    weighting: WeightingPolicy | None = None
    kp: float = 100.0
    kv: float = 20.0
    reference: str = "trapezoid"
    duration: float = 10.0
    omega_peak: float = 0.0  # 0: one sweep over the duration (peak_speed)
    disturbance: BurrDisturbance | None = None
    timestep: float = 1.0e-3
    control_period: float = 1.0e-3
    tau_filter_window: int = 16
    seed: int = 0
    q0: float = 0.0
    qd0: float = 0.0
    name: str = "fma"

    def __post_init__(self):
        _check_finite_floats(self)
        if self.timestep <= 0.0 or self.duration <= 0.0:
            raise ValueError("timestep and duration must be positive")
        if self.omega_peak < 0.0 or self.seed < 0:
            raise ValueError("omega_peak and seed must be nonnegative")
        if self.reference not in ("trapezoid", "rest"):
            raise ValueError(f"unknown reference profile {self.reference!r}")
        substeps = self.control_period / self.timestep
        if not 1.0 - 1e-9 <= substeps < math.inf or abs(substeps - round(substeps)) > 1e-9 * substeps:
            raise ValueError("control_period must be an integer multiple of timestep")
        _check_run_size(
            self.duration / self.control_period,
            self.substeps,
            len(TRACE_COLUMNS),
            "tau_filter_window",
            self.tau_filter_window,
        )

    @property
    def substeps(self) -> int:
        return round(self.control_period / self.timestep)

    @property
    def peak_speed(self) -> float:
        return self.omega_peak or 2.0 * math.pi / self.duration


@dataclass(frozen=True)
class ForceControlScenario:
    """One contact task: approach a surface, then regulate or track force.

    The chain is driven in resolved-rate fashion (commanded joint motion
    through the Jacobian inverse); the physical arm follows the commanded
    joints through an optional first-order lag standing in for the inner
    position servo. Forces are SI; the reference pushes along -Z.

    The runner reads only the surface's effective stiffness. The plane's
    point is set by ``start_height``, below the home tool point, whatever
    the surface's ``point``; its normal must be +z and its damping zero.
    """

    chain: SerialChainModel
    surface: ContactSurface
    gains: GainSet
    law: str = "force-pid"
    control_rate: float = 15.0
    approach_speed: float = 2.25e-3
    start_height: float = 4.5e-3
    force_target: float = 5.0 * LBF_TO_N
    reference: str = "constant"
    sine_amplitude: float = 3.0 * LBF_TO_N
    sine_period: float = 50.0
    duration: float = 10.0
    deadband: float = 0.25 * LBF_TO_N
    contact_threshold: float = DEFAULT_CONTACT_THRESHOLD
    settle_rate: float = DEFAULT_SETTLE_RATE
    filter_window: int = 16
    arm_lag: float = 0.0
    physics_timestep: float = 1.0e-3
    home: tuple = (0.0, -0.6, 0.9, 0.0, 0.7, 0.0)
    seed: int = 0
    name: str = "force"

    def __post_init__(self):
        _check_finite_floats(self)
        if self.law not in ("force-pid", "compliant"):
            raise ValueError(f"unknown control law {self.law!r}")
        if self.reference not in ("constant", "sine"):
            raise ValueError(f"unknown force reference {self.reference!r}")
        if self.control_rate <= 0.0 or self.duration <= 0.0:
            raise ValueError("control_rate and duration must be positive")
        period = 1.0 / self.control_rate
        if self.physics_timestep <= 0.0 or self.physics_timestep > period + 1e-12:
            raise ValueError("physics_timestep must be positive and within a control period")
        if not max(period * period, period / self.physics_timestep) < math.inf:
            raise ValueError(f"control_rate = {self.control_rate:g} Hz: its period squared or in steps overflows")
        if self.reference == "sine" and self.sine_period <= 0.0:
            raise ValueError("sine_period must be positive")
        if self.deadband < 0.0 or self.seed < 0:
            raise ValueError("deadband and seed must be nonnegative")
        if self.approach_speed <= 0.0 or self.start_height < 0.0:
            raise ValueError("approach_speed must be positive, start_height nonnegative")
        if self.arm_lag < 0.0:
            raise ValueError("arm_lag must be nonnegative")
        if self.surface.normal.tolist() != [0.0, 0.0, 1.0]:
            raise ValueError(f"surface normal must be +z, got {self.surface.normal.tolist()}")
        if self.surface.damping != 0.0:
            raise ValueError(f"surface damping must be zero, got {self.surface.damping}")
        if self.chain.dof != 6:
            raise ValueError("resolved-rate drive needs a six-joint chain")
        if len(self.home) != self.chain.dof:
            raise ValueError("home configuration length must match the chain")
        if not all(math.isfinite(x) for x in self.home):
            raise ValueError("home configuration must be finite")
        _check_run_size(
            self.duration * self.control_rate,
            self.substeps,
            len(TRACE_COLUMNS) + 1,
            "filter_window",
            self.filter_window,
        )
        object.__setattr__(self, "home", tuple(float(x) for x in self.home))

    @property
    def substeps(self) -> int:
        return max(1, round(1.0 / self.control_rate / self.physics_timestep))


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Uniformly sampled run record.

    ``data`` columns follow ``columns``; ``scenario`` is the scenario that
    was run, and ``aux`` carries extra per-sample arrays that are not part
    of the trace file format. A force trace's metrics take its contact row
    from ``aux["phase"]``.
    """

    columns: tuple
    data: np.ndarray
    scenario: FmaScenario | ForceControlScenario | None
    aux: dict

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise ValueError("data shape does not match columns")
        t = data[:, 0]
        if data.shape[0] >= 2:
            dt = np.diff(t)
            if np.any(dt <= 0.0):
                raise ValueError("time must be strictly increasing")
            if np.max(np.abs(dt - dt[0])) > 1e-9 * max(1.0, abs(dt[0])):
                raise ValueError("sample interval must be constant")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self.columns.index(name)]
        except ValueError:
            raise KeyError(f"trace has no column {name!r}") from None


def run_fma_scenario(scenario: FmaScenario) -> SimulationTrace:
    """Integrate the reduced dual-actuator model under inverse-model control.

    The allocation weight is re-evaluated every control tick from the
    moving-average-filtered disturbance measurement; voltages and the
    disturbance torque are held over the tick. The controller and the
    plant are the per-tick laws of ``fma.reduced_terms``, the ones
    ``computed_torque_voltage`` and ``reduced_dynamics`` evaluate. Friction
    and sin(q) are evaluated once per state, the tick's acceleration is the
    first RK4 stage, and the burr noise is one ``rng.normal`` draw of
    n_ticks + 1 samples: the stream of one ``burr_disturbance`` per tick.
    """
    plant = scenario.plant
    ctrl = scenario.controller_model if scenario.controller_model is not None else plant
    policy = scenario.weighting

    # Terms per weight, indexed by whether the disturbed weight is active.
    weights = (policy.quiet, policy.disturbed) if policy else (None,)
    plant_terms = [fma.reduced_terms(plant, w) for w in weights]
    ctrl_terms = [fma.reduced_terms(ctrl, w) for w in weights]

    if scenario.reference == "trapezoid":
        w_pk, total, q0 = scenario.peak_speed, scenario.duration, scenario.q0

        def ref(t):  # the last tick can pass the duration (0.3 s in 0.1 s ticks); hold the end
            q, qd, qdd = trapezoidal_profile(min(t, total), total, w_pk)
            return q0 + q, qd, qdd
    else:
        ref = lambda t: (scenario.q0, 0.0, 0.0)

    tau_history = deque([0.0] * scenario.tau_filter_window, maxlen=scenario.tau_filter_window)

    dt = scenario.timestep
    tick = scenario.control_period
    substeps = scenario.substeps
    n_ticks = round(scenario.duration / tick)

    burr = scenario.disturbance
    noise = None
    if burr is not None and burr.noise_sigma > 0.0:
        noise = np.random.default_rng(scenario.seed).normal(0.0, burr.noise_sigma, n_ticks + 1)

    rows = np.empty((n_ticks + 1, len(TRACE_COLUMNS)))
    tau_out = np.empty(n_ticks + 1)
    tau_filtered = np.empty(n_ticks + 1)
    disturbed_flag = np.zeros(n_ticks + 1, dtype=bool)

    q, qd = scenario.q0, scenario.qd0
    for k in range(n_ticks + 1):
        t = k * tick
        if not (math.isfinite(q) and math.isfinite(qd)) or abs(q) > 1e9 or abs(qd) > 1e9:
            raise SimulationBlowUpError(f"{scenario.name}: state diverged at t={t:.4f} s")

        tau_ext = 0.0 if burr is None else _banded_drag(q, qd, burr.bands)
        if noise is not None:
            tau_ext += noise.item(k)
        tau_history.append(tau_ext)
        filt = window_mean(tau_history)
        disturbed = policy is not None and fma.weighting(policy, filt) is policy.disturbed
        pt, ct = plant_terms[disturbed], ctrl_terms[disturbed]

        q_ref, qd_ref, qdd_ref = ref(t)
        error = abs(q - q_ref)
        if error > MAX_TRACKING_ERROR:
            raise SimulationBlowUpError(
                f"{scenario.name}: tracking error of {error:.3g} rad at t={t:.4f} s "
                f"passes the bound of {MAX_TRACKING_ERROR:.4g} rad"
            )
        sin_q, fric = math.sin(q), fma.stribeck_friction(qd)
        v = ct.voltages(q, qd, sin_q, fric, q_ref, qd_ref, qdd_ref, scenario.kp, scenario.kv)
        drive = pt.drive(v)
        qdd_now = pt.acceleration(qd, sin_q, fric, drive, tau_ext)
        g1, g2 = pt.g_plus
        rows[k] = (t, q, q_ref, qd, qd_ref, g1 * qd, g2 * qd, *v, tau_ext)
        tau_out[k] = pt.output_torque(sin_q, fric, qdd_now, tau_ext)
        tau_filtered[k] = filt
        disturbed_flag[k] = disturbed

        if k == n_ticks:
            break
        for s in range(substeps):
            q, qd = _rk4_reduced(pt, drive, tau_ext, q, qd, t + s * dt, dt, None if s else qdd_now)

    aux = {"tau_out": tau_out, "tau_filtered": tau_filtered, "disturbed": disturbed_flag}
    return SimulationTrace(TRACE_COLUMNS, rows, scenario, aux)


_PHASE_CODES = {phase: code for code, phase in enumerate(ContactPhase)}


# A diverging run overflows inside the laws before the joint state turns
# non-finite; the runner reports that state as a blow-up, so numpy's
# warnings on the way there would only add noise on stderr.
@np.errstate(over="ignore", invalid="ignore")
def run_force_control_scenario(scenario: ForceControlScenario) -> SimulationTrace:
    """Drive the chain onto the surface and run the selected force law.

    Approach descends along world -Z at constant speed until the sensed
    force crosses the contact threshold; afterwards the force law issues
    per-tick differential motions. The surface plane is placed below the
    home tool point by the configured start height.
    """
    chain = scenario.chain
    theta_cmd = theta_act = list(scenario.home)
    # The transform of the commanded pose. A rigid arm (fade == 0) ends
    # each tick on the command, up to the sign of a zero joint value, which
    # frame_floats ignores, so its actual pose's transform is the next
    # command's. A lagging arm reads only the actual pose's tool height.
    rots, origins = frame_floats(chain, theta_act)
    z_now = z0 = origins[-1]
    # The plane's height; the runner reads the tool height only, so the
    # penalty depth along +z is the height difference.
    surface = scenario.surface
    z_surface = z0 - scenario.start_height

    dt = 1.0 / scenario.control_rate
    n_ticks = round(scenario.duration * scenario.control_rate)
    # The sensor samples at the physics rate, so the filter window spans
    # milliseconds, while the law reads it once per tick. The penalty law
    # keeps no state and the filter keeps only its last `window` samples,
    # so a sample that leaves the window before the tick ends never
    # reaches the law. Each tick therefore senses only its last
    # min(window, substeps) substeps and feeds them to the conditioner's
    # normal axis, the only one the law reads, which gives the same bits
    # as sensing every substep into a SignalConditioner.
    substeps = scenario.substeps
    gamma = 0.0 if scenario.arm_lag == 0.0 else math.exp(-dt / (substeps * scenario.arm_lag))
    history = deque([0.0] * scenario.filter_window, maxlen=scenario.filter_window)
    # Interpolation weights of the sensed substeps along each tick's
    # segment; they depend only on gamma and substeps.
    fade = gamma**substeps
    denom = 1.0 - fade
    weights = [
        (s / substeps) if denom < 1e-15 else (1.0 - gamma**s) / denom
        for s in range(max(1, substeps - scenario.filter_window + 1), substeps + 1)
    ]

    if scenario.law == "force-pid":
        # Per-period gains mapped onto the rate law: theta_dot * dt gives
        # kp*e + kv*de + ki*sum(e) meters of motion per tick.
        rate_gains = GainSet(
            kp=scenario.gains.kp / dt, kv=scenario.gains.kv, ki=scenario.gains.ki / dt**2
        )

    def along_z(value):  # a task vector; the law acts on the normal force only
        return np.array((0.0, 0.0, value, 0.0, 0.0, 0.0))

    approach = along_z(-scenario.approach_speed * dt)
    phase = ContactPhase.APPROACH
    contact_time = None
    integral = e_prev = 0.0
    f_meas = 0.0
    f_prev = 0.0
    z_prev = z_now

    columns = TRACE_COLUMNS + ("f_ref",)
    rows = np.empty((n_ticks + 1, len(columns)))
    raw_force = np.empty(n_ticks + 1)
    raw_force[0] = -_penalty(surface, z_surface - z_now)
    phase_code = np.empty(n_ticks + 1, dtype=int)

    for k in range(n_ticks + 1):
        t = k * dt
        if abs(z_now - z0) > 10.0:
            raise SimulationBlowUpError(f"{scenario.name}: tool ran away at t={t:.4f} s")

        f_rate = (f_meas - f_prev) / dt
        prev_phase = phase
        phase = contact_state_step(
            phase,
            f_meas,
            force_rate=f_rate,
            contact_threshold=scenario.contact_threshold,
            settle_rate=scenario.settle_rate,
        )
        if prev_phase is ContactPhase.APPROACH and phase is not ContactPhase.APPROACH:
            contact_time = t
            # Hand over from the current pose: any approach command the
            # lagging arm has not executed yet must not keep pressing.
            theta_cmd = theta_act

        if phase is ContactPhase.APPROACH:
            f_ref = 0.0
        elif scenario.reference == "constant":
            f_ref = -abs(scenario.force_target)
        else:
            f_ref = sinusoidal_force_reference(
                t - contact_time, -abs(scenario.sine_amplitude), scenario.sine_period
            )

        # One transform of the commanded pose gives the row's z and the Jacobian.
        if k and fade != 0.0:
            rots, origins = frame_floats(chain, theta_cmd)
        rows[k] = (
            t, z_now, origins[-1], (z_now - z_prev) / dt if k else 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0, f_meas, f_ref,
        )
        phase_code[k] = _PHASE_CODES[phase]
        z_prev = z_now
        f_prev = f_meas
        if k == n_ticks:
            break

        jac = np.array(_point_g(rots, origins, chain.dof - 1, origins[-3:]))
        if phase is ContactPhase.APPROACH:
            dtheta = _solve_jacobian(jac, approach)
        else:
            e = f_ref - f_meas
            if scenario.law == "force-pid":
                integral += e
                rate = pure_force_control_step(
                    jac, rate_gains, along_z(e), along_z((e - e_prev) / dt), along_z(integral * dt)
                )
                dtheta = rate * dt
            else:
                dtheta = compliant_control_step(jac, scenario.gains.kp, along_z(e))
            e_prev = e
        dtheta = dtheta.tolist()
        theta_cmd = [c + d for c, d in zip(theta_cmd, dtheta)]

        # Advance the arm and the sensor stream to the next tick. The arm
        # relaxes exponentially toward the command, a straight segment in
        # joint space, so the tool height is interpolated along it. One check
        # covers both poses: theta_act is non-finite whenever theta_cmd is.
        theta_act = [c + (a - c) * fade for c, a in zip(theta_cmd, theta_act)]
        if not all(map(math.isfinite, theta_act)):
            raise SimulationBlowUpError(
                f"{scenario.name}: joint state diverged at t={(k + 1) * dt:.4f} s"
            )
        step = max(map(abs, dtheta))
        if step > MAX_JOINT_STEP:
            raise DegenerateConfigurationError(
                f"{scenario.name}: joint step of {step:.3g} rad at t={t:.4f} s "
                f"passes the bound of {MAX_JOINT_STEP:.4g} rad per tick"
            )
        if fade == 0.0:
            rots, origins = frame_floats(chain, theta_act)
            z_end = origins[-1]
        else:
            z_end = tool_height(chain, theta_act)
        dz = z_end - z_now
        sensed = [-_penalty(surface, z_surface - (z_now + w * dz)) for w in weights]
        raw_force[k + 1] = -_penalty(surface, z_surface - z_end)
        f_meas = _condition_axis(history, sensed, 0.0, scenario.deadband)
        z_now = z_end

    aux = {"raw_force": raw_force, "phase": phase_code}
    return SimulationTrace(columns, rows, scenario, aux)


@dataclass(frozen=True)
class Metrics:
    """Per-run summary figures; fields that do not apply are None."""

    kind: str
    max_position_error: float | None = None
    mean_position_error: float | None = None
    max_velocity_error: float | None = None
    mean_velocity_error: float | None = None
    pvke_percent: tuple | None = None
    mean_abs_speed: tuple | None = None
    mean_abs_torque: tuple | None = None
    impulse: float | None = None
    settling_time: float | None = None
    overshoot_percent: float | None = None
    lag_percent: float | None = None
    notes: tuple = ()

    def __post_init__(self):
        if self.pvke_percent is not None:
            if abs(sum(self.pvke_percent) - 100.0) > 1e-9:
                raise ValueError("kinetic-energy partition must sum to 100%")


def _fma_metrics(trace: SimulationTrace) -> Metrics:
    q_err = np.abs(trace.column("q") - trace.column("q_ref"))
    qd_err = np.abs(trace.column("qd") - trace.column("qd_ref"))
    qm = np.column_stack([trace.column("qM1"), trace.column("qM2")])
    vs = np.column_stack([trace.column("v1"), trace.column("v2")])
    plant = trace.scenario.plant
    pms = (plant.motion_pm, plant.force_pm)
    energies = [0.5 * pm.rotor_inertia * float(np.mean(qm[:, j] ** 2)) for j, pm in enumerate(pms)]
    total = energies[0] + energies[1]
    notes = []
    if total > 0.0:
        share = 100.0 * energies[0] / total
        pvke = (share, 100.0 - share)
    else:
        pvke = None
        notes.append("kinetic-energy partition undefined: rotors never moved")

    tau_m = fma.electromagnetic_torques(plant, vs, qm)

    return Metrics(
        kind="fma",
        max_position_error=float(np.max(q_err)),
        mean_position_error=float(np.mean(q_err)),
        max_velocity_error=float(np.max(qd_err)),
        mean_velocity_error=float(np.mean(qd_err)),
        pvke_percent=pvke,
        mean_abs_speed=(float(np.mean(np.abs(qm[:, 0]))), float(np.mean(np.abs(qm[:, 1])))),
        mean_abs_torque=(float(np.mean(np.abs(tau_m[:, 0]))), float(np.mean(np.abs(tau_m[:, 1])))),
        notes=tuple(notes),
    )


def _contact_row(trace: SimulationTrace) -> int | None:
    """The first row past the approach, or None; the phase never returns to it."""
    touched = np.flatnonzero(trace.aux["phase"] != _PHASE_CODES[ContactPhase.APPROACH])
    return int(touched[0]) if touched.size else None


def _impulse(trace: SimulationTrace) -> tuple[float | None, list]:
    if "raw_force" not in trace.aux:
        return None, ["impulse unavailable: trace carries no raw force record"]
    raw = trace.aux["raw_force"]
    t = trace.t
    deadband = trace.scenario.deadband
    target = abs(trace.scenario.force_target)
    over = np.nonzero(np.abs(raw) > deadband)[0]
    if over.size == 0:
        return 0.0, ["no contact transient: force never exceeded the deadband"]
    start = over[0]
    near = np.nonzero(np.abs(np.abs(raw[start:]) - target) <= 0.1 * target)[0]
    notes = []
    if near.size == 0:
        end = raw.size - 1
        notes.append("transient never reached the regulation target; duration runs to end of trace")
    else:
        end = start + near[0]
    peak = float(np.max(np.abs(raw[start : end + 1])))
    return peak * float(t[end] - t[start]), notes


def _settling_time(trace: SimulationTrace) -> float | None:
    start = _contact_row(trace)
    if trace.scenario.reference != "constant" or start is None:
        return None
    f = trace.column("tau_ext")
    ref = trace.column("f_ref")
    t = trace.t
    tol = 0.02 * abs(trace.scenario.force_target)
    err = np.abs(f - ref)
    worst_after = np.maximum.accumulate(err[::-1])[::-1]
    inside = np.nonzero(worst_after[start:] <= tol)[0]
    if inside.size == 0:
        return None
    return float(t[start + inside[0]] - t[start])


def _overshoot(trace: SimulationTrace) -> float | None:
    scenario = trace.scenario
    if _contact_row(trace) is None:
        return None
    target = abs(scenario.force_target if scenario.reference == "constant" else scenario.sine_amplitude)
    if target == 0.0:
        return None
    peak = float(np.max(np.abs(trace.column("tau_ext"))))
    overshoot = max(0.0, (peak - target) / target * 100.0)
    # Sub-0.5% excursions are measurement ripple, not overshoot.
    return 0.0 if overshoot < 0.5 else overshoot


def _lag_percent(trace: SimulationTrace) -> float | None:
    # Phase delay of the response at the reference fundamental. The
    # rectified sine repeats every half command period, so that is the
    # frequency compared; the result is quoted against the full period.
    start = _contact_row(trace)
    if trace.scenario.reference != "sine" or start is None:
        return None
    t = trace.t
    period = trace.scenario.sine_period
    x = trace.column("f_ref")[start:]
    y = trace.column("tau_ext")[start:]
    if x.size < 8:
        return None
    omega = 4.0 * math.pi / period
    phasor = np.exp(-1j * omega * t[start:])
    zx = np.sum((x - np.mean(x)) * phasor)
    zy = np.sum((y - np.mean(y)) * phasor)
    if abs(zx) == 0.0 or abs(zy) == 0.0:
        return None
    wrapped = (float(np.angle(zx) - np.angle(zy)) + math.pi) % (2.0 * math.pi) - math.pi
    delay = max(0.0, wrapped) / omega
    return 100.0 * delay / period


def _force_metrics(trace: SimulationTrace) -> Metrics:
    impulse, notes = _impulse(trace)
    return Metrics(
        kind="force",
        impulse=impulse,
        settling_time=_settling_time(trace),
        overshoot_percent=_overshoot(trace),
        lag_percent=_lag_percent(trace),
        notes=tuple(notes),
    )


def compute_metrics(trace: SimulationTrace) -> Metrics:
    """Summary figures for one trace; raises on an empty trace."""
    if trace.n_samples == 0:
        raise ValueError("cannot compute metrics of an empty trace")
    if isinstance(trace.scenario, FmaScenario):
        return _fma_metrics(trace)
    if isinstance(trace.scenario, ForceControlScenario):
        return _force_metrics(trace)
    raise ValueError(f"unknown scenario type {type(trace.scenario).__name__}")


@dataclass(frozen=True)
class EnvelopePoint:
    """One attainable operating point of the output shaft."""

    torque: float
    speed: float
    tag: str

    def __post_init__(self):
        if not (math.isfinite(self.torque) and math.isfinite(self.speed)):
            raise ValueError("envelope point must be finite")


def envelope_points(traces) -> list:
    """Pool deduplicated (output torque, output speed) samples across runs."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    points = []
    for trace in traces:
        if "tau_out" not in trace.aux:
            raise ValueError("trace carries no output-torque record")
        pairs = np.column_stack([trace.aux["tau_out"], trace.column("qd")])
        for torque, speed in np.unique(np.round(pairs, 9), axis=0):
            points.append(EnvelopePoint(float(torque), float(speed), trace.scenario.name))
    return points


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Write the header, then one line per sample with each value as ``%.17g``.

    Lines are written as they are formatted, without building the whole text.
    """
    row_format = ",".join(["%.17g"] * len(trace.columns)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(trace.columns) + "\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in trace.data)


def metrics_text(metrics: Metrics) -> str:
    def render(value):
        if value is None:
            return "undefined"
        if isinstance(value, tuple):
            return ", ".join(f"{x:.9g}" for x in value)
        return f"{value:.9g}"

    lines = [f"kind = {metrics.kind}"]
    for f in fields(metrics):
        if f.name not in ("kind", "notes"):
            lines.append(f"{f.name} = {render(getattr(metrics, f.name))}")
    for note in metrics.notes:
        lines.append(f"note = {note}")
    return "\n".join(lines) + "\n"


def write_metrics(metrics: Metrics, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(metrics_text(metrics))
