"""Scenario execution for the dual-actuator rig and the contact tasks.

Reference generators, the burr-disturbance model, a classic fixed-step
RK4 integrator, runners of the two ``scenario`` classes that produce
uniformly sampled traces, the metrics extracted from those traces, and
performance-envelope points. Runs are deterministic: all randomness flows from one seeded
PCG64 generator per run, and repeated runs of the same scenario yield
bit-identical traces.
"""
from __future__ import annotations

import math
import operator
import struct
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from . import fma
from .errors import DegenerateConfigurationError, SimulationBlowUpError
from .force_control import (
    ContactPhase,
    _condition_axis,
    _force_axis,
    _penalty,
    _solve_jacobian,
    contact_state_step,
    window_mean,
)
from .kinematics import _point_g, frame_floats, tool_height
from .scenario import DEFAULT_BURR_BANDS, TRACE_COLUMNS, FmaScenario, ForceControlScenario

# The largest joint step a force run may command in one control tick. A
# resolved-rate step is a move along the Jacobian, which holds only near
# the pose it was taken at; a quarter turn in one tick comes from solving
# a near-singular Jacobian, not from a force law. The built-in runs step
# at most 0.0046 rad.
MAX_JOINT_STEP = math.pi / 2.0

# How far a force tick's step may land from where its Jacobian put it. The
# step predicts the commanded tool height's change as G's row 2 dotted with
# the joint step; near a singular pose a step well within MAX_JOINT_STEP
# can move that height tens of times more than predicted. The bound is a
# tenth of the predicted change plus a floor for a zero step. The built-in
# runs land within 1.1e-3 of their predictions, and within 4e-16 m where
# the predicted change is under 1e-8 m.
MAX_STEP_GAP, STEP_GAP_FLOOR = 0.1, 1.0e-9

# The largest tracking error |q - q_ref| an FMA run may reach. Half a turn
# of the output link is no tracking at all. A loop made unstable by its
# held voltages (a control period near or past 2/kv) passes this bound
# seconds before its state overflows, and would otherwise exit 0 with
# nonsense metrics. The built-in stays within 0.0142 rad, and its
# envelope sweep at peak-speed multipliers up to 64 within 0.181 rad.
MAX_TRACKING_ERROR = math.pi


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
    the same to the bit. Like ``rk4_step`` it raises
    ``SimulationBlowUpError`` on a non-finite increment, which a NaN
    state, drive or disturbance gives. An infinite one may instead bring
    a stage to ``math.sin`` of an infinite angle, which raises
    ``ValueError`` ("math domain error"). The FMA runner checks its
    state every tick.
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


@np.errstate(over="ignore", invalid="ignore")
def trapezoidal_profile(t, total_time: float, omega_peak: float):
    """Position, speed and acceleration of a ramp/plateau/ramp speed profile.

    The ramps last a quarter of ``total_time`` at each end; the position
    is integrated from zero. ``t`` is a time or an array of times: a time
    gives three numpy floats, an array three arrays of its shape. Each
    segment's expression is evaluated on that segment's times only, with
    the scalar operations in their order, so every element has the bits
    of the call on that element alone. A peak speed large enough to
    overflow gives inf or nan, as Python floats do, and no warning.
    """
    if not 0.0 < total_time < math.inf:
        raise ValueError(f"total_time must be positive and finite, got {total_time}")
    times = np.asarray(t, dtype=float)
    outside = ~((0.0 <= times) & (times <= total_time))
    if outside.any():
        raise ValueError(f"t={times[outside].flat[0].item()} outside [0, {total_time}]")
    if not -math.inf < omega_peak < math.inf:
        raise ValueError(f"omega_peak must be finite, got {omega_peak}")
    ramp = total_time / 4.0
    accel = omega_peak / ramp
    q, qd, qdd = np.empty_like(times), np.empty_like(times), np.empty_like(times)
    rise, fall = times <= ramp, times >= 3.0 * ramp
    plateau = ~(rise | fall)
    t = times[rise]
    q[rise], qd[rise], qdd[rise] = 0.5 * accel * t * t, omega_peak * t / ramp, accel
    t = times[plateau]
    q[plateau], qd[plateau], qdd[plateau] = omega_peak * ramp / 2.0 + omega_peak * (t - ramp), omega_peak, 0.0
    t = times[fall]
    tau = t - 3.0 * ramp
    q[fall] = omega_peak * ramp / 2.0 + 2.0 * omega_peak * ramp + omega_peak * tau - 0.5 * accel * tau * tau
    qd[fall], qdd[fall] = omega_peak * (total_time - t) / ramp, -accel
    return q[()], qd[()], qdd[()]


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
    """Disturbance torque: banded viscous drag plus Gaussian sensor noise.

    A non-finite ``q``, ``qd``, band edge or gain, or ``noise_sigma`` is
    refused with a ``ValueError`` that names it: a NaN angle or edge would
    read as outside every band, and a NaN sigma as no noise.
    """
    for name, value in (("q", q), ("qd", qd), ("noise_sigma", noise_sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not all(math.isfinite(x) for band in bands for x in band):
        raise ValueError(f"bands must be finite, got {bands}")
    tau = _banded_drag(q, qd, bands)
    if noise_sigma > 0.0:
        tau += rng.normal(0.0, noise_sigma)
    return tau


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
        finite = np.isfinite(t)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"time must be finite, got {t[row].item()} in row {row}")
        if data.shape[0] >= 2:
            with np.errstate(over="ignore"):
                dt = np.diff(t)
            if not np.all(dt > 0.0):
                raise ValueError("time must be strictly increasing")
            if not np.isfinite(dt).all():
                raise ValueError(f"sample interval must be finite, got {dt.max().item()}")
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

    # The (plant, controller) terms per weight, indexed by whether the
    # disturbed weight is active.
    weights = (policy.quiet, policy.disturbed) if policy else (None,)
    terms = [(fma.reduced_terms(plant, w), fma.reduced_terms(ctrl, w)) for w in weights]

    tau_history = deque([0.0] * scenario.tau_filter_window, maxlen=scenario.tau_filter_window)

    dt = scenario.timestep
    tick = scenario.control_period
    substeps = scenario.substeps
    n_ticks = round(scenario.duration / tick)

    # The reference depends on the tick alone, so it is formed for the
    # whole run at once. The last tick can pass the duration (0.3 s in
    # 0.1 s ticks), where the sweep holds its end.
    times = np.arange(n_ticks + 1) * tick
    if scenario.reference == "trapezoid":
        total = scenario.duration
        q_refs, qd_refs, qdd_refs = trapezoidal_profile(np.minimum(times, total), total, scenario.peak_speed)
        with np.errstate(over="ignore"):  # as q0 + q in floats: a sum past the floats is inf
            q_refs = scenario.q0 + q_refs
    else:
        q_refs, qd_refs, qdd_refs = np.full_like(times, scenario.q0), np.zeros_like(times), np.zeros_like(times)

    burr = scenario.disturbance
    noise = None
    if burr is not None and burr.noise_sigma > 0.0:
        noise = memoryview(np.random.default_rng(scenario.seed).normal(0.0, burr.noise_sigma, n_ticks + 1))

    # What depends on the state, a row per tick: q, qd, v1, v2, tau_ext,
    # the output torque, the filtered disturbance and the disturbed flag.
    # Each row is one packed write of 8 native doubles, the bytes a numpy
    # row assignment stores; the reference and the noise are read through
    # memoryviews, which give Python floats without a list per column.
    states = np.empty((n_ticks + 1, 8))
    store_row, state_bytes = struct.Struct("8d").pack_into, memoryview(states).cast("B")

    # What the run holds fixed, bound once.
    kp, kv = scenario.kp, scenario.kv
    bands = None if burr is None else burr.bands
    friction, weight_of, sin = fma.stribeck_friction, fma.weighting, math.sin

    q, qd = scenario.q0, scenario.qd0
    reference = zip(memoryview(q_refs), memoryview(qd_refs), memoryview(qdd_refs))
    for k, (q_ref, qd_ref, qdd_ref) in enumerate(reference):
        t = k * tick
        # A NaN state fails the comparisons too.
        if not (-1e9 <= q <= 1e9 and -1e9 <= qd <= 1e9):
            raise SimulationBlowUpError(f"{scenario.name}: state diverged at t={t:.4f} s")

        tau_ext = 0.0 if bands is None else _banded_drag(q, qd, bands)
        if noise is not None:
            tau_ext += noise[k]
        tau_history.append(tau_ext)
        filt = window_mean(tau_history)
        disturbed = policy is not None and weight_of(policy, filt) is policy.disturbed
        pt, ct = terms[disturbed]

        error = abs(q - q_ref)
        if error > MAX_TRACKING_ERROR:
            raise SimulationBlowUpError(
                f"{scenario.name}: tracking error of {error:.3g} rad at t={t:.4f} s "
                f"passes the bound of {MAX_TRACKING_ERROR:.4g} rad"
            )
        sin_q, fric = sin(q), friction(qd)
        v = ct.voltages(q, qd, sin_q, fric, q_ref, qd_ref, qdd_ref, kp, kv)
        drive = pt.drive(v)
        qdd_now = pt.acceleration(qd, sin_q, fric, drive, tau_ext)
        tau_out = pt.output_torque(sin_q, fric, qdd_now, tau_ext)
        store_row(state_bytes, 64 * k, q, qd, *v, tau_ext, tau_out, filt, disturbed)

        if k == n_ticks:
            break
        # The first substep starts from the tick's state, whose
        # acceleration is its first RK4 stage.
        q, qd = _rk4_reduced(pt, drive, tau_ext, q, qd, t, dt, qdd_now)
        for s in range(1, substeps):
            q, qd = _rk4_reduced(pt, drive, tau_ext, q, qd, t + s * dt, dt)

    q, qd, v1, v2, tau_ext, tau_out, tau_filtered, disturbed = states.T
    disturbed = disturbed != 0.0
    # qM1 and qM2 are the active weight's g+ times qd, elementwise.
    g_plus = np.array([pt.g_plus for pt, _ in terms])[disturbed.astype(int)]
    rows = np.column_stack((times, q, q_refs, qd, qd_refs, g_plus[:, 0] * qd, g_plus[:, 1] * qd, v1, v2, tau_ext))
    aux = {"tau_out": tau_out.copy(), "tau_filtered": tau_filtered.copy(), "disturbed": disturbed}
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

    # The force laws act on the normal force only, so the scenario holds
    # one gain of each kind, along the normal (+z), and the runner forms
    # that axis alone through the laws' float core. The library laws with
    # these gains on z and zero gains off it give +0.0 on every other axis.
    pid = scenario.law == "force-pid"
    if pid:
        # Per-period gains mapped onto the rate law: theta_dot * dt gives
        # kp*e + kv*de + ki*sum(e) meters of motion per tick.
        kp_z, kv_z, ki_z = scenario.kp / dt, scenario.kv, scenario.ki / dt**2
    else:
        kp_z = scenario.kp

    # Written in place every tick: G's columns as the rows of jac_t, so the
    # solve reads G as jac_t.T; the task vector's z entry alone; a trace
    # row's 6 nonzero cells, its 5 zero columns staying +0.0.
    jac_t, task = np.empty((6, 6)), np.zeros(6)
    store_jac, jac_bytes = struct.Struct("36d").pack_into, memoryview(jac_t).cast("B")
    columns = TRACE_COLUMNS + ("f_ref",)
    rows = np.zeros((n_ticks + 1, len(columns)))
    store_row, row_bytes = struct.Struct("4d40x2d").pack_into, memoryview(rows).cast("B")
    approach = -scenario.approach_speed * dt
    threshold, settle_rate, last = scenario.contact_threshold, scenario.settle_rate, chain.dof - 1

    phase = ContactPhase.APPROACH
    contact_time = None
    integral = e_prev = 0.0
    f_meas = 0.0
    f_prev = 0.0
    z_prev = z_now
    raw_force = [-_penalty(surface, z_surface - z_now)]
    phase_code = []

    for k in range(n_ticks + 1):
        t = k * dt
        if abs(z_now - z0) > 10.0:
            raise SimulationBlowUpError(f"{scenario.name}: tool ran away at t={t:.4f} s")

        f_rate = (f_meas - f_prev) / dt
        prev_phase = phase
        phase = contact_state_step(
            phase, f_meas, force_rate=f_rate, contact_threshold=threshold, settle_rate=settle_rate
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
        z_cmd = origins[-1]
        # The last tick's step must land where its Jacobian put it. The
        # handover tick, which resets the command to the actual pose and
        # sets contact_time to t, has no such step to check.
        if k and contact_time != t:
            realized = z_cmd - z_cmd_prev
            if not abs(realized - predicted) <= MAX_STEP_GAP * abs(predicted) + STEP_GAP_FLOOR:
                raise DegenerateConfigurationError(
                    f"{scenario.name}: the joint step at t={(k - 1) * dt:.4f} s moved the commanded "
                    f"tool height {realized:.3g} m where its Jacobian predicted {predicted:.3g} m"
                )
        store_row(row_bytes, 88 * k, t, z_now, z_cmd, (z_now - z_prev) / dt if k else 0.0, f_meas, f_ref)
        phase_code.append(_PHASE_CODES[phase])
        z_prev, z_cmd_prev = z_now, z_cmd
        f_prev = f_meas
        if k == n_ticks:
            break

        jac_cols = _point_g(rots, origins, last, origins[-3:])
        store_jac(jac_bytes, 0, *jac_cols)
        if phase is ContactPhase.APPROACH:
            task[2] = approach
        elif pid:
            e = f_ref - f_meas
            integral += e
            task[2] = _force_axis(kp_z, e, kv_z, (e - e_prev) / dt, ki_z, integral * dt)
            e_prev = e
        else:
            task[2] = _force_axis(kp_z, f_ref - f_meas)
        dtheta = _solve_jacobian(jac_t.T, task).tolist()
        if pid and phase is not ContactPhase.APPROACH:  # the PID law gives joint rates
            dtheta = [d * dt for d in dtheta]
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
        # The change of the commanded tool height that the step predicts:
        # G's row 2 dotted with it, summed exactly, checked at the next row.
        predicted = math.fsum(map(operator.mul, jac_cols[2::6], dtheta))
        if fade == 0.0:
            rots, origins = frame_floats(chain, theta_act)
            z_end = origins[-1]
        else:
            z_end = tool_height(chain, theta_act)
        dz = z_end - z_now
        sensed = [-_penalty(surface, z_surface - (z_now + w * dz)) for w in weights]
        raw_force.append(-_penalty(surface, z_surface - z_end))
        f_meas = _condition_axis(history, sensed, 0.0, scenario.deadband)
        z_now = z_end

    aux = {"raw_force": np.array(raw_force), "phase": np.array(phase_code)}
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
            if not abs(sum(self.pvke_percent) - 100.0) <= 1e-9:
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


# Rows formatted together in ``write_trace_csv``. A small block spends
# its time on the fixed cost of ``_csv_block``'s numpy calls, and the
# whole trace at once would hold every cell's intermediates at once. On
# the deburr trace (2-core VM, best of 15) 128 and 256 rows took 12-15
# ms, 64 rows 21 ms and 512 or 1024 rows 18-20 ms.
_CSV_BLOCK_ROWS = 256

# ``_csv_block`` lays each cell out in a slot of _CSV_SLOT bytes, zero
# where it writes nothing: byte 0 the sign, 1-5 a fixed-point lead such
# as "0.000", digit j of 17 at byte 6 + 2j with a slot for the point at
# 7 + 2j, 40-43 an exponent such as "e-07", and the last byte the comma
# or newline. 5**27 < 2**63, so 10**p for p up to 27 splits exactly into
# 5**p times a power of two.
_CSV_SLOT = 48
_POW5 = np.array([5**p for p in range(28)], dtype=np.uint64)


def _csv_tables():
    """``_csv_block``'s tables, each built from bytes and read as words.

    Indexed by a 4-digit group g: its digits at every other byte, and the
    significant-digit count of a 17-digit N whose last nonzero group is
    group 1-4 with value g. Indexed by (k, ndig, sign), where k is E + 11
    for a decimal exponent E from -11 to 16, 28 for a zero and 29 for a
    cell ``%`` formats: which digit bytes ``%.17g`` keeps, and the bytes
    it adds around them (sign, lead, point, exponent, comma). Each is
    built by broadcasting arrays of ten: built from 10,000-row int64
    arrays they took twice as long and left about 0.4 MiB more RSS.
    """
    ten = np.arange(10, dtype=np.uint8)
    axes = [ten.reshape([10 if i == j else 1 for i in range(4)]) for j in range(4)]
    spaced = np.zeros((10, 10, 10, 10, 8), np.uint8)
    last = np.zeros((10, 10, 10, 10), np.int8)
    for j, d in enumerate(axes):
        spaced[..., 2 * j] = d + ord("0")
        last = np.maximum(last, np.int8(j + 1) * (d > 0))
    ndig = np.where(last > 0, last + np.arange(1, 17, 4, dtype=np.int8).reshape(4, 1, 1, 1, 1), np.int8(1))
    first = np.zeros((10, 8), np.uint8)
    first[:, 6] = ten + ord("0")

    keep = np.zeros((30, 18, 2, _CSV_SLOT), np.uint8)
    add = np.zeros((30, 18, 2, _CSV_SLOT), np.uint8)
    add[:, :, 1, 0] = ord("-")
    add[..., -1] = ord(",")
    add[28, :, :, 1] = ord("0")
    digit, count = np.arange(17), np.arange(18)
    for k, exp in enumerate(range(-11, 17)):
        if exp >= 0:  # 123.45: E + 1 whole digits, then the point
            whole, point = exp + 1, 7 + 2 * exp
        elif exp >= -4:  # 0.0012345
            lead = b"0." + b"0" * (-1 - exp)
            add[k, :, :, 1 : 1 + len(lead)] = np.frombuffer(lead, np.uint8)
            whole, point = 0, None
        else:  # 1.2345e-07
            add[k, :, :, 40:44] = np.frombuffer(b"e-%02d" % -exp, np.uint8)
            whole, point = 1, 7
        shown = np.maximum(count, whole)
        keep[k, :, :, 6:40:2] = np.where(digit < shown[:, None], 0xFF, 0)[:, None, :]
        if point is not None:
            add[k, shown > whole, :, point] = ord(".")
    words = (-1, _CSV_SLOT // 8)
    return (
        first.view(np.uint64).ravel(),
        spaced.view(np.uint64).ravel(),
        ndig.reshape(4, 10000),
        keep.view(np.uint64).reshape(words),
        add.view(np.uint64).reshape(words),
    )


_FIRST_DIGIT, _DIGIT_GROUP, _GROUP_NDIG, _KEEP, _ADD = _csv_tables()


def _csv_scaled(m, e, exp):
    """floor(m * 2**e * 10**(16 - exp)) in uint64, and whether rounding
    that product half to even goes up.

    The product m * 5**p is formed exactly in two uint64 halves and
    shifted by e + p, which lies in [-63, 5] for 1e-11 <= |x| < 1e17
    and an ``exp`` within one of x's decimal exponent.
    """
    p = 16 - exp
    f = _POW5.take(p, mode="clip")
    m0, m1 = m & 0xFFFFFFFF, m >> 32
    f0, f1 = f & 0xFFFFFFFF, f >> 32
    mid = m0 * f1 + m1 * f0
    lo = m0 * f0
    low = lo + (mid << 32)
    high = m1 * f1 + (mid >> 32) + (low < lo)
    s = e + p
    right = np.maximum(-s, 0).astype(np.uint64)
    gap = 63 - right
    n = (((high << 1) << gap) | (low >> right)) << np.maximum(s, 0).astype(np.uint64)
    frac = (low << 1) << gap  # the bits shifted out, at the top
    return n, (frac > 2**63) | ((frac == 2**63) & (n & 1).astype(bool))


def _csv_block(block: np.ndarray) -> bytes:
    """A block of trace rows as CSV lines, each cell exactly ``%.17g``.

    A cell with 1e-11 <= |x| < 1e17 is formatted in integers: its 17
    digits N = round(x * 10**(16 - E)) come from ``_csv_scaled``; E is
    log10's estimate, corrected by one where N falls outside [1e16, 1e17).
    So no libm or SIMD target can move a byte. Zeros are written directly;
    any other cell, and one whose corrected E leaves -11..16, goes through
    ``%``.
    """
    x = block.ravel()
    a = np.abs(x)
    exact = (a >= 1e-11) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    bits = a.view(np.uint64)
    m = (bits & 0xFFFFFFFFFFFFF) | 0x10000000000000
    e = (bits >> 52).astype(np.int64) - 1075
    exp = np.floor(np.log10(a)).astype(np.int64)
    n, up = _csv_scaled(m, e, exp)
    off = np.flatnonzero(n - 10**16 >= 9 * 10**16)
    if off.size:
        exp[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], up[off] = _csv_scaled(m[off], e[off], exp[off])
        exact[off] &= n[off] - 10**16 < 9 * 10**16
    n += up
    carry = np.flatnonzero(n == 10**17)
    n[carry] = 10**16
    exp[carry] += 1
    k = exp + 11
    exact &= k.view(np.uint64) < 28  # unsigned: a negative k is out too
    k = np.where(exact, k, 29 - (x == 0.0))

    # N's digits: the first, then four groups of four, split off in place
    # (n - q * d is cheaper than numpy's uint64 %).
    first = n // 10**16
    n -= first * 10**16
    upper = n // 10**8
    n -= upper * 10**8
    g1, g3 = upper // 10**4, n // 10**4
    upper -= g1 * 10**4
    n -= g3 * 10**4
    groups = (g1, upper, g3, n)
    ndig = np.maximum.reduce([table.take(g) for table, g in zip(_GROUP_NDIG, groups)])
    row = (k * 18 + ndig) * 2 + np.signbit(x)
    words = np.empty((len(x), _CSV_SLOT // 8), np.uint64)
    words[:, 0] = _FIRST_DIGIT.take(first, mode="clip")  # a cell left to % may hold any n
    for i, g in enumerate(groups, 1):
        words[:, i] = _DIGIT_GROUP.take(g)
    words &= _KEEP.take(row, axis=0)  # also clears the unset last word
    words |= _ADD.take(row, axis=0)
    cells = words.view(np.uint8)
    for i in np.flatnonzero(k == 29):
        text = b"%.17g" % x[i]
        cells[i, :-1] = 0
        cells[i, : len(text)] = np.frombuffer(text, np.uint8)
    cells.reshape(len(block), -1, _CSV_SLOT)[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Write the header, then one line per sample with each value as ``%.17g``.

    Each block of ``_CSV_BLOCK_ROWS`` rows is formatted by ``_csv_block``
    and written with one ``write``, so the whole text is never built.
    Lines end in ``\\n`` on every platform.
    """
    data = trace.data
    with open(path, "wb") as fh:
        fh.write((",".join(trace.columns) + "\n").encode("ascii"))
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            fh.write(_csv_block(data[start : start + _CSV_BLOCK_ROWS]))


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
