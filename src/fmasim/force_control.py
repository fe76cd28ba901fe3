"""Position-based force control against compliant surfaces.

Sensed wrenches are conditioned (bias removal, moving average, deadband),
then mapped to small commanded displacements once per control period. Two
families of laws are provided: accommodation laws that emulate a passive
element (inertia/damper, spring) and an explicit PID on force error. A
virtual fixture restricts reaction forces to a plane, the contact
environment is a frictionless penalty spring, and a four-phase state
machine sequences approach, touchdown, constrained contact, and departure.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateConfigurationError, checked_scalar, checked_vector, frozen_array
from .spatial import Wrench, _lapack_solve
from .units import LBF_TO_N

# Contact retention threshold and touchdown settle rate used when a
# scenario does not override them; the scenario and its schema read these.
DEFAULT_CONTACT_THRESHOLD = 0.25 * LBF_TO_N
DEFAULT_SETTLE_RATE = 5.0


@dataclass(frozen=True, eq=False)
class GainSet:
    """Diagonal gains of the force laws, each a (6,) vector, forces first.

    kp, kv and ki feed the PID law, and the compliant law reads kp. Each
    axis acts on its own force error; unused members default to zero.
    """

    kp: np.ndarray | None = None
    kv: np.ndarray | None = None
    ki: np.ndarray | None = None

    def __post_init__(self):
        for name in ("kp", "kv", "ki"):
            value = getattr(self, name)
            gain = frozen_array(np.zeros(6) if value is None else value, name, (6,))
            if np.any(gain < 0.0):
                raise ValueError(f"{name} entries must be nonnegative")
            object.__setattr__(self, name, gain)


@dataclass(frozen=True, eq=False)
class ContactSurface:
    """Planar penalty-spring environment touched through a sensor and tool.

    The normal points into free space; the net interaction stiffness is
    the series combination of environment, sensor, and tool stiffnesses.
    Tool or sensor may be rigid (infinite).
    """

    stiffness: float
    point: np.ndarray = field(default_factory=lambda: np.zeros(3))
    normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    sensor_stiffness: float = math.inf
    tool_stiffness: float = math.inf
    damping: float = 0.0

    def __post_init__(self):
        for name in ("stiffness", "sensor_stiffness", "tool_stiffness"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        checked_scalar(self.damping, "damping", "nonnegative")
        object.__setattr__(self, "point", frozen_array(self.point, "point", (3,)))
        normal = frozen_array(self.normal, "normal", (3,))
        norm = np.linalg.norm(normal)
        if norm < 1.0e-12:
            raise ValueError("surface normal must be nonzero")
        object.__setattr__(self, "normal", frozen_array(normal / norm, "normal", (3,)))

    @cached_property
    def effective(self) -> float:
        return effective_stiffness(self.sensor_stiffness, self.tool_stiffness, self.stiffness)


def window_mean(history):
    """Mean of a window of samples, oldest first.

    The sum starts at 0.0 and adds the samples oldest to newest, one at a
    time, so its bits depend on neither the Python version (3.12 made
    ``sum`` of floats compensated) nor numpy's summation strategy. It
    matches ``sum`` before 3.12, and per column an axis-0
    ``np.add.reduce(..., initial=0.0)``; the leading ``0.0 +`` turns an
    all ``-0.0`` window into ``+0.0``. ``np.mean`` sums pairwise and
    does not match, so do not swap it in.

    A per-tick kernel, it checks no sample: a NaN sample gives NaN, an
    infinite one gives that infinity, and both infinities give NaN. Its
    callers pass only finite samples (``_condition_axis`` refuses the
    others, and the FMA runner checks its state every tick). An empty
    window is refused with a ``ValueError`` raised from the division's
    own error, so a nonempty window pays for no check.
    """
    acc = 0.0
    for sample in history:
        acc = acc + sample
    try:
        return acc / len(history)
    except ZeroDivisionError:
        raise ValueError("history must hold at least one sample, got none") from None


def _condition_axis(history: deque, samples, bias: float, deadband: float) -> float:
    """One conditioner axis: append the bias-removed samples, then the deadbanded window mean.

    ``history`` is the axis's zero-primed window, a deque with ``maxlen``
    set, and keeps the samples. The value is zeroed when its magnitude is
    strictly below ``deadband``; 0.0 lets every value through. A
    non-finite sample is refused with a ``ValueError`` before any sample
    enters the window.
    """
    if not all(map(math.isfinite, samples)):
        raise ValueError(f"wrench samples must be finite, got {samples}")
    history.extend([x - bias for x in samples])
    value = window_mean(history)
    return 0.0 if abs(value) < deadband else value


class SignalConditioner:
    """Stateful bias removal, moving-average filter, and force deadband.

    The average is taken over a fixed-length window primed with zeros, so
    a step input ramps linearly and reaches its full value only once the
    window has filled. The deadband zeroes individual force components
    strictly below the threshold; moments pass through. Each ``step``
    runs ``_condition_axis`` once per axis, each on its own window.
    """

    def __init__(self, bias: Wrench | None = None, window: int = 16, deadband: float = 0.0):
        checked_scalar(window, "window", "positive")
        if window % 1:
            raise ValueError(f"window must be a whole number of samples, got {window}")
        checked_scalar(deadband, "deadband", "nonnegative")
        self.bias = bias if bias is not None else Wrench(np.zeros(3), np.zeros(3))
        self.window = int(window)
        self.deadband = float(deadband)
        self._axes = tuple(zip(self.bias.as_array().tolist(), (self.deadband,) * 3 + (0.0,) * 3))
        self.reset()

    def reset(self):
        self._history = [deque([0.0] * self.window, maxlen=self.window) for _ in range(6)]

    def step(self, raw: Wrench) -> Wrench:
        out = [
            _condition_axis(history, (x,), bias, deadband)
            for history, x, (bias, deadband) in zip(self._history, raw.as_array().tolist(), self._axes)
        ]
        return Wrench(out[:3], out[3:])


class ContactPhase(Enum):
    APPROACH = "approach"
    TRANSITION = "transition"
    CONSTRAINED_CONTACT = "constrained_contact"
    DEPARTURE = "departure"


def contact_state_step(
    phase: ContactPhase,
    force: float,
    force_rate: float = 0.0,
    depart_requested: bool = False,
    contact_threshold: float = DEFAULT_CONTACT_THRESHOLD,
    settle_rate: float = DEFAULT_SETTLE_RATE,
) -> ContactPhase:
    """Advance the contact-task phase from the sensed normal force.

    Touchdown is declared when |force| exceeds the contact threshold; the
    transition settles into constrained contact once the force rate drops
    below the settle rate; departure is commanded and completes when the
    force falls back under the threshold. A NaN in any compare reads as
    "no change" and would hold the phase, and an infinite force or force
    rate is no measurement, so a non-finite ``force`` or ``force_rate`` and
    a NaN threshold or settle rate are refused.
    """
    if not math.isfinite(force):
        raise ValueError(f"force must be finite, got {force}")
    if not math.isfinite(force_rate):
        raise ValueError(f"force_rate must be finite, got {force_rate}")
    if math.isnan(contact_threshold):
        raise ValueError("contact_threshold must not be NaN")
    if math.isnan(settle_rate):
        raise ValueError("settle_rate must not be NaN")
    magnitude = abs(force)
    if phase is ContactPhase.APPROACH:
        return ContactPhase.TRANSITION if magnitude > contact_threshold else phase
    if phase is ContactPhase.TRANSITION:
        return ContactPhase.CONSTRAINED_CONTACT if abs(force_rate) < settle_rate else phase
    if phase is ContactPhase.CONSTRAINED_CONTACT:
        return ContactPhase.DEPARTURE if depart_requested else phase
    if phase is ContactPhase.DEPARTURE:
        return ContactPhase.APPROACH if magnitude < contact_threshold else phase
    raise ValueError(f"unknown contact phase {phase!r}")


@dataclass(frozen=True, eq=False)
class VirtualFixture:
    """Planar software constraint: spanning directions and their projector."""

    a: np.ndarray
    omega: np.ndarray


def fixture_projector(p1, p2, p3) -> VirtualFixture:
    """Build the force projector of the plane through three points.

    The projector is the least-squares one onto span{P2-P1, P3-P1};
    Omega = A (A^T A)^-1 A^T, insensitive to the choice of in-plane basis.
    """
    p1, p2, p3 = (checked_vector(p, f"p{i}", 3) for i, p in enumerate((p1, p2, p3), 1))
    u1 = p2 - p1
    u2 = p3 - p1
    n1, n2 = np.linalg.norm(u1), np.linalg.norm(u2)
    if n1 < 1.0e-12 or n2 < 1.0e-12:
        raise ValueError("fixture points must be distinct")
    a = np.column_stack([u1 / n1, u2 / n2])
    gram = a.T @ a
    if abs(np.linalg.det(gram)) < 1.0e-12:
        raise ValueError("fixture points are collinear")
    omega = a @ np.linalg.solve(gram, a.T)
    a.flags.writeable = False
    omega.flags.writeable = False
    return VirtualFixture(a, omega)


def project_force(fixture: VirtualFixture, force) -> np.ndarray:
    """Component of a force lying in the fixture plane; a force that is not a finite (3,) vector is refused."""
    return fixture.omega @ checked_vector(force, "force", 3)


def virtual_inertia_damper_step(k, w_b: Wrench) -> np.ndarray:
    """Accommodative displacement for one control period, Δu = K w, K a (6,) diagonal.

    Applying the sensed wrench directly yields mass-with-damping behavior:
    a constant force produces a constant drift velocity K F / Δt. Driven
    instead by the deviation from the registered equilibrium wrench, the
    same law is a spring: releasing the disturbance returns the commanded
    pose to the equilibrium point. A gain ``k`` that is not a finite (6,)
    vector is refused.
    """
    return checked_vector(k, "k", 6) * w_b.as_array()


def _solve_jacobian(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return _lapack_solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfigurationError("jacobian is singular") from exc


def _force_axis(kp: float, e: float, kv: float = 0.0, de: float = -0.0, ki: float = 0.0, ie: float = -0.0) -> float:
    """One axis of the diagonal force laws in floats: ``kp*e + kv*de + ki*ie``.

    The sum runs in numpy's elementwise order for ``kp*e + kv*de + ki*ie``
    on (6,) vectors, so it gives the same bits. The defaults make the two
    last terms -0.0, and adding -0.0 changes no float, signed zeros
    included, so ``_force_axis(kp, e)`` is ``kp*e``: the compliant law. A
    per-tick kernel, it checks nothing; NaN and inf follow float arithmetic.
    """
    return kp * e + kv * de + ki * ie


def pure_force_control_step(
    g, gains: GainSet, e_f: np.ndarray, e_f_dot: np.ndarray, e_f_int: np.ndarray
) -> np.ndarray:
    """Joint rates from PID action on force error, θ̇ = G⁻¹(Kp e + Kv ė + Ki ∫e), gains diagonal.

    A ``g`` that is not a finite 6x6 matrix, or an error that is not a
    finite (6,) vector, is refused by name.
    """
    g = frozen_array(g, "g", (6, 6))
    errors = {"e_f": e_f, "e_f_dot": e_f_dot, "e_f_int": e_f_int}
    e, de, ie = (checked_vector(x, name, 6).tolist() for name, x in errors.items())
    kp, kv, ki = gains.kp.tolist(), gains.kv.tolist(), gains.ki.tolist()
    return _solve_jacobian(g, np.array(list(map(_force_axis, kp, e, kv, de, ki, ie))))


def compliant_control_step(g, kp, e_f: np.ndarray) -> np.ndarray:
    """Differential joint motion per control period, Δθ = G⁻¹ Kp e, Kp a (6,) diagonal.

    A ``g`` that is not a finite 6x6 matrix, or a ``kp`` or ``e_f`` that
    is not a finite (6,) vector, is refused by name.
    """
    g = frozen_array(g, "g", (6, 6))
    kp, e = checked_vector(kp, "kp", 6).tolist(), checked_vector(e_f, "e_f", 6).tolist()
    return _solve_jacobian(g, np.array(list(map(_force_axis, kp, e))))


def effective_stiffness(k_sensor: float, k_tool: float, k_env: float) -> float:
    """Series stiffness of sensor, tool, and environment springs.

    Rigid (infinite) members contribute no compliance.
    """
    total = 0.0
    for name, k in (("k_sensor", k_sensor), ("k_tool", k_tool), ("k_env", k_env)):
        if not k > 0.0:
            raise ValueError(f"{name} must be positive, got {k!r}")
        if math.isfinite(k):
            total += 1.0 / k
    return math.inf if total == 0.0 else 1.0 / total


def _penalty(surface: ContactSurface, depth: float, speed: float | None = None) -> float:
    """Penalty-law normal force magnitude at a penetration depth and normal speed.

    Zero unless the depth is positive; then the effective stiffness times
    the depth, less the damping times the speed when one is given, and
    never tensile. With the normal along +z the depth is
    ``point_z - p_z`` exactly. A per-tick kernel, it checks nothing: a
    NaN depth gives NaN, a depth of inf gives inf and one of -inf 0.0;
    with damping, a NaN speed in contact gives NaN. ``contact_wrench``
    refuses a non-finite result, and the force runner checks the joint
    state every tick.
    """
    if depth <= 0.0:
        return 0.0
    magnitude = surface.effective * depth
    if speed is not None and surface.damping > 0.0:
        magnitude -= surface.damping * speed
    return 0.0 if magnitude < 0.0 else magnitude


def contact_wrench(surface: ContactSurface, ee_position, ee_velocity=None) -> Wrench:
    """Frictionless penalty-contact wrench on the end effector.

    Zero above the plane; while penetrating, the force is proportional to
    the penetration depth (less an optional viscous term on the normal
    velocity), pushes the tool back out along the surface normal, and is
    never tensile. Depth and normal speed are dot products with the
    normal in floats, summed in index order from 0.0. A position or
    velocity that is not a finite (3,) vector is refused wherever the
    point is, and so is an infinite force, as from a rigid surface pressed.
    """
    n0, n1, n2 = surface.normal.tolist()
    q0, q1, q2 = surface.point.tolist()
    x, y, z = checked_vector(ee_position, "position", 3).tolist()
    speed = None
    if ee_velocity is not None:
        a, b, c = checked_vector(ee_velocity, "velocity", 3).tolist()
        speed = 0.0 + a * n0 + b * n1 + c * n2
    depth = 0.0 + (q0 - x) * n0 + (q1 - y) * n1 + (q2 - z) * n2
    magnitude = _penalty(surface, depth, speed)
    if not math.isfinite(magnitude):
        raise ValueError(f"force must be finite, got {magnitude} at depth {depth}")
    force = np.zeros(3) if magnitude == 0.0 else magnitude * surface.normal
    return Wrench(force, np.zeros(3))


def natural_frequency(k_eff: float, mass: float) -> float:
    """Undamped contact-interface natural frequency in Hz."""
    checked_scalar(k_eff, "k_eff", "positive")
    checked_scalar(mass, "mass", "positive")
    return math.sqrt(k_eff / mass) / (2.0 * math.pi)
