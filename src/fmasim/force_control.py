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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateConfigurationError
from .spatial import Wrench
from .units import LBF_TO_N

# Contact retention threshold and touchdown settle rate used when a
# scenario does not override them.
DEFAULT_CONTACT_THRESHOLD = 0.45 * LBF_TO_N
DEFAULT_SETTLE_RATE = 5.0


def _diagonal_gain(matrix, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.shape != (6, 6):
        raise ValueError(f"{name} must be 6x6")
    if np.any(m != np.diag(np.diagonal(m))):
        raise ValueError(f"{name} must be diagonal")
    if np.any(np.diagonal(m) < 0.0) or not np.all(np.isfinite(m)):
        raise ValueError(f"{name} entries must be finite and nonnegative")
    m = m.copy()
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class GainSet:
    """Diagonal gain matrices for the force-control laws.

    ``k`` is the accommodation gain (m/N per control period); kp, kv, ki
    feed the PID law. Unused members default to zero.
    """

    k: np.ndarray | None = None
    kp: np.ndarray | None = None
    kv: np.ndarray | None = None
    ki: np.ndarray | None = None

    def __post_init__(self):
        for name in ("k", "kp", "kv", "ki"):
            value = getattr(self, name)
            if value is None:
                value = np.zeros((6, 6))
            object.__setattr__(self, name, _diagonal_gain(value, name))


def diagonal_gain(fx, fy, fz, mx=0.0, my=0.0, mz=0.0) -> np.ndarray:
    """6x6 diagonal gain from per-axis entries, forces first."""
    return np.diag([fx, fy, fz, mx, my, mz]).astype(float)


@dataclass(frozen=True)
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
                raise ValueError(f"{name} must be positive")
        if self.damping < 0.0:
            raise ValueError("damping must be nonnegative")
        point = np.asarray(self.point, dtype=float).reshape(3).copy()
        normal = np.asarray(self.normal, dtype=float).reshape(3).copy()
        norm = np.linalg.norm(normal)
        if norm < 1.0e-12:
            raise ValueError("surface normal must be nonzero")
        normal /= norm
        point.flags.writeable = False
        normal.flags.writeable = False
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "normal", normal)

    @cached_property
    def effective(self) -> float:
        return effective_stiffness(self.sensor_stiffness, self.tool_stiffness, self.stiffness)


def window_mean(history):
    """Mean of a window of samples along its first axis.

    The sum starts at 0.0 and adds the samples oldest to newest, one at a
    time, so its bits depend on neither the Python version (3.12 made
    ``sum`` of floats compensated) nor numpy's summation strategy. It
    matches ``sum`` before 3.12. A two-dimensional array, such as the
    conditioner's (window, 6) block, is summed by one axis-0
    ``np.add.reduce``, which adds whole rows in order; ``initial=0.0``
    keeps the leading ``0.0 +``, which turns an all ``-0.0`` column into
    ``+0.0``. A one-dimensional ``np.mean`` sums pairwise and does not
    match, so do not swap it in.
    """
    if isinstance(history, np.ndarray) and history.ndim == 2:
        return np.add.reduce(history, axis=0, initial=0.0) / len(history)
    acc = 0.0
    for sample in history:
        acc = acc + sample
    return acc / len(history)


class SignalConditioner:
    """Stateful bias removal, moving-average filter, and force deadband.

    The average is taken over a fixed-length window primed with zeros, so
    a step input ramps linearly and reaches its full value only once the
    window has filled. The deadband zeroes individual force components
    strictly below the threshold; moments pass through.

    ``step_batch`` takes an (m, 6) block of raw samples, oldest first, and
    returns the wrench after the last of them: the same value, bit for
    bit, as m successive ``step`` calls, because the history is kept as a
    (window, 6) array and averaged with one ``window_mean`` either way.
    Samples that leave the window inside the block never reach the
    output, so a caller may pass only the last ``window`` of a longer
    stream. ``step`` is the m = 1 case, and ``filter_batch`` returns the
    same six values as a plain array, without building a ``Wrench``.
    """

    def __init__(self, bias: Wrench | None = None, window: int = 16, deadband: float = 0.0):
        if window < 1:
            raise ValueError("window must be at least 1 sample")
        if deadband < 0.0:
            raise ValueError("deadband must be nonnegative")
        self.bias = bias if bias is not None else Wrench(np.zeros(3), np.zeros(3))
        self.window = int(window)
        self.deadband = float(deadband)
        self.reset()

    def reset(self):
        self._history = np.zeros((self.window, 6))

    def step(self, raw: Wrench) -> Wrench:
        return self.step_batch(raw.as_array()[np.newaxis])

    def step_batch(self, samples) -> Wrench:
        out = self.filter_batch(samples)
        return Wrench(out[:3], out[3:])

    def filter_batch(self, samples) -> np.ndarray:
        """Conditioned wrench (6,), forces first, after an (m, 6) block of samples."""
        block = np.asarray(samples, dtype=float)
        if block.ndim != 2 or block.shape[1] != 6:
            raise ValueError("samples must be an (m, 6) array")
        if not np.isfinite(block).all():
            raise ValueError(f"wrench samples must be finite, got {block}")
        block = block - self.bias.as_array()
        kept = self.window - block.shape[0]
        if kept > 0:
            block = np.concatenate([self._history[-kept:], block])
        self._history = block[-self.window :]
        out = window_mean(self._history)
        force = out[:3]
        force[np.abs(force) < self.deadband] = 0.0
        return out


def condition_signal(conditioner: SignalConditioner, raw: Wrench) -> Wrench:
    """Feed one raw sample through the conditioner and return the clean wrench."""
    return conditioner.step(raw)


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
    force falls back under the threshold.
    """
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


@dataclass(frozen=True)
class VirtualFixture:
    """Planar software constraint: spanning directions and their projector."""

    a: np.ndarray
    omega: np.ndarray


def fixture_projector(p1, p2, p3) -> VirtualFixture:
    """Build the force projector of the plane through three points.

    The projector is the least-squares one onto span{P2-P1, P3-P1};
    Omega = A (A^T A)^-1 A^T, insensitive to the choice of in-plane basis.
    """
    p1 = np.asarray(p1, dtype=float).reshape(3)
    p2 = np.asarray(p2, dtype=float).reshape(3)
    p3 = np.asarray(p3, dtype=float).reshape(3)
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
    """Component of a force lying in the fixture plane."""
    return fixture.omega @ np.asarray(force, dtype=float).reshape(3)


def virtual_inertia_damper_step(k, w_b: Wrench) -> np.ndarray:
    """Accommodative displacement for one control period, Δu = K w.

    Applying the sensed wrench directly yields mass-with-damping behavior:
    a constant force produces a constant drift velocity K F / Δt.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (6, 6):
        raise ValueError("gain must be 6x6")
    return k @ w_b.as_array()


def virtual_spring_step(k, dw_b: Wrench) -> np.ndarray:
    """Spring-like displacement from the wrench deviation off equilibrium.

    Same linear map as the inertia/damper law, but driven by the change
    from the registered equilibrium wrench, so releasing the disturbance
    returns the commanded pose to the equilibrium point.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (6, 6):
        raise ValueError("gain must be 6x6")
    return k @ dw_b.as_array()


def _solve_jacobian(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfigurationError("jacobian is singular") from exc


def pure_force_control_step(
    g, gains: GainSet, e_f: np.ndarray, e_f_dot: np.ndarray, e_f_int: np.ndarray
) -> np.ndarray:
    """Joint rates from PID action on force error, θ̇ = G⁻¹(Kp e + Kv ė + Ki ∫e)."""
    g = np.asarray(g, dtype=float)
    if g.shape != (6, 6):
        raise ValueError("jacobian must be 6x6")
    e = np.asarray(e_f, dtype=float).reshape(6)
    de = np.asarray(e_f_dot, dtype=float).reshape(6)
    ie = np.asarray(e_f_int, dtype=float).reshape(6)
    return _solve_jacobian(g, gains.kp @ e + gains.kv @ de + gains.ki @ ie)


def compliant_control_step(g, kp, e_f: np.ndarray) -> np.ndarray:
    """Differential joint motion per control period, Δθ = G⁻¹ Kp e."""
    g = np.asarray(g, dtype=float)
    kp = np.asarray(kp, dtype=float)
    if g.shape != (6, 6) or kp.shape != (6, 6):
        raise ValueError("jacobian and gain must be 6x6")
    return _solve_jacobian(g, kp @ np.asarray(e_f, dtype=float).reshape(6))


def effective_stiffness(k_sensor: float, k_tool: float, k_env: float) -> float:
    """Series stiffness of sensor, tool, and environment springs.

    Rigid (infinite) members contribute no compliance.
    """
    total = 0.0
    for k in (k_sensor, k_tool, k_env):
        if not k > 0.0:
            raise ValueError("stiffnesses must be positive")
        if math.isfinite(k):
            total += 1.0 / k
    return math.inf if total == 0.0 else 1.0 / total


def normal_force(surface: ContactSurface, positions, velocities=None) -> np.ndarray:
    """Penalty-contact normal force magnitudes at m tool points, shape (m,).

    Zero above the plane; while penetrating, the force is proportional to
    the penetration depth (less an optional viscous term on the normal
    velocity) and pushes the tool back out. Never tensile. A non-finite
    point gives a non-finite force rather than zero. With the normal along
    a coordinate axis each row equals the one-point call bit for bit, so
    a caller may evaluate unrelated points in one call; otherwise the
    batched dot product may round differently in the last place.
    """
    p = np.asarray(positions, dtype=float).reshape(-1, 3)
    depth = (surface.point - p) @ surface.normal
    pressing = ~(depth <= 0.0)
    magnitude = np.zeros(depth.shape)
    magnitude[pressing] = surface.effective * depth[pressing]
    if surface.damping > 0.0 and velocities is not None:
        v = np.asarray(velocities, dtype=float).reshape(p.shape)
        magnitude[pressing] -= surface.damping * (v[pressing] @ surface.normal)
    return np.maximum(magnitude, 0.0)


def contact_wrench(surface: ContactSurface, ee_position, ee_velocity=None) -> Wrench:
    """Frictionless penalty-contact wrench on the end effector.

    The one-point case of ``normal_force``, directed along the surface
    normal.
    """
    p = np.asarray(ee_position, dtype=float).reshape(1, 3)
    v = None if ee_velocity is None else np.asarray(ee_velocity, dtype=float).reshape(1, 3)
    magnitude = normal_force(surface, p, v)[0]
    force = np.zeros(3) if magnitude == 0.0 else magnitude * surface.normal
    return Wrench(force, np.zeros(3))


def natural_frequency(k_eff: float, mass: float) -> float:
    """Undamped contact-interface natural frequency in Hz."""
    if k_eff <= 0.0 or mass <= 0.0:
        raise ValueError("stiffness and mass must be positive")
    return math.sqrt(k_eff / mass) / (2.0 * math.pi)
