"""Dual-input force/motion actuator: gear train, allocation, and dynamics.

A star-compound gear train couples two prime movers to one output shaft.
The output speed is a fixed linear combination of the prime-mover speeds,

    qdot_out = g1 * w_motion + g2 * w_force,

so the inverse map is underdetermined and is resolved by minimizing a
weighted norm of the prime-mover speeds. A small weight on the force
channel makes it absorb disturbances; a large weight parks it and routes
steady motion through the motion channel. Reducing the motor equations
through the weighted pseudo-inverse yields a single second-order model of
the output link driven by the two armature voltages.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .units import GRAVITY

# Static, viscous, and exponential-knee coefficients of the transmission
# friction model, torque in N*m for speed in rad/s.
FRICTION_STATIC = 0.20
FRICTION_VISCOUS = 1.506
FRICTION_KNEE_GAIN = 0.9602
FRICTION_KNEE_RATE = 0.0047

SCALE_RATIO_BAND = (10.0, 15.0)


def _check_finite_floats(value):
    """Raise ValueError naming the first float field of the dataclass ``value`` that is not finite."""
    for f in fields(value):
        if f.type == "float" and not math.isfinite(getattr(value, f.name)):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class StarCompoundGeometry:
    """Pitch radii of the star-compound stage plus the hypocyclic input ratio.

    Meshing requires r12 = r9 + r10 + r11.
    """

    r9: float
    r10: float
    r11: float
    r12: float
    g_hypo: float

    def __post_init__(self):
        _check_finite_floats(self)
        for name in ("r9", "r10", "r11", "r12"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.g_hypo < 1.0:
            raise ValueError("g_hypo must lie in (0, 1)")
        closure = self.r9 + self.r10 + self.r11
        if abs(self.r12 - closure) > 1.0e-9 * max(self.r12, closure):
            raise ValueError(
                f"gear meshing violated: r12={self.r12} but r9+r10+r11={closure}"
            )


def gear_ratios(geom: StarCompoundGeometry) -> tuple[float, float]:
    """Output-speed coefficients (g1, g2) of the motion and force inputs."""
    star = (geom.r9 * geom.r11) / (geom.r10 * geom.r12)
    return geom.g_hypo * (1.0 + star), -star


def scale_ratio(g1: float, g2: float) -> float:
    """Kinematic force:motion scaling |g2 / g1|."""
    if g1 == 0.0:
        raise ValueError("g1 must be nonzero")
    return abs(g2 / g1)


def output_velocity(g_row: np.ndarray, omega_p: np.ndarray) -> float:
    """Output shaft speed for prime-mover speeds (motion, force)."""
    g_row = np.asarray(g_row, dtype=float)
    omega_p = np.asarray(omega_p, dtype=float)
    if g_row.shape != omega_p.shape:
        raise ValueError("gear row and speed vector shapes differ")
    return float(g_row @ omega_p)


def _check_weight(weight: np.ndarray | None, m: int) -> np.ndarray:
    if weight is None:
        return np.eye(m)
    w = np.asarray(weight, dtype=float)
    if w.shape != (m, m):
        raise ValueError(f"weight must be {m}x{m}")
    if np.max(np.abs(w - w.T)) > 1.0e-9:
        raise ValueError("weight must be symmetric")
    if np.min(np.linalg.eigvalsh(w)) <= 0.0:
        raise ValueError("weight must be positive definite")
    return w


def weighted_pseudo_inverse(g_row: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """Right inverse of a 1 x m speed map minimizing qd^T W qd.

    Returns the column ``W^-1 g^T (g W^-1 g^T)^-1`` as a 1-D array,
    computed in Python floats with each sum in index order. W^-1 g^T comes
    from Gaussian elimination without pivoting, which a positive definite
    W does not need; a diagonal W gives g_i / W_ii.
    """
    g = np.asarray(g_row, dtype=float).reshape(-1)
    w = _check_weight(weight, g.shape[0]).tolist()
    x, m = g.tolist(), len(w)
    for k in range(m):
        for i in range(k + 1, m):
            f = w[i][k] / w[k][k]
            for j in range(k + 1, m):
                w[i][j] -= f * w[k][j]
            x[i] -= f * x[k]
    for k in reversed(range(m)):
        for j in range(k + 1, m):
            x[k] -= w[k][j] * x[j]
        x[k] /= w[k][k]
    denom = 0.0
    for gi, xi in zip(g.tolist(), x):
        denom += gi * xi
    if denom <= 0.0 or not math.isfinite(denom):
        raise ValueError("speed map is degenerate: g W^-1 g^T is not positive")
    return np.array([xi / denom for xi in x])


def null_space_projector(g_row: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """Projector I - G+ G onto self-motions of the allocation."""
    g = np.asarray(g_row, dtype=float).reshape(-1)
    gp = weighted_pseudo_inverse(g, weight)
    return np.eye(g.shape[0]) - np.outer(gp, g)


def allocate_velocities(
    g_row: np.ndarray,
    qd_out: float,
    weight: np.ndarray | None = None,
    qd_seed: np.ndarray | None = None,
) -> np.ndarray:
    """Prime-mover speeds realizing ``qd_out`` plus an optional self-motion seed."""
    g = np.asarray(g_row, dtype=float).reshape(-1)
    gp = weighted_pseudo_inverse(g, weight)
    qd_m = gp * float(qd_out)
    if qd_seed is not None:
        seed = np.asarray(qd_seed, dtype=float).reshape(-1)
        if seed.shape != g.shape:
            raise ValueError("seed shape must match the number of prime movers")
        qd_m = qd_m + null_space_projector(g, weight) @ seed
    return qd_m


def stribeck_friction(qd: float) -> float:
    """Transmission friction torque, odd in speed away from zero.

    At rest the breakaway value of the static term is reported with
    positive sign.
    """
    q = float(qd)
    mag = abs(q)
    knee = 1.0 - math.exp(-FRICTION_KNEE_RATE * mag)
    f = FRICTION_STATIC + FRICTION_VISCOUS * mag - FRICTION_KNEE_GAIN * knee
    return -f if q < 0.0 else f


@dataclass(frozen=True)
class PrimeMoverParams:
    """DC prime mover constants, SI throughout.

    ``damping`` is the mechanical viscous constant in N*m per rad/s;
    catalog values quoted per RPM must be converted before construction.
    """

    rotor_inertia: float
    damping: float
    torque_constant: float
    back_emf_constant: float
    armature_resistance: float

    def __post_init__(self):
        _check_finite_floats(self)
        for name in (
            "rotor_inertia",
            "torque_constant",
            "back_emf_constant",
            "armature_resistance",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.damping < 0.0:
            raise ValueError("damping must be nonnegative")


@dataclass(frozen=True, eq=False)
class WeightingPolicy:
    """Disturbance-gated allocation weights."""

    quiet: np.ndarray
    disturbed: np.ndarray
    torque_threshold: float

    def __post_init__(self):
        _check_finite_floats(self)
        # Copies: the runner tells the two weights apart by identity.
        quiet = _check_weight(np.array(self.quiet, dtype=float), 2)
        disturbed = _check_weight(np.array(self.disturbed, dtype=float), 2)
        quiet.flags.writeable = False
        disturbed.flags.writeable = False
        object.__setattr__(self, "quiet", quiet)
        object.__setattr__(self, "disturbed", disturbed)


def weighting(policy: WeightingPolicy, tau_ext: float) -> np.ndarray:
    """Active weight matrix: quiet strictly below the torque threshold."""
    return policy.quiet if tau_ext < policy.torque_threshold else policy.disturbed


@dataclass(frozen=True)
class DualActuatorModel:
    """Gear train, prime movers, and the single output link they drive.

    The output link is modeled as a point mass at ``link_com`` plus a tool
    point mass at the tip; the link hangs at q = 0 and q is measured
    toward the horizontal, so gravity torque is proportional to sin(q).
    """

    geometry: StarCompoundGeometry
    motion_pm: PrimeMoverParams
    force_pm: PrimeMoverParams
    link_mass: float
    link_length: float
    tool_mass: float
    link_com: float | None = None
    name: str = ""

    def __post_init__(self):
        _check_finite_floats(self)
        if self.link_mass <= 0.0 or self.tool_mass < 0.0 or self.link_length <= 0.0:
            raise ValueError("link mass/length must be positive, tool mass nonnegative")
        if self.link_com is None:
            object.__setattr__(self, "link_com", self.link_length / 2.0)
        if not 0.0 <= self.link_com <= self.link_length:
            raise ValueError("link com must lie on the link")
        rho = scale_ratio(*gear_ratios(self.geometry))
        if not SCALE_RATIO_BAND[0] <= rho <= SCALE_RATIO_BAND[1]:
            warnings.warn(
                f"force:motion scale ratio {rho:.3f} outside design band {SCALE_RATIO_BAND}",
                stacklevel=2,
            )

    @property
    def g_row(self) -> np.ndarray:
        return np.array(gear_ratios(self.geometry))

    def output_inertia(self) -> float:
        return self.link_mass * self.link_com**2 + self.tool_mass * self.link_length**2

    @property
    def gravity_arm(self) -> float:
        """Gravity torque with the link horizontal, (m c + m_tool L) g."""
        return (self.link_mass * self.link_com + self.tool_mass * self.link_length) * GRAVITY

    def output_gravity(self, q: float) -> float:
        return self.gravity_arm * math.sin(q)


def motor_dynamics_matrices(
    model: DualActuatorModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal (I_M, B_M, K_M) of the voltage-driven prime-mover pair.

    The effective damping of each channel is the mechanical constant plus
    the back-EMF term K_b K_m / R_a that appears once armature inductance
    is neglected.
    """
    pms = (model.motion_pm, model.force_pm)
    i_m = np.diag([pm.rotor_inertia for pm in pms])
    b_m = np.diag(
        [
            pm.damping + pm.back_emf_constant * pm.torque_constant / pm.armature_resistance
            for pm in pms
        ]
    )
    k_m = np.diag([pm.torque_constant / pm.armature_resistance for pm in pms])
    return i_m, b_m, k_m


@dataclass(frozen=True)
class _ReducedTerms:
    """Output-shaft model of one actuator under one active weight.

    The fields are fixed per (model, weight); the methods are the
    per-tick laws in plain float arithmetic, so a runner can build the
    terms once per weight and call the laws every tick or RK4 stage. The
    laws share a state's sin_q = math.sin(q) and fric = stribeck_friction(qd),
    computed once by the caller.
    """

    g_plus: tuple[float, float]
    inertia: float
    damping: float
    voltage_row: tuple[float, float]  # g+ K_M
    volts_per_torque: tuple[float, float]  # K_M^-1 g^T
    gravity_arm: float
    link_inertia: float

    def voltages(
        self, q: float, qd: float, sin_q: float, fric: float,
        q_ref: float, qd_ref: float, qdd_ref: float, kp: float, kv: float,
    ) -> tuple[float, float]:
        """Armature voltages of the inverse-model law, PD servo inside its bracket."""
        accel = qdd_ref + kv * (qd_ref - qd) + kp * (q_ref - q)
        tau = self.inertia * accel + self.damping * qd + fric + self.gravity_arm * sin_q
        r0, r1 = self.volts_per_torque
        return r0 * tau, r1 * tau

    def drive(self, v) -> float:
        """Drive torque ``voltage_row @ v`` of two voltages, summed in index order."""
        r0, r1 = self.voltage_row
        return r0 * v[0] + r1 * v[1]

    def acceleration(self, qd: float, sin_q: float, fric: float, drive: float, tau_ext: float) -> float:
        """Output acceleration under the drive torque ``self.drive(v)``."""
        return (drive - tau_ext - self.damping * qd - fric - self.gravity_arm * sin_q) / self.inertia

    def output_torque(self, sin_q: float, fric: float, qdd: float, tau_ext: float) -> float:
        """Torque the transmission delivers to the output link."""
        return self.link_inertia * qdd + self.gravity_arm * sin_q + fric + tau_ext


def reduced_terms(model: DualActuatorModel, weight: np.ndarray | None = None) -> _ReducedTerms:
    """Reflect the prime-mover pair onto the output shaft under a weight."""
    g0, g1 = gear_ratios(model.geometry)
    p0, p1 = weighted_pseudo_inverse((g0, g1), weight).tolist()
    # The diagonals of I_M, B_M and K_M; the products are the matrix forms'
    # with their zero terms dropped.
    (i0, i1), (b0, b1), (k0, k1) = (np.diag(m).tolist() for m in motor_dynamics_matrices(model))
    inertia = model.output_inertia() + (p0 * i0 * p0 + p1 * i1 * p1)
    if inertia <= 0.0:
        raise ValueError("reduced inertia must be positive")
    return _ReducedTerms(
        (p0, p1), inertia, p0 * b0 * p0 + p1 * b1 * p1, (p0 * k0, p1 * k1), (g0 / k0, g1 / k1),
        model.gravity_arm, model.output_inertia(),
    )


def reduced_dynamics(
    model: DualActuatorModel,
    q: float,
    qd: float,
    v: np.ndarray,
    tau_ext: float,
    weight: np.ndarray | None = None,
) -> float:
    """Output-shaft acceleration of the reduced dual-actuator model.

    Solves I'(q) qdd + B' qd + F'(qd) + G(q) = K'_M v - tau_ext.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (2,):
        raise ValueError("v must hold two armature voltages")
    terms = reduced_terms(model, weight)
    return terms.acceleration(qd, math.sin(q), stribeck_friction(qd), terms.drive(v.tolist()), tau_ext)


def computed_torque_voltage(
    model: DualActuatorModel,
    q: float,
    qd: float,
    q_ref: float,
    qd_ref: float,
    qdd_ref: float,
    kp: float = 100.0,
    kv: float = 20.0,
    weight: np.ndarray | None = None,
) -> np.ndarray:
    """Armature voltages from an inverse-model law with a PD servo.

    ``model`` is the design model the controller believes in; kp = kv = 0
    recovers the pure feedforward law.
    """
    terms = reduced_terms(model, weight)
    return np.array(terms.voltages(q, qd, math.sin(q), stribeck_friction(qd), q_ref, qd_ref, qdd_ref, kp, kv))


def electromagnetic_torques(
    model: DualActuatorModel, v: np.ndarray, qd_m: np.ndarray
) -> np.ndarray:
    """Air-gap torques K_m (v - K_b qd_M) / R_a of both prime movers.

    ``v`` and ``qd_m`` are (..., 2) arrays, (motion, force) on the last axis.
    """
    pms = (model.motion_pm, model.force_pm)
    km, kb, ra = np.array(
        [(pm.torque_constant, pm.back_emf_constant, pm.armature_resistance) for pm in pms]
    ).T
    return km * (np.asarray(v, dtype=float) - kb * np.asarray(qd_m, dtype=float)) / ra
