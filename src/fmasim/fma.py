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
from dataclasses import dataclass

import numpy as np

from .errors import check_fields, checked_scalar, checked_vector, frozen_array
from .units import GRAVITY

# Static, viscous, and exponential-knee coefficients of the transmission
# friction model, torque in N*m for speed in rad/s.
FRICTION_STATIC = 0.20
FRICTION_VISCOUS = 1.506
FRICTION_KNEE_GAIN = 0.9602
FRICTION_KNEE_RATE = 0.0047

SCALE_RATIO_BAND = (10.0, 15.0)


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

    RULES = dict.fromkeys(("r9", "r10", "r11", "r12"), "positive")

    def __post_init__(self):
        check_fields(self)
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
    if checked_scalar(g1, "g1") == 0.0:
        raise ValueError("g1 must be nonzero")
    return abs(checked_scalar(g2, "g2") / g1)


def output_velocity(g_row: np.ndarray, omega_p: np.ndarray) -> float:
    """Output shaft speed for prime-mover speeds (motion, force)."""
    g = checked_vector(g_row, "g_row", np.size(g_row))
    return float(g @ checked_vector(omega_p, "omega_p", len(g)))


def _check_weight(weight: np.ndarray, m: int, name: str = "weight") -> np.ndarray:
    """A frozen copy of ``weight``, refused by ``name`` unless it is a finite
    symmetric positive definite (m, m) matrix."""
    w = frozen_array(weight, name, (m, m))
    if np.max(np.abs(w - w.T)) > 1.0e-9:
        raise ValueError(f"{name} must be symmetric, got {w.tolist()}")
    if np.min(np.linalg.eigvalsh(w)) <= 0.0:
        raise ValueError(f"{name} must be positive definite, got {w.tolist()}")
    return w


def weighted_pseudo_inverse(g_row: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """Right inverse of a 1 x m speed map minimizing qd^T W qd.

    Returns the column ``W^-1 g^T (g W^-1 g^T)^-1`` as a 1-D array,
    computed in Python floats with each sum in index order. W^-1 g^T comes
    from Gaussian elimination without pivoting, which a positive definite
    W does not need; a diagonal W gives g_i / W_ii.
    """
    g = checked_vector(g_row, "g_row", np.size(g_row))
    w = (np.eye(len(g)) if weight is None else _check_weight(weight, len(g))).tolist()
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
    gp = weighted_pseudo_inverse(g_row, weight)
    return np.eye(len(gp)) - np.outer(gp, g_row)


def allocate_velocities(
    g_row: np.ndarray,
    qd_out: float,
    weight: np.ndarray | None = None,
    qd_seed: np.ndarray | None = None,
) -> np.ndarray:
    """Prime-mover speeds realizing ``qd_out`` plus an optional self-motion seed."""
    gp = weighted_pseudo_inverse(g_row, weight)
    qd_m = gp * float(checked_scalar(qd_out, "qd_out"))
    if qd_seed is not None:
        seed = checked_vector(qd_seed, "qd_seed", len(gp))
        qd_m = qd_m + null_space_projector(g_row, weight) @ seed
    return qd_m


def stribeck_friction(qd: float) -> float:
    """Transmission friction torque, odd in speed away from zero.

    At rest the breakaway value of the static term is reported with
    positive sign. A per-tick kernel, it checks nothing: NaN gives NaN
    and +-inf gives +-inf. The FMA runner checks its state every tick.
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

    RULES = {
        "rotor_inertia": "positive", "damping": "nonnegative",
        "torque_constant": "positive", "back_emf_constant": "positive", "armature_resistance": "positive",
    }

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True, eq=False)
class WeightingPolicy:
    """Disturbance-gated allocation weights."""

    quiet: np.ndarray
    disturbed: np.ndarray
    torque_threshold: float

    def __post_init__(self):
        check_fields(self)
        # Copies: the runner tells the two weights apart by identity.
        for name in ("quiet", "disturbed"):
            object.__setattr__(self, name, _check_weight(getattr(self, name), 2, name))


def weighting(policy: WeightingPolicy, tau_ext: float) -> np.ndarray:
    """Active weight matrix: quiet strictly below the torque threshold, so a NaN torque is disturbed."""
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

    RULES = {"link_mass": "positive", "link_length": "positive", "tool_mass": "nonnegative"}

    def __post_init__(self):
        check_fields(self)
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
    checked_scalar(inertia, "reduced inertia", "positive")
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

    Each call rebuilds ``reduced_terms(model, weight)``: a weighted
    pseudo-inverse with an ``eigvalsh`` check of the weight, some tens of
    times the cost of the law itself. A caller that steps many times
    should build the terms once per weight and call their
    ``acceleration``, as ``simulation.run_fma_scenario`` does.
    """
    v = checked_vector(v, "v", 2).tolist()
    for name, x in (("q", q), ("qd", qd), ("tau_ext", tau_ext)):
        checked_scalar(x, name)
    terms = reduced_terms(model, weight)
    return terms.acceleration(qd, math.sin(q), stribeck_friction(qd), terms.drive(v), tau_ext)


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
    recovers the pure feedforward law. Like ``reduced_dynamics``, each
    call rebuilds ``reduced_terms(model, weight)``; a caller that steps
    many times should build the terms once per weight and call their
    ``voltages``.
    """
    for name, x in zip(("q", "qd", "q_ref", "qd_ref", "qdd_ref", "kp", "kv"), (q, qd, q_ref, qd_ref, qdd_ref, kp, kv)):
        checked_scalar(x, name)
    terms = reduced_terms(model, weight)
    return np.array(terms.voltages(q, qd, math.sin(q), stribeck_friction(qd), q_ref, qd_ref, qdd_ref, kp, kv))


def electromagnetic_torques(
    model: DualActuatorModel, v: np.ndarray, qd_m: np.ndarray
) -> np.ndarray:
    """Air-gap torques K_m (v - K_b qd_M) / R_a of both prime movers.

    ``v`` and ``qd_m`` are finite (..., 2) arrays, (motion, force) on the last axis.
    """
    v = frozen_array(v, "v", np.shape(v)[:-1] + (2,))
    qd_m = frozen_array(qd_m, "qd_m", np.shape(qd_m)[:-1] + (2,))
    pms = (model.motion_pm, model.force_pm)
    km, kb, ra = np.array(
        [(pm.torque_constant, pm.back_emf_constant, pm.armature_resistance) for pm in pms]
    ).T
    return km * (v - kb * qd_m) / ra
