"""Serial-chain kinematics and first/second-order influence coefficients.

Link frames follow the proximal (modified) Denavit-Hartenberg convention:
the transform from frame i-1 to frame i is
``Rx(alpha_prev) Tx(a_prev) Rz(theta_i + offset) Tz(d)`` and joint i
rotates about the z axis of frame i.

The first-order coefficient matrix G maps joint rates to a 6-vector task
rate whose translation rows are the point-velocity Jacobian and whose
orientation rows are the angular-velocity Jacobian (joint-axis columns).
The second-order coefficient array H is the exact configuration
derivative of G, indexed ``H[i, k, j] = d G[k, j] / d theta_i``, so that
task acceleration is ``G @ qdd + qd . H . qd``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spatial import Pose, Rotation, Twist, Wrench


@dataclass(frozen=True)
class DHRow:
    """One proximal D-H row: alpha_prev, a_prev (about/along x_{i-1}), d, theta offset."""

    alpha_prev: float = 0.0
    a_prev: float = 0.0
    d: float = 0.0
    theta_offset: float = 0.0
    joint_kind: str = "rotary"

    def __post_init__(self):
        for name in ("alpha_prev", "a_prev", "d", "theta_offset"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.joint_kind != "rotary":
            raise ValueError("only rotary joints are supported")


@dataclass(frozen=True)
class SerialChainModel:
    """Open serial chain with per-link mass properties.

    ``coms`` holds each link's center of mass in its own link frame;
    ``inertias`` holds the 3x3 rotational inertia about that center of
    mass, also expressed in the link frame.
    """

    dh: tuple[DHRow, ...]
    masses: np.ndarray
    coms: np.ndarray
    inertias: np.ndarray
    name: str = ""

    def __post_init__(self):
        n = len(self.dh)
        if n < 1:
            raise ValueError("chain needs at least one joint")
        masses = np.asarray(self.masses, dtype=float)
        coms = np.asarray(self.coms, dtype=float)
        inertias = np.asarray(self.inertias, dtype=float)
        if masses.shape != (n,):
            raise ValueError(f"expected {n} masses, got shape {masses.shape}")
        if np.any(masses <= 0.0):
            raise ValueError("masses must be positive")
        if coms.shape != (n, 3):
            raise ValueError(f"expected coms shape ({n}, 3)")
        if inertias.shape != (n, 3, 3):
            raise ValueError(f"expected inertias shape ({n}, 3, 3)")
        for j in range(n):
            ine = inertias[j]
            if np.max(np.abs(ine - ine.T)) > 1.0e-9:
                raise ValueError(f"inertia {j} is not symmetric")
            if np.min(np.linalg.eigvalsh(ine)) < -1.0e-12:
                raise ValueError(f"inertia {j} is not positive semidefinite")
        for arr in (masses, coms, inertias):
            arr.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "coms", coms)
        object.__setattr__(self, "inertias", inertias)

    @property
    def dof(self) -> int:
        return len(self.dh)

    @cached_property
    def _dh_constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Theta offsets, cos and sin of alpha_prev, and each link's origin offset (n,3)."""
        offsets = np.array([row.theta_offset for row in self.dh])
        ca = np.array([np.cos(row.alpha_prev) for row in self.dh])
        sa = np.array([np.sin(row.alpha_prev) for row in self.dh])
        d = np.array([row.d for row in self.dh])
        p_rel = np.stack([[row.a_prev for row in self.dh], -sa * d, ca * d], axis=-1)
        return offsets, ca, sa, p_rel


@dataclass(frozen=True)
class JointState:
    """Joint positions, rates, and accelerations."""

    theta: np.ndarray
    theta_dot: np.ndarray | None = None
    theta_ddot: np.ndarray | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        n = theta.shape[0]
        dot = np.zeros(n) if self.theta_dot is None else np.asarray(self.theta_dot, dtype=float)
        ddot = np.zeros(n) if self.theta_ddot is None else np.asarray(self.theta_ddot, dtype=float)
        for name, arr in (("theta", theta), ("theta_dot", dot), ("theta_ddot", ddot)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        for arr in (theta, dot, ddot):
            arr.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_dot", dot)
        object.__setattr__(self, "theta_ddot", ddot)


@dataclass(frozen=True)
class GKICSet:
    """First- and second-order influence coefficients for one target."""

    G: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        H = np.asarray(self.H, dtype=float)
        m, n = G.shape
        if H.shape != (n, m, n):
            raise ValueError(f"H shape {H.shape} does not match G shape {G.shape}")
        G.flags.writeable = False
        H.flags.writeable = False
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "H", H)


def frame_transforms(model: SerialChainModel, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (n,3,3) and origins (n,3) of every link frame in base coordinates."""
    theta = _check_theta(model, theta)
    offsets, ca, sa, p_rel = model._dh_constants
    th = theta + offsets
    ct, st = np.cos(th), np.sin(th)
    n = model.dof
    r_rel = np.array([ct, -st, np.zeros(n), st * ca, ct * ca, -sa, st * sa, ct * sa, ca])
    r_rel = r_rel.T.reshape(n, 3, 3)
    rots = np.empty((n, 3, 3))
    origins = np.empty((n, 3))
    r = np.eye(3)
    p = np.zeros(3)
    for i in range(n):
        p = p + r @ p_rel[i]
        r = r @ r_rel[i]
        rots[i] = r
        origins[i] = p
    return rots, origins


def _check_theta(model: SerialChainModel, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dof,):
        raise ValueError(f"expected {model.dof} joint values, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("joint values must be finite")
    return theta


def forward_kinematics(model: SerialChainModel, theta: np.ndarray) -> Pose:
    """Pose of the last link frame."""
    rots, origins = frame_transforms(model, theta)
    return Pose(origins[-1].copy(), Rotation(rots[-1].copy()).as_fixed_euler())


def com_positions(model: SerialChainModel, theta: np.ndarray) -> np.ndarray:
    """World positions (n,3) of every link's center of mass."""
    rots, origins = frame_transforms(model, theta)
    return origins + np.einsum("nij,nj->ni", rots, model.coms)


def _resolve_target(model, rots, origins, target) -> tuple[int, np.ndarray]:
    """Return (last joint moving the target, world target point)."""
    n = model.dof
    if target == "ee":
        return n - 1, origins[-1]
    kind, j = target
    if not 1 <= j <= n:
        raise ValueError(f"link index {j} out of range 1..{n}")
    if kind == "frame":
        return j - 1, origins[j - 1]
    if kind == "com":
        return j - 1, origins[j - 1] + rots[j - 1] @ model.coms[j - 1]
    raise ValueError(f"unknown target {target!r}")


def g_function(model: SerialChainModel, theta: np.ndarray, target="ee") -> np.ndarray:
    """First-order influence coefficients (6 x n) of a target point.

    Rows 0..2 map joint rates to the target point's linear velocity, rows
    3..5 to the angular velocity of the link carrying it.
    """
    rots, origins = frame_transforms(model, theta)
    return _target_g(model, rots, origins, target)[0]


def h_function(model: SerialChainModel, theta: np.ndarray, target="ee") -> np.ndarray:
    """Second-order influence coefficients (n x 6 x n) of a target point.

    ``H[i, k, j]`` is the derivative of ``G[k, j]`` with respect to joint i.
    The translation rows form a true symmetric Hessian of the target point;
    the orientation rows are the exact derivative of the angular-velocity
    Jacobian, which for spatial chains is symmetric only where joint axes
    are parallel.
    """
    rots, origins = frame_transforms(model, theta)
    return _h_of(rots[:, :, 2], _target_g(model, rots, origins, target))[0]


def compute_gkic(model: SerialChainModel, theta: np.ndarray, target="ee") -> GKICSet:
    """Both coefficient orders for one target in a single sweep."""
    rots, origins = frame_transforms(model, theta)
    g = _target_g(model, rots, origins, target)
    return GKICSet(g[0], _h_of(rots[:, :, 2], g)[0])


def _target_g(model, rots, origins, target) -> np.ndarray:
    last, point = _resolve_target(model, rots, origins, target)
    return _g_of(rots, origins, point[None], np.array([last]))


def _g_of(rots, origins, points, lasts) -> np.ndarray:
    """G (m, 6, n) of m target points; ``lasts[t]`` is the last joint moving point t.

    Column i is ``[z_i x (p - o_i); z_i]`` and is zero for joints beyond
    the target's link.
    """
    zs = rots[:, :, 2]
    moves = np.arange(len(zs)) <= lasts[:, None]
    lin = _cross(zs, points[:, None, :] - origins)
    g = np.zeros((len(points), 6, len(zs)))
    g[:, :3] = np.where(moves[:, :, None], lin, 0.0).transpose(0, 2, 1)
    g[:, 3:] = np.where(moves[:, :, None], zs, 0.0).transpose(0, 2, 1)
    return g


def _cross(a, b) -> np.ndarray:
    """Cross product over the last axis, with ``np.cross``'s arithmetic and broadcasting."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _h_of(zs, g) -> np.ndarray:
    """H (m, n, 6, n) from the joint axes and G (m, 6, n).

    ``H[t, i, :3, j] = z_min(i,j) x G[t, :3, max(i,j)]`` and
    ``H[t, i, 3:, j] = z_i x G[t, 3:, j]`` for i < j, else zero. Columns
    of G zeroed beyond a target's link zero the matching entries of H.
    """
    idx = np.arange(len(zs))
    lo, hi = np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)
    g_lin = g[:, :3].transpose(0, 2, 1)
    g_ang = g[:, 3:].transpose(0, 2, 1)
    h = np.zeros((len(g), len(zs), 6, len(zs)))
    h[:, :, :3] = _cross(zs[lo], g_lin[:, hi]).transpose(0, 1, 3, 2)
    ang = _cross(zs[:, None, :], g_ang[:, None, :, :])
    h[:, :, 3:] = np.where((idx[:, None] < idx)[:, :, None], ang, 0.0).transpose(0, 1, 3, 2)
    return h


def ee_velocity(g: np.ndarray, theta_dot: np.ndarray) -> Twist:
    """Task-space twist from joint rates."""
    rate = np.asarray(g, dtype=float) @ np.asarray(theta_dot, dtype=float)
    return Twist(rate[:3].copy(), rate[3:].copy())


def ee_acceleration(
    g: np.ndarray, h: np.ndarray, theta_dot: np.ndarray, theta_ddot: np.ndarray
) -> np.ndarray:
    """Task acceleration ``G qdd + qd . H . qd`` as a 6-vector."""
    qd = np.asarray(theta_dot, dtype=float)
    qdd = np.asarray(theta_ddot, dtype=float)
    return np.asarray(g) @ qdd + np.einsum("i,ikj,j->k", qd, np.asarray(h), qd)


def static_joint_torques(g: np.ndarray, wrench: Wrench) -> np.ndarray:
    """Joint torques statically equivalent to a task wrench: G^T w."""
    return np.asarray(g, dtype=float).T @ wrench.as_array()
