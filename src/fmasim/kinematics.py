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

G and H of every target come from one pair of float kernels on
``frame_floats``'s lists, each cross product in ``np.cross``'s order of
operations. The G kernel gives G's columns, six floats a joint, and the
H kernel reads them. Only a COM target's point, ``o + R @ c``, is a BLAS
product.
``tool_height`` is ``frame_floats`` cut to the last origin's z, with the
same bits, for a caller that reads nothing else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spatial import Pose, Rotation, Twist, Wrench, frozen_array, skew


@dataclass(frozen=True)
class DHRow:
    """One proximal D-H row: alpha_prev, a_prev (about/along x_{i-1}), d, theta offset."""

    alpha_prev: float = 0.0
    a_prev: float = 0.0
    d: float = 0.0
    theta_offset: float = 0.0

    def __post_init__(self):
        for name in ("alpha_prev", "a_prev", "d", "theta_offset"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
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
        for name, shape in (("masses", (n,)), ("coms", (n, 3)), ("inertias", (n, 3, 3))):
            object.__setattr__(self, name, frozen_array(getattr(self, name), name, shape))
        if np.any(self.masses <= 0.0):
            raise ValueError("masses must be positive")
        for j, ine in enumerate(self.inertias):
            if np.max(np.abs(ine - ine.T)) > 1.0e-9:
                raise ValueError(f"inertia {j} is not symmetric")
            if np.min(np.linalg.eigvalsh(ine)) < -1.0e-12:
                raise ValueError(f"inertia {j} is not positive semidefinite")

    @property
    def dof(self) -> int:
        return len(self.dh)

    @cached_property
    def _dh_rows(self) -> tuple[tuple[float, ...], ...]:
        """Per row, in floats: theta offset, cos and sin of alpha_prev, and the origin offset (3)."""
        rows = []
        for row in self.dh:
            ca, sa = math.cos(row.alpha_prev), math.sin(row.alpha_prev)
            rows.append((row.theta_offset, ca, sa, row.a_prev, -sa * row.d, ca * row.d))
        return tuple(rows)

    @cached_property
    def _spatial_inertias(self) -> np.ndarray:
        """Each link's spatial inertia (n,6,6) about its own frame origin, in its own frame."""
        cx = skew(self.coms)
        mcx = self.masses[:, None, None] * cx
        inert = np.block([[self.inertias - mcx @ cx, mcx], [-mcx, self.masses[:, None, None] * np.eye(3)]])
        return frozen_array(inert, "link spatial inertias", inert.shape)


@dataclass(frozen=True, eq=False)
class JointState:
    """Joint positions, rates, and accelerations."""

    theta: np.ndarray
    theta_dot: np.ndarray | None = None
    theta_ddot: np.ndarray | None = None

    def __post_init__(self):
        n = np.size(self.theta)
        for name in ("theta", "theta_dot", "theta_ddot"):
            value = np.zeros(n) if getattr(self, name) is None else getattr(self, name)
            object.__setattr__(self, name, frozen_array(value, name, (n,)))


@dataclass(frozen=True, eq=False)
class GKICSet:
    """First- and second-order influence coefficients for one target."""

    G: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        m, n = np.shape(self.G)
        object.__setattr__(self, "G", frozen_array(self.G, "G", (m, n)))
        object.__setattr__(self, "H", frozen_array(self.H, "H", (n, m, n)))


def frame_floats(model: SerialChainModel, values) -> tuple[list[float], list[float]]:
    """Rotations (9 floats a link, row-major) and origins (3 a link) of every link frame.

    The chain runs in Python floats: ``math.cos``/``math.sin`` and each
    3x3 product written out, from the identity. Each sum starts at 0.0
    and adds its terms in index order, the relative rotation's zero
    entry included, as a BLAS product without fused multiply-adds does.
    So no result, signed zeros included, depends on a BLAS or SIMD kernel.
    ``values`` holds one float a joint and is not checked.
    """
    cos, sin = math.cos, math.sin
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    px = py = pz = 0.0
    rots, origins = [], []
    for th, (offset, ca, sa, ax, ay, az) in zip(values, model._dh_rows):
        th += offset
        ct, st = cos(th), sin(th)
        # Relative rotation [[ct, -st, 0], [st ca, ct ca, -sa], [st sa, ct sa, ca]].
        b00, b01, b02 = ct, -st, 0.0
        b10, b11, b12 = st * ca, ct * ca, -sa
        b20, b21, b22 = st * sa, ct * sa, ca
        px += 0.0 + r00 * ax + r01 * ay + r02 * az
        py += 0.0 + r10 * ax + r11 * ay + r12 * az
        pz += 0.0 + r20 * ax + r21 * ay + r22 * az
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = (
            0.0 + r00 * b00 + r01 * b10 + r02 * b20,
            0.0 + r00 * b01 + r01 * b11 + r02 * b21,
            0.0 + r00 * b02 + r01 * b12 + r02 * b22,
            0.0 + r10 * b00 + r11 * b10 + r12 * b20,
            0.0 + r10 * b01 + r11 * b11 + r12 * b21,
            0.0 + r10 * b02 + r11 * b12 + r12 * b22,
            0.0 + r20 * b00 + r21 * b10 + r22 * b20,
            0.0 + r20 * b01 + r21 * b11 + r22 * b21,
            0.0 + r20 * b02 + r21 * b12 + r22 * b22,
        )
        rots += (r00, r01, r02, r10, r11, r12, r20, r21, r22)
        origins += (px, py, pz)
    return rots, origins


def tool_height(model: SerialChainModel, values) -> float:
    """The last link origin's z, ``frame_floats(model, values)[1][-1]`` to the bit.

    ``frame_floats``' recurrence cut to what that height reads: the
    rotation's bottom row and ``pz``, each sum in the same order, the
    ``0.0`` start and the zero entry included.
    """
    cos, sin = math.cos, math.sin
    r20, r21, r22 = 0.0, 0.0, 1.0
    pz = 0.0
    for th, (offset, ca, sa, ax, ay, az) in zip(values, model._dh_rows):
        th += offset
        ct, st = cos(th), sin(th)
        pz += 0.0 + r20 * ax + r21 * ay + r22 * az
        r20, r21, r22 = (
            0.0 + r20 * ct + r21 * (st * ca) + r22 * (st * sa),
            0.0 + r20 * -st + r21 * (ct * ca) + r22 * (ct * sa),
            0.0 + r20 * 0.0 + r21 * -sa + r22 * ca,
        )
    return pz


def frame_transforms(model: SerialChainModel, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (n,3,3) and origins (n,3) of every link frame in base coordinates.

    ``frame_floats`` on the checked joint values, as arrays.
    """
    rots, origins = frame_floats(model, _check_theta(model, theta))
    n = model.dof
    return np.array(rots).reshape(n, 3, 3), np.array(origins).reshape(n, 3)


def _check_theta(model: SerialChainModel, theta: np.ndarray) -> list[float]:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dof,):
        raise ValueError(f"expected {model.dof} joint values, got shape {theta.shape}")
    values = theta.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("joint values must be finite")
    return values


def forward_kinematics(model: SerialChainModel, theta: np.ndarray) -> Pose:
    """Pose of the last link frame."""
    rots, origins = frame_transforms(model, theta)
    return Pose(origins[-1], Rotation(rots[-1]).as_fixed_euler())


def com_positions(model: SerialChainModel, theta: np.ndarray) -> np.ndarray:
    """World positions (n,3) of every link's center of mass."""
    return _world_coms(*frame_transforms(model, theta), model.coms)


def _world_coms(rots, origins, coms) -> np.ndarray:
    """World COMs ``o + R @ c`` (k,3) of k links: one BLAS product a link, as the oracles form it."""
    return origins + (rots @ coms[:, :, None])[:, :, 0]


def _resolve_target(model: SerialChainModel, target) -> tuple[int, bool]:
    """Return (last joint moving a target, whether its point is that link's COM, not its origin)."""
    n = model.dof
    if isinstance(target, str) and target == "ee":
        return n - 1, False
    if not (isinstance(target, tuple) and len(target) == 2 and target[0] in ("frame", "com")):
        raise ValueError(f"unknown target {target!r}")
    kind, j = target
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
        raise ValueError(f"link index of target {target!r} must be an integer")
    if not 1 <= j <= n:
        raise ValueError(f"link index of target {target!r} out of range 1..{n}")
    return int(j) - 1, kind == "com"


def g_function(model: SerialChainModel, theta: np.ndarray, target="ee") -> np.ndarray:
    """First-order influence coefficients (6 x n) of a target point.

    Rows 0..2 map joint rates to the target point's linear velocity, rows
    3..5 to the angular velocity of the link carrying it.
    """
    return _g_array(_target_g(model, theta, target)[0])


def h_function(model: SerialChainModel, theta: np.ndarray, target="ee") -> np.ndarray:
    """Second-order influence coefficients (n x 6 x n) of a target point.

    ``H[i, k, j]`` is the derivative of ``G[k, j]`` with respect to joint i.
    The translation rows form a true symmetric Hessian of the target point;
    the orientation rows are the exact derivative of the angular-velocity
    Jacobian, which for spatial chains is symmetric only where joint axes
    are parallel.
    """
    return _point_h(*_target_g(model, theta, target))


def compute_gkic(model: SerialChainModel, theta: np.ndarray, target="ee") -> GKICSet:
    """Both coefficient orders for one target in a single sweep."""
    g, last = _target_g(model, theta, target)
    return GKICSet(_g_array(g), _point_h(g, last))


def _g_array(g: list[float]) -> np.ndarray:
    """G (6 x n, C-contiguous) from ``_point_g``'s columns."""
    return np.array(g).reshape(-1, 6).T.copy()


def _target_g(model, theta, target) -> tuple[list[float], int]:
    """G's columns of a target, in floats from ``frame_floats``, and the last joint moving it."""
    rots, origins = frame_floats(model, _check_theta(model, theta))
    last, at_com = _resolve_target(model, target)
    point = origins[3 * last : 3 * last + 3]
    if at_com:
        rot = np.reshape(rots[9 * last : 9 * last + 9], (1, 3, 3))
        point = _world_coms(rot, np.reshape(point, (1, 3)), model.coms[last : last + 1])[0].tolist()
    return _point_g(rots, origins, last, point), last


def _point_g(rots, origins, last, point) -> list[float]:
    """G's columns of a point moved by joints 0..last, six floats a joint, from ``frame_floats``'s lists.

    Column i is ``[z_i x (p - o_i); z_i]`` for i <= last, each cross
    product in ``np.cross``'s order of operations, and 0.0 past ``last``.
    """
    px, py, pz = point
    cols = []
    for i in range(last + 1):
        z0, z1, z2 = rots[9 * i + 2 : 9 * i + 9 : 3]
        d0, d1, d2 = px - origins[3 * i], py - origins[3 * i + 1], pz - origins[3 * i + 2]
        cols += (z1 * d2 - z2 * d1, z2 * d0 - z0 * d2, z0 * d1 - z1 * d0, z0, z1, z2)
    return cols + [0.0] * (2 * len(origins) - len(cols))


def _point_h(g, last) -> np.ndarray:
    """H (n, 6, n) from ``_point_g``'s columns, in ``np.cross``'s order of operations.

    For i, j <= last, ``H[i, :3, j] = z_min(i,j) x G[:3, max(i,j)]`` and
    ``H[i, 3:, j] = z_i x z_j`` if i < j. Every other entry is 0.0.
    """
    n = len(g) // 6
    lin = list(zip(g[0::6], g[1::6], g[2::6]))
    zs = list(zip(g[3::6], g[4::6], g[5::6]))
    h = [0.0] * (6 * n * n)
    for i in range(last + 1):
        a0, a1, a2 = zs[i]
        for j in range(last + 1):
            (c0, c1, c2), (b0, b1, b2) = (zs[j], lin[i]) if j < i else (zs[i], lin[j])
            at = 6 * n * i + j
            h[at] = c1 * b2 - c2 * b1
            h[at + n] = c2 * b0 - c0 * b2
            h[at + 2 * n] = c0 * b1 - c1 * b0
            if i < j:
                b0, b1, b2 = zs[j]
                h[at + 3 * n] = a1 * b2 - a2 * b1
                h[at + 4 * n] = a2 * b0 - a0 * b2
                h[at + 5 * n] = a0 * b1 - a1 * b0
    return np.array(h).reshape(n, 6, n)


def ee_velocity(g: np.ndarray, theta_dot: np.ndarray) -> Twist:
    """Task-space twist from joint rates.

    A non-finite ``g`` or ``theta_dot`` is refused with a ``ValueError``
    that names it, before the product can warn.
    """
    g = np.asarray(g, dtype=float)
    theta_dot = np.asarray(theta_dot, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("g must be finite")
    if not np.isfinite(theta_dot).all():
        raise ValueError(f"theta_dot must be finite, got {theta_dot.tolist()}")
    rate = g @ theta_dot
    return Twist(rate[:3], rate[3:])


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
