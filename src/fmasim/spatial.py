"""Rigid-body rotations, poses, wrenches, twists, and 6x6 force transforms.

Conventions used throughout:

* Orientation parameters are fixed-axis X-Y-Z Euler angles, i.e. the
  rotation matrix is ``Rz(ez) @ Ry(ey) @ Rx(ex)``.
* A wrench stacks force over moment, ``[Fx Fy Fz Tx Ty Tz]``; a twist
  stacks linear over angular velocity.
* The spatial force transform of a frame whose rotation is R and whose
  origin sits at p in the target frame is ``[[R, 0], [skew(p) @ R, R]]``.
* ``skew`` is batched: it maps vectors (..., 3) to their cross-product
  matrices (..., 3, 3) in one product with a constant basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import checked_scalar, frozen_array

# Row j is the cross-product matrix [e_j]x, flattened; [v]x = sum_j v_j [e_j]x.
_SKEW_BASIS = np.array([np.cross(e, np.eye(3)).T.ravel() for e in np.eye(3)])
_SKEW_BASIS.flags.writeable = False


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of vectors (..., 3): skew(v) @ u == np.cross(v, u)."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape + (3,))


# numpy's LAPACK gufuncs under the error state ``np.linalg.solve`` and
# ``np.linalg.eigvalsh`` set around them, without the wrappers' per-call
# conversions: for float64 arguments the same bits and the same errors.
# Checked on numpy 2.4.6; a per-tick path calls these, a cold one np.linalg.
def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _raise_no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a float (n, n) ``a`` and (n,) ``b``."""
    return _umath_linalg.solve1(a, b)


@np.errstate(call=_raise_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack_eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``, ascending, for a float symmetric (n, n) ``a``; reads the lower triangle."""
    return _umath_linalg.eigvalsh_lo(a)


@dataclass(frozen=True, eq=False)
class Rotation:
    """Proper orthonormal 3x3 rotation matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = frozen_array(self.matrix, "rotation matrix", (3, 3))
        if np.max(np.abs(m.T @ m - np.eye(3))) > 1.0e-9:
            raise ValueError("matrix is not orthonormal")
        if abs(np.linalg.det(m) - 1.0) > 1.0e-9:
            raise ValueError("matrix determinant is not +1")
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(self.matrix @ other.matrix)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)

    def as_fixed_euler(self) -> np.ndarray:
        """Extract fixed-axis X-Y-Z angles (ex, ey, ez), each in (-pi, pi]."""
        m = self.matrix
        ey = np.arctan2(-m[2, 0], np.hypot(m[0, 0], m[1, 0]))
        if abs(abs(ey) - np.pi / 2) < 1.0e-12:
            # Gimbal degeneracy: only ez -/+ ex is observable; pin ez = 0.
            ez = 0.0
            ex = np.arctan2(m[0, 1], m[1, 1]) if ey > 0 else np.arctan2(-m[0, 1], m[1, 1])
        else:
            ex = np.arctan2(m[2, 1], m[2, 2])
            ez = np.arctan2(m[1, 0], m[0, 0])
        return np.array([_wrap_angle(ex), _wrap_angle(ey), _wrap_angle(ez)])


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = (a + np.pi) % (2.0 * np.pi) - np.pi
    if w == -np.pi:
        w = np.pi
    return float(w)


def rotation_from_fixed_euler(ex: float, ey: float, ez: float) -> Rotation:
    """Rotation about fixed axes X then Y then Z: Rz(ez) @ Ry(ey) @ Rx(ex)."""
    for name, val in (("ex", ex), ("ey", ey), ("ez", ez)):
        checked_scalar(val, name)
    cx, sx = np.cos(ex), np.sin(ex)
    cy, sy = np.cos(ey), np.sin(ey)
    cz, sz = np.cos(ez), np.sin(ez)
    m = np.array(
        [
            [cy * cz, sx * sy * cz - cx * sz, cx * sy * cz + sx * sz],
            [cy * sz, sx * sy * sz + cx * cz, cx * sy * sz - sx * cz],
            [-sy, sx * cy, cx * cy],
        ]
    )
    return Rotation(m)


@dataclass(frozen=True, eq=False)
class Pose:
    """Position (m) plus fixed-axis X-Y-Z Euler orientation (rad)."""

    position: np.ndarray
    euler: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", frozen_array(self.position, "position", (3,)))
        e = frozen_array(self.euler, "euler", (3,))
        object.__setattr__(self, "euler", frozen_array([_wrap_angle(a) for a in e], "euler", (3,)))

    def rotation(self) -> Rotation:
        return rotation_from_fixed_euler(*self.euler)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.euler])


@dataclass(frozen=True, eq=False)
class Wrench:
    """Force (N) and moment (N*m) stacked as one 6-vector."""

    force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    moment: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "force", frozen_array(self.force, "force", (3,)))
        object.__setattr__(self, "moment", frozen_array(self.moment, "moment", (3,)))

    @staticmethod
    def from_array(a: np.ndarray) -> "Wrench":
        a = frozen_array(a, "wrench array", (6,))
        return Wrench(a[:3], a[3:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.force, self.moment])


@dataclass(frozen=True, eq=False)
class Twist:
    """Linear (m/s) and angular (rad/s) velocity stacked as one 6-vector."""

    linear: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "linear", frozen_array(self.linear, "linear velocity", (3,)))
        object.__setattr__(self, "angular", frozen_array(self.angular, "angular velocity", (3,)))

    @staticmethod
    def from_array(a: np.ndarray) -> "Twist":
        a = frozen_array(a, "twist array", (6,))
        return Twist(a[:3], a[3:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.linear, self.angular])


@dataclass(frozen=True, eq=False)
class SpatialTransform:
    """6x6 wrench transform between frames of a rigid assembly."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation", frozen_array(self.translation, "translation", (3,)))

    @staticmethod
    def identity() -> "SpatialTransform":
        return SpatialTransform(Rotation.identity(), np.zeros(3))

    @property
    def matrix(self) -> np.ndarray:
        r = self.rotation.matrix
        out = np.zeros((6, 6))
        out[:3, :3] = r
        out[3:, 3:] = r
        out[3:, :3] = skew(self.translation) @ r
        return out

    def apply(self, w: Wrench) -> Wrench:
        """Express a wrench measured in the source frame in the target frame."""
        f = self.rotation.matrix @ w.force
        m = self.rotation.matrix @ w.moment + np.cross(self.translation, f)
        return Wrench(f, m)


def compose(a: SpatialTransform, b: SpatialTransform) -> SpatialTransform:
    """Transform composition: compose(a, b).apply(w) == a.apply(b.apply(w))."""
    r = a.rotation.compose(b.rotation)
    p = a.translation + a.rotation.apply(b.translation)
    return SpatialTransform(r, p)
