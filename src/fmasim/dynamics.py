"""Chain dynamics of serial chains.

The joint-space model is

    tau = I*(q) qdd + qd . P*(q) . qd + tau_g(q) + sum_k G_k^T w_k

where I* is the effective inertia matrix, P* the inertia power array
whose quadratic form in the joint rates gives the Coriolis/centripetal
torque, tau_g the torque needed to hold the chain against gravity, and
each external wrench w_k enters through the coefficient matrix of its
application point.

I*, tau_g and the bias torque (the joint torque at qdd = 0) come from one
kernel in world-frame spatial vectors about the base origin (Featherstone,
*Rigid Body Dynamics Algorithms*, 2008). Link l's spatial inertia J_l
about its own frame origin is a constant of the chain
(``SerialChainModel._spatial_inertias``). The frame's force transform
X_l = [[R_l, [o_l]x R_l], [0, R_l]] moves it to the base origin,
I_l = X_l J_l X_l^T, and its columns 2 and 5 are joint l's axis
s_l = (z_l; o_l x z_l). Composite rigid bodies give I*_ij = s_i . Ic_k
s_j, k = max(i, j), with Ic_k = sum_{l>=k} I_l. The bias is one
Newton-Euler sweep at qdd = 0: velocities v_l = sum_{j<=l} s_j qd_j,
accelerations a_l = sum_{j<=l} v_j x s_j qd_j over the base
acceleration (0; -g), link forces I_l a_l + v_l x* I_l v_l plus each
external wrench as the spatial force (n + p x f; f) on its link, and
bias_j = s_j . sum_{l>=j} of the forces.

P* comes from the same composite inertias (Garofalo, Ott and
Albu-Schaeffer, IROS 2013). Joint i turns every axis and link beyond it
rigidly, so s_j . Ic_m s_k changes with q_i only where its factors
straddle joint i. With T[i,j,k] = (s_j x s_i) . Ic_max(i,k) s_k for
j < i and 0 otherwise, dI*_jk/dq_i = T[i,j,k] + T[i,k,j], and
P*[i,l,j] = dI*_lj/dq_i - dI*_ij/dq_l / 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateConfigurationError
from .kinematics import JointState, SerialChainModel, _resolve_target, _world_coms, frame_transforms
from .spatial import Wrench, _lapack_eigvalsh, _lapack_solve, checked_vector, frozen_array, skew
from .units import GRAVITY

CONDITION_LIMIT = 1.0e12
_DEFAULT_GRAVITY = frozen_array([0.0, 0.0, -GRAVITY], "gravity", (3,))

# Row k is the spatial cross matrix of unit motion vector k, flattened:
# (w; u) x = [[w]x, 0; [u]x, [w]x] = I2 (x) [w]x + [[0, 0], [1, 0]] (x) [u]x.
_MOTION_CROSS_BASIS = np.array([
    np.kron(b, s).ravel() for b in (np.eye(2), np.eye(2, k=-1)) for s in skew(np.eye(3))
])
_MOTION_CROSS_BASIS.flags.writeable = False


@dataclass(frozen=True)
class ExternalLoad:
    """A wrench applied to one link at a chosen target point."""

    wrench: Wrench
    link: int
    at: str = "frame"  # "frame" or "com"

    def target(self):
        return (self.at, self.link)


@dataclass(frozen=True, eq=False)
class DynamicsQuantities:
    """Configuration-dependent terms of the joint-space model."""

    inertia: np.ndarray
    power: np.ndarray
    gravity: np.ndarray


def _gravity_vector(gravity) -> np.ndarray:
    return _DEFAULT_GRAVITY if gravity is None else checked_vector(gravity, "gravity", 3)


@lru_cache(maxsize=None)
def _upper_ones(n: int) -> np.ndarray:
    """(n, n) ones on and above the diagonal: row j of ``U @ x`` sums x_l over l >= j."""
    return frozen_array(np.triu(np.ones((n, n))), "upper", (n, n))


def _composite_terms(model, rots, origins, g_vec):
    """Joint axes s (n,6), link and composite spatial inertias (n,6,6), I* and tau_g."""
    n = model.dof
    upper = _upper_ones(n)
    xf = np.zeros((n, 6, 6))
    xf[:, :3, :3] = xf[:, 3:, 3:] = rots
    np.matmul(skew(origins), rots, out=xf[:, :3, 3:])
    axes = xf[:, :3, 2::3].transpose(0, 2, 1).reshape(n, 6)
    inert = xf @ model._spatial_inertias @ xf.transpose(0, 2, 1)
    # axial_j = Ic_j s_j, so s_i . axial_j is I*_ij for i <= j. Every link shares
    # the base acceleration (0; -g), so its forces on joint j sum to Ic_j (0; -g).
    composite = (upper @ inert.reshape(n, 36)).reshape(n, 6, 6)
    axial = (composite @ axes[:, :, None])[:, :, 0]
    cols = axes @ axial.T
    return axes, inert, composite, np.where(upper, cols, cols.T), -axial[:, 3:] @ g_vec


def compute_dynamics(
    model: SerialChainModel, theta: np.ndarray, gravity: np.ndarray | None = None
) -> DynamicsQuantities:
    """I*, P* and tau_g from the composite rigid bodies."""
    rots, origins = frame_transforms(model, theta)
    axes, _, composite, inertia, grav = _composite_terms(model, rots, origins, _gravity_vector(gravity))
    n = model.dof
    idx = np.arange(n)
    # reach[i, k] = Ic_max(i,k) s_k and turn[j, :, i] = s_j x s_i.
    reach = (composite @ axes.T)[np.maximum.outer(idx, idx), :, idx]
    turn = (axes @ _MOTION_CROSS_BASIS).reshape(n, 6, 6) @ axes.T
    term = np.einsum("jai,ika->ijk", turn, reach) * (1.0 - _upper_ones(n))[:, :, None]
    grad = term + term.transpose(0, 2, 1)
    power = grad - 0.5 * np.transpose(grad, (1, 0, 2))
    return DynamicsQuantities(inertia=inertia, power=power, gravity=grav)


def _joint_terms(model, theta, theta_dot, gravity, loads, viscous) -> tuple[np.ndarray, np.ndarray]:
    """I* and the bias: the velocity-product, gravity, load and viscous torques at zero qdd."""
    theta_dot = checked_vector(theta_dot, "theta_dot", model.dof)
    if viscous is not None:
        viscous = checked_vector(viscous, "viscous", model.dof)
    rots, origins = frame_transforms(model, theta)
    axes, inert, _, inertia, bias = _composite_terms(model, rots, origins, _gravity_vector(gravity))
    upper = _upper_ones(model.dof)
    rate = axes * theta_dot[:, None]
    vel = upper.T @ rate
    cross = (vel @ _MOTION_CROSS_BASIS).reshape(-1, 6, 6)
    acc = upper.T @ (cross @ rate[:, :, None])[:, :, 0]
    # Link forces I a + v x* I v, with v x* f = -(v x)^T f.
    force = (inert @ acc[:, :, None] - cross.transpose(0, 2, 1) @ (inert @ vel[:, :, None]))[:, :, 0]
    for load in loads:
        link, at_com = _resolve_target(model, load.target())
        at = slice(link, link + 1)
        point = _world_coms(rots[at], origins[at], model.coms[at])[0] if at_com else origins[link]
        force[link, :3] += load.wrench.moment + skew(point) @ load.wrench.force
        force[link, 3:] += load.wrench.force
    bias += (axes[:, None, :] @ (upper @ force)[:, :, None])[:, 0, 0]
    if viscous is not None:
        bias += viscous * theta_dot
    return inertia, bias


def coriolis_torque(power: np.ndarray, theta_dot: np.ndarray) -> np.ndarray:
    """Velocity-product torque qd . P* . qd; a wrongly shaped or non-finite theta_dot is refused by name."""
    qd = checked_vector(theta_dot, "theta_dot", len(power))
    return np.einsum("i,ilj,j->l", qd, power, qd)


def inverse_dynamics(
    model: SerialChainModel,
    state: JointState,
    gravity: np.ndarray | None = None,
    loads: tuple[ExternalLoad, ...] = (),
    viscous: np.ndarray | None = None,
) -> np.ndarray:
    """Joint torques that realize the accelerations in ``state``."""
    inertia, bias = _joint_terms(model, state.theta, state.theta_dot, gravity, loads, viscous)
    return inertia @ state.theta_ddot + bias


def forward_dynamics(
    model: SerialChainModel,
    theta: np.ndarray,
    theta_dot: np.ndarray,
    tau: np.ndarray,
    gravity: np.ndarray | None = None,
    loads: tuple[ExternalLoad, ...] = (),
    viscous: np.ndarray | None = None,
) -> np.ndarray:
    """Joint accelerations from applied torques.

    Raises ValueError when ``theta_dot``, ``tau``, ``gravity`` or
    ``viscous`` has the wrong shape or is not finite, and
    DegenerateConfigurationError when the effective inertia is not positive
    definite or its condition number exceeds CONDITION_LIMIT.
    """
    tau = checked_vector(tau, "tau", model.dof)
    inertia, bias = _joint_terms(model, theta, theta_dot, gravity, loads, viscous)
    # The extreme eigenvalues of the symmetric inertia give its exact
    # 2-norm condition number; a matrix that is not positive definite fails too.
    w = _lapack_eigvalsh(inertia)
    if not w[0] * CONDITION_LIMIT >= w[-1] > 0.0:
        raise DegenerateConfigurationError(
            "effective inertia is numerically singular at this configuration"
        )
    return _lapack_solve(inertia, tau - bias)
