"""Chain dynamics assembled from influence coefficients.

The joint-space model is

    tau = I*(q) qdd + qd . P*(q) . qd + tau_g(q) + sum_k G_k^T w_k

where I* is the effective inertia matrix, P* the inertia power array
whose quadratic form in the joint rates gives the Coriolis/centripetal
torque, tau_g the torque needed to hold the chain against gravity, and
each external wrench w_k enters through the coefficient matrix of its
application point.

Forward and inverse dynamics take the velocity-product torque in the
Jacobian-transpose Newton-Euler form over the same link-COM G that the
inertia needs, sum_l G_l^T [m_l a_l ; Pi_l alpha_l + w_l x Pi_l w_l]
with the link accelerations the joint rates alone give, so they build
neither H nor P*. P* stays the paper's array for the public API:
``compute_dynamics`` and ``inertia_power_matrix`` return it, and
``coriolis_torque`` contracts it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError
from .kinematics import JointState, SerialChainModel, _g_of, _h_of, _target_g, frame_transforms
from .spatial import Wrench
from .units import GRAVITY

CONDITION_LIMIT = 1.0e12

# Row j is the cross-product matrix [e_j]x, flattened; [v]x = sum_j v_j [e_j]x.
_SKEW_BASIS = np.array([np.cross(e, np.eye(3)).T.ravel() for e in np.eye(3)])
_SKEW_BASIS.flags.writeable = False


@dataclass(frozen=True)
class ExternalLoad:
    """A wrench applied to one link at a chosen target point."""

    wrench: Wrench
    link: int
    at: str = "frame"  # "frame" or "com"

    def target(self):
        if self.at not in ("frame", "com"):
            raise ValueError("load target must be 'frame' or 'com'")
        return (self.at, self.link)


@dataclass(frozen=True)
class DynamicsQuantities:
    """Configuration-dependent terms of the joint-space model."""

    inertia: np.ndarray
    power: np.ndarray
    gravity: np.ndarray


def _gravity_vector(gravity) -> np.ndarray:
    return np.array([0.0, 0.0, -GRAVITY]) if gravity is None else np.asarray(gravity, dtype=float)


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x (..., 3, 3) of vectors (..., 3): [v]x r = v x r."""
    return (v @ _SKEW_BASIS).reshape(v.shape + (3,))


def _link_terms(model: SerialChainModel, theta: np.ndarray):
    """Link frames, COM offsets from the link origins, the link-COM G and Pi.

    Returns ``rots`` (n,3,3), ``origins`` (n,3), ``rc`` (n,3), G (n,6,n)
    of every link COM and the world inertias ``pi`` (n,3,3), all from one
    pose transform.
    """
    rots, origins = frame_transforms(model, theta)
    rc = np.einsum("lij,lj->li", rots, model.coms)
    g = _g_of(rots, origins, origins + rc, np.arange(model.dof))
    pi = np.einsum("lij,ljk,lmk->lim", rots, model.inertias, rots)
    return rots, origins, rc, g, pi


def _inertia(m: np.ndarray, g: np.ndarray, pig: np.ndarray) -> np.ndarray:
    """I* = sum_l m_l Gc_l^T Gc_l + Gw_l^T Pi_l Gw_l, with ``pig`` = Pi_l Gw_l."""
    gc, gw = g[:, :3], g[:, 3:]
    return np.einsum("l,lki,lkj->ij", m, gc, gc) + np.einsum("lki,lkj->ij", gw, pig)


def compute_dynamics(
    model: SerialChainModel, theta: np.ndarray, gravity: np.ndarray | None = None
) -> DynamicsQuantities:
    """Inertia, power array, and gravity torque from the G/H of every link COM."""
    g_vec = _gravity_vector(gravity)
    rots, _, _, g, pi = _link_terms(model, theta)
    h = _h_of(rots[:, :, 2], g)
    gc, gw = g[:, :3], g[:, 3:]
    hc, hw = h[:, :, :3], h[:, :, 3:]
    m = model.masses
    pig = pi @ gw
    inertia = _inertia(m, g, pig)
    # dI*/dtheta_i = T_i + T_i^T. The rotation rows also carry the spin of
    # link l's world inertia, dPi/dtheta_i = [z_i]Pi - Pi[z_i] for i <= l;
    # as z_i x z_b = hw[i, :, b] - hw[b, :, i] on those links, that term
    # turns hw[l, i, :, b] into hw[l, b, :, i].
    term = np.einsum("l,likb,lkc->ibc", m, hc, gc) + np.einsum("lbki,lkc->ibc", hw, pig)
    grad = term + term.transpose(0, 2, 1)
    power = grad - 0.5 * np.transpose(grad, (1, 0, 2))
    grav = -np.einsum("l,lki,k->i", m, gc, g_vec)
    return DynamicsQuantities(inertia=inertia, power=power, gravity=grav)


def _joint_terms(model, theta, theta_dot, gravity, loads, viscous) -> tuple[np.ndarray, np.ndarray]:
    """Inertia I* and bias torque, the joint torque of ``theta_dot`` at zero qdd.

    The bias is the Newton-Euler sum over the link COMs of
    G_l^T [m_l (a_l - g) ; Pi_l alpha_l + w_l x Pi_l w_l], where w_l,
    alpha_l and a_l are the angular velocity, angular acceleration and
    COM acceleration the joint rates give with qdd = 0, plus the load
    and viscous torques.
    """
    rots, origins, rc, g, pi = _link_terms(model, theta)
    n = model.dof
    m = model.masses
    inertia = _inertia(m, g, pi @ g[:, 3:])
    # Columns w_l = sum_{j<=l} qd_j z_j and alpha_l = sum_{j<=l} w_{j-1} x qd_j z_j.
    rates = np.empty((n, 3, 2))
    zq = rots[:, :, 2] * theta_dot[:, None]
    w = np.cumsum(zq, axis=0, out=rates[:, :, 1])
    skew_w = _skew(w)
    turn = np.zeros((n, 3))
    turn[1:] = (skew_w[:-1] @ zq[1:, :, None])[:, :, 0]
    alpha = np.cumsum(turn, axis=0, out=rates[:, :, 0])
    # A point fixed in link l at r from its origin accelerates by K_l r
    # relative to it, K_l = [alpha_l] + [w_l]^2. The points are the COM
    # and the next link's origin, so link 1's fixed origin starts a sum.
    lever = np.zeros((n, 3, 2))
    lever[:, :, 0] = rc
    lever[:-1, :, 1] = np.diff(origins, axis=0)
    rel = (_skew(alpha) + skew_w @ skew_w) @ lever
    acc = rel[:, :, 0]
    acc[1:] += np.cumsum(rel[:-1, :, 1], axis=0)
    spin = pi @ rates
    wrench = np.empty((n, 6))
    wrench[:, :3] = m[:, None] * (acc - _gravity_vector(gravity))
    wrench[:, 3:] = spin[:, :, 0] + (skew_w @ spin[:, :, 1:])[:, :, 0]
    bias = wrench.reshape(-1) @ g.reshape(-1, n)
    for load in loads:
        bias += _target_g(model, rots, origins, load.target())[0].T @ load.wrench.as_array()
    if viscous is not None:
        bias += np.asarray(viscous, dtype=float) * theta_dot
    return inertia, bias


def effective_inertia(model: SerialChainModel, theta: np.ndarray) -> np.ndarray:
    """Joint-space inertia matrix I*(q); kinetic energy is qd^T I* qd / 2."""
    return compute_dynamics(model, theta).inertia


def inertia_power_matrix(model: SerialChainModel, theta: np.ndarray) -> np.ndarray:
    """Power array P* (n,n,n); Coriolis torque component l is qd . P*[:, l, :] . qd."""
    return compute_dynamics(model, theta).power


def gravity_torque(
    model: SerialChainModel, theta: np.ndarray, gravity: np.ndarray | None = None
) -> np.ndarray:
    """Joint torque that statically balances gravity."""
    return compute_dynamics(model, theta, gravity).gravity


def coriolis_torque(power: np.ndarray, theta_dot: np.ndarray) -> np.ndarray:
    qd = np.asarray(theta_dot, dtype=float)
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

    Raises DegenerateConfigurationError when the effective inertia is not
    positive definite or its condition number exceeds CONDITION_LIMIT.
    """
    theta_dot = np.asarray(theta_dot, dtype=float)
    inertia, bias = _joint_terms(model, theta, theta_dot, gravity, loads, viscous)
    # The extreme eigenvalues of the symmetric inertia give its exact
    # 2-norm condition number; a matrix that is not positive definite fails too.
    w = np.linalg.eigvalsh(inertia)
    if not w[0] * CONDITION_LIMIT >= w[-1] > 0.0:
        raise DegenerateConfigurationError(
            "effective inertia is numerically singular at this configuration"
        )
    return np.linalg.solve(inertia, np.asarray(tau, dtype=float) - bias)
