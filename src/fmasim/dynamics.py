"""Chain dynamics assembled from influence coefficients.

The joint-space model is

    tau = I*(q) qdd + qd . P*(q) . qd + tau_g(q) + sum_k G_k^T w_k

where I* is the effective inertia matrix, P* the inertia power array
whose quadratic form in the joint rates gives the Coriolis/centripetal
torque, tau_g the torque needed to hold the chain against gravity, and
each external wrench w_k enters through the coefficient matrix of its
application point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError
from .kinematics import JointState, SerialChainModel, _g_of, _h_of, frame_transforms, g_function
from .spatial import Wrench

CONDITION_LIMIT = 1.0e12


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


def compute_dynamics(
    model: SerialChainModel, theta: np.ndarray, gravity: np.ndarray | None = None
) -> DynamicsQuantities:
    """Inertia, power array, and gravity torque from the G/H of every link COM."""
    g_vec = np.array([0.0, 0.0, -9.81]) if gravity is None else np.asarray(gravity, dtype=float)
    rots, origins = frame_transforms(model, theta)
    coms = origins + np.einsum("lij,lj->li", rots, model.coms)
    g = _g_of(rots, origins, coms, np.arange(model.dof))
    h = _h_of(rots[:, :, 2], g)
    gc, gw = g[:, :3], g[:, 3:]
    hc, hw = h[:, :, :3], h[:, :, 3:]
    m = model.masses
    pi = np.einsum("lij,ljk,lmk->lim", rots, model.inertias, rots)
    pig = pi @ gw
    inertia = np.einsum("l,lki,lkj->ij", m, gc, gc) + np.einsum("lki,lkj->ij", gw, pig)
    # dI*/dtheta_i = T_i + T_i^T. The rotation rows also carry the spin of
    # link l's world inertia, dPi/dtheta_i = [z_i]Pi - Pi[z_i] for i <= l;
    # as z_i x z_b = hw[i, :, b] - hw[b, :, i] on those links, that term
    # turns hw[l, i, :, b] into hw[l, b, :, i].
    term = np.einsum("l,likb,lkc->ibc", m, hc, gc) + np.einsum("lbki,lkc->ibc", hw, pig)
    grad = term + term.transpose(0, 2, 1)
    power = grad - 0.5 * np.transpose(grad, (1, 0, 2))
    grav = -np.einsum("l,lki,k->i", m, gc, g_vec)
    return DynamicsQuantities(inertia=inertia, power=power, gravity=grav)


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


def _load_torques(model, theta, loads) -> np.ndarray:
    tau = np.zeros(model.dof)
    for load in loads:
        g = g_function(model, theta, load.target())
        tau += g.T @ load.wrench.as_array()
    return tau


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
    quant = compute_dynamics(model, state.theta, gravity)
    tau = quant.inertia @ state.theta_ddot
    tau += coriolis_torque(quant.power, state.theta_dot)
    tau += quant.gravity
    tau += _load_torques(model, state.theta, loads)
    if viscous is not None:
        tau += np.asarray(viscous, dtype=float) * state.theta_dot
    return tau


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
    theta = np.asarray(theta, dtype=float)
    theta_dot = np.asarray(theta_dot, dtype=float)
    tau = np.asarray(tau, dtype=float)
    quant = compute_dynamics(model, theta, gravity)
    # The extreme eigenvalues of the symmetric inertia give its exact
    # 2-norm condition number; a matrix that is not positive definite fails too.
    w = np.linalg.eigvalsh(quant.inertia)
    if not w[0] * CONDITION_LIMIT >= w[-1] > 0.0:
        raise DegenerateConfigurationError(
            "effective inertia is numerically singular at this configuration"
        )
    rhs = tau - coriolis_torque(quant.power, theta_dot) - quant.gravity
    rhs -= _load_torques(model, theta, loads)
    if viscous is not None:
        rhs -= np.asarray(viscous, dtype=float) * theta_dot
    return np.linalg.solve(quant.inertia, rhs)
