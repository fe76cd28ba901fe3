"""Independent numerical oracles used by the unit and acceptance tests.

Everything here is derived from first principles (finite differences,
a symbolic Lagrangian), never from the code under test.
"""
import math
from collections import deque
from functools import lru_cache

import numpy as np

from fmasim.kinematics import forward_kinematics, frame_transforms, g_function, h_function


def loop_frame_transforms(model, theta):
    """Rotations (n,3,3) and origins (n,3) of every link frame, one D-H row at a time.

    The per-row form of ``frame_transforms``: each row's cos/sin and
    relative transform come from scalar calls, then the same sequential
    products from the identity, as numpy elementwise products summed in
    index order from 0.0, the order of a matrix product without fused
    multiply-adds. The arithmetic is the same, so the results must be
    equal to the bit.
    """
    theta = np.asarray(theta, dtype=float)
    n = len(model.dh)
    rots = np.empty((n, 3, 3))
    origins = np.empty((n, 3))
    r = np.eye(3)
    p = np.zeros(3)
    for i, row in enumerate(model.dh):
        th = theta[i] + row.theta_offset
        ca, sa = math.cos(row.alpha_prev), math.sin(row.alpha_prev)
        ct, st = math.cos(th), math.sin(th)
        r_rel = np.array([[ct, -st, 0.0], [st * ca, ct * ca, -sa], [st * sa, ct * sa, ca]])
        p_rel = np.array([row.a_prev, -sa * row.d, ca * row.d])
        p = p + (0.0 + r[:, 0] * p_rel[0] + r[:, 1] * p_rel[1] + r[:, 2] * p_rel[2])
        r = 0.0 + r[:, 0:1] * r_rel[0] + r[:, 1:2] * r_rel[1] + r[:, 2:3] * r_rel[2]
        rots[i] = r
        origins[i] = p
    return rots, origins


def _target_frame(model, theta, target):
    """World rotation of the link carrying a target, and the target point."""
    rots, origins = frame_transforms(model, theta)
    if target == "ee":
        return rots[-1], origins[-1]
    kind, j = target
    if kind == "com":
        return rots[j - 1], origins[j - 1] + rots[j - 1] @ model.coms[j - 1]
    return rots[j - 1], origins[j - 1]


def fd_jacobian(model, theta, h=1.0e-6, target="ee"):
    """6 x n influence coefficients by central differences.

    Translation rows differentiate the target point (by default the
    end-frame origin); rotation rows extract the angular velocity of the
    link carrying it from dR/dtheta_i R^T.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    out = np.zeros((6, n))
    rot0, _ = _target_frame(model, theta, target)
    for i in range(n):
        dp = np.zeros(n)
        dp[i] = h
        rot_p, point_p = _target_frame(model, theta + dp, target)
        rot_m, point_m = _target_frame(model, theta - dp, target)
        out[:3, i] = (point_p - point_m) / (2.0 * h)
        omega_hat = (rot_p - rot_m) / (2.0 * h) @ rot0.T
        out[3:, i] = [omega_hat[2, 1], omega_hat[0, 2], omega_hat[1, 0]]
    return out


def fd_hessian(model, theta, h=1.0e-6, target="ee"):
    """(n, 6, n) derivative of the coefficient matrix by central differences."""
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    out = np.zeros((n, 6, n))
    for i in range(n):
        dp = np.zeros(n)
        dp[i] = h
        out[i] = (
            g_function(model, theta + dp, target) - g_function(model, theta - dp, target)
        ) / (2.0 * h)
    return out


def loop_influence_coefficients(model, theta, target="ee"):
    """G (6, n) and H (n, 6, n) of one target, one joint pair at a time.

    The plain-loop form of the cross-product recurrence that kinematics
    evaluates with its float G and H kernels; the arithmetic is the same,
    so the results must be equal, not merely close.
    """
    rots, origins = frame_transforms(model, theta)
    _, point = _target_frame(model, theta, target)
    n = len(theta)
    last = n - 1 if target == "ee" else target[1] - 1
    zs = rots[:, :, 2]
    g = np.zeros((6, n))
    h = np.zeros((n, 6, n))
    for j in range(last + 1):
        g[:3, j] = np.cross(zs[j], point - origins[j])
        g[3:, j] = zs[j]
        for i in range(last + 1):
            if i <= j:
                h[i, :3, j] = np.cross(zs[i], np.cross(zs[j], point - origins[j]))
            else:
                h[i, :3, j] = np.cross(zs[j], np.cross(zs[i], point - origins[i]))
            if i < j:
                h[i, 3:, j] = np.cross(zs[i], zs[j])
    return g, h


def rnea_torques(model, theta, theta_dot, theta_ddot, gravity):
    """Inverse dynamics by the recursive Newton-Euler algorithm.

    Luh, Walker & Paul (1980) in Craig's link-frame form for proximal D-H
    rows: an outward sweep of link rates and accelerations, then an inward
    sweep of link forces and moments. Gravity enters as an upward base
    acceleration. Uses neither influence coefficients nor frame_transforms.
    """
    z = np.array([0.0, 0.0, 1.0])
    rots, offsets = [], []
    for row, q in zip(model.dh, theta):
        ca, sa = np.cos(row.alpha_prev), np.sin(row.alpha_prev)
        ct, st = np.cos(q + row.theta_offset), np.sin(q + row.theta_offset)
        rx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
        rz = np.array([[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]])
        rots.append(rx @ rz)  # frame i in frame i-1
        offsets.append(rx @ np.array([row.a_prev, 0.0, row.d]))  # origin i in frame i-1
    omega, alpha, accel = np.zeros(3), np.zeros(3), -np.asarray(gravity, dtype=float)
    forces, moments = [], []
    for i, (r, p) in enumerate(zip(rots, offsets)):
        accel = r.T @ (np.cross(alpha, p) + np.cross(omega, np.cross(omega, p)) + accel)
        alpha = r.T @ alpha + np.cross(r.T @ omega, theta_dot[i] * z) + theta_ddot[i] * z
        omega = r.T @ omega + theta_dot[i] * z
        c, inertia = model.coms[i], model.inertias[i]
        accel_com = accel + np.cross(alpha, c) + np.cross(omega, np.cross(omega, c))
        forces.append(model.masses[i] * accel_com)
        moments.append(inertia @ alpha + np.cross(omega, inertia @ omega))
    tau = np.zeros(len(rots))
    f, n = np.zeros(3), np.zeros(3)
    for i in reversed(range(len(rots))):
        if i + 1 < len(rots):
            f_out, n_out = rots[i + 1] @ f, rots[i + 1] @ n
            p_out = offsets[i + 1]
        else:
            f_out, n_out, p_out = np.zeros(3), np.zeros(3), np.zeros(3)
        f = f_out + forces[i]
        n = moments[i] + n_out + np.cross(model.coms[i], forces[i]) + np.cross(p_out, f_out)
        tau[i] = n @ z
    return tau


def link_com_g_form(model, theta, gravity, loads):
    """I*, tau_g, the load torque and P* from the influence coefficients of every link COM.

    I* = sum_l m_l Gc_l^T Gc_l + Gw_l^T Pi_l Gw_l, tau_g = -sum_l m_l Gc_l^T g
    and the load torque sum_k G_k^T w_k, from one ``g_function`` call per
    link COM and per load target. P* comes from dI*/dtheta_i = T_i + T_i^T
    over each COM's ``h_function``: the rotation rows also carry the spin
    of link l's world inertia, dPi/dtheta_i = [z_i]Pi - Pi[z_i] for i <= l,
    which turns hw[i, :, b] into hw[b, :, i]. Returns a (value, scale) pair
    per array; the scale is the largest sum of the terms' magnitudes, so it
    bounds the rounding also where the terms cancel.
    """
    rots, _ = frame_transforms(model, theta)
    g_vec = np.asarray(gravity, dtype=float)
    n = len(theta)
    inertia, inertia_terms = np.zeros((n, n)), np.zeros((n, n))
    grav, grav_terms = np.zeros(n), np.zeros(n)
    term, term_sizes = np.zeros((n, n, n)), np.zeros((n, n, n))
    for link, (m, local) in enumerate(zip(model.masses, model.inertias)):
        target = ("com", link + 1)
        g, h = g_function(model, theta, target), h_function(model, theta, target)
        gc, gw = g[:3], g[3:]
        pi = rots[link] @ local @ rots[link].T
        inertia += m * gc.T @ gc + gw.T @ pi @ gw
        inertia_terms += m * abs(gc).T @ abs(gc) + abs(gw).T @ abs(pi) @ abs(gw)
        grav -= m * gc.T @ g_vec
        grav_terms += m * abs(gc).T @ abs(g_vec)
        term += m * np.einsum("ikb,kc->ibc", h[:, :3], gc) + np.einsum("bki,kc->ibc", h[:, 3:], pi @ gw)
        term_sizes += m * np.einsum("ikb,kc->ibc", abs(h[:, :3]), abs(gc))
        term_sizes += np.einsum("bki,kc->ibc", abs(h[:, 3:]), abs(pi) @ abs(gw))
    load, load_terms = np.zeros(n), np.zeros(n)
    for item in loads:
        g = g_function(model, theta, item.target())
        w = item.wrench.as_array()
        load += g.T @ w
        load_terms += abs(g).T @ abs(w)
    grad = term + term.transpose(0, 2, 1)
    grad_sizes = term_sizes + term_sizes.transpose(0, 2, 1)
    power = grad - 0.5 * grad.transpose(1, 0, 2)
    power_terms = grad_sizes + 0.5 * grad_sizes.transpose(1, 0, 2)
    return [
        (inertia, np.max(inertia_terms)),
        (grav, np.max(grav_terms)),
        (load, np.max(load_terms)),
        (power, np.max(power_terms)),
    ]


def world_com_spatial_inertias(model, theta):
    """Each link's spatial inertia (n,6,6) about the base origin, assembled from world COMs.

    [[Pi - m[c]x[c]x, m[c]x], [-m[c]x, m 1]] with c = o + R c_l the world
    COM and Pi = R I_c R^T the world inertia about it: the formula the
    dynamics kernel used before it moved each link's constant inertia by
    its frame transform. Returns (value, scale); the scale is the largest
    entry of the terms' magnitudes, with |o| + |R||c_l| for the COM, so it
    bounds the rounding of this form and of the transformed one.
    """
    rots, origins = frame_transforms(model, theta)
    m = model.masses[:, None, None]
    coms = origins + np.einsum("lij,lj->li", rots, model.coms)
    spans = abs(origins) + np.einsum("lij,lj->li", abs(rots), abs(model.coms))
    # [c]x has columns c x e_k, so it is the transpose of the rows np.cross(c, e_k).
    cx = np.cross(coms[:, None, :], np.eye(3)).transpose(0, 2, 1)
    mcx = m * cx
    pi = rots @ model.inertias @ rots.transpose(0, 2, 1)
    value = np.block([[pi - mcx @ cx, mcx], [-mcx, m * np.eye(3)]])
    span_x = abs(np.cross(spans[:, None, :], np.eye(3)))
    pi_terms = abs(rots) @ abs(model.inertias) @ abs(rots).transpose(0, 2, 1)
    terms = (pi_terms + m * span_x @ span_x, m * span_x, m * np.eye(3))
    return value, max(float(np.max(t)) for t in terms)


def fd_fk_position(model, theta):
    return forward_kinematics(model, theta).position


@lru_cache(maxsize=None)
def two_link_lagrangian_torques(m1, m2, length1, c1, c2, izz1, izz2, g=9.81):
    """Symbolic inverse dynamics of a 2R chain swinging in the x-y plane.

    Gravity acts along -y. Returns tau(theta, theta_dot, theta_ddot)
    lambdified from tau_i = d/dt(dL/dqd_i) - dL/dq_i. The derivation
    costs seconds in ``sp.simplify``, so each set of arguments is derived
    once per session.
    """
    import sympy as sp

    t = sp.symbols("t")
    q1, q2 = sp.Function("q1")(t), sp.Function("q2")(t)
    x1 = c1 * sp.cos(q1)
    y1 = c1 * sp.sin(q1)
    x2 = length1 * sp.cos(q1) + c2 * sp.cos(q1 + q2)
    y2 = length1 * sp.sin(q1) + c2 * sp.sin(q1 + q2)
    v1sq = sp.diff(x1, t) ** 2 + sp.diff(y1, t) ** 2
    v2sq = sp.diff(x2, t) ** 2 + sp.diff(y2, t) ** 2
    kinetic = (
        m1 * v1sq / 2
        + m2 * v2sq / 2
        + izz1 * sp.diff(q1, t) ** 2 / 2
        + izz2 * (sp.diff(q1, t) + sp.diff(q2, t)) ** 2 / 2
    )
    potential = g * (m1 * y1 + m2 * y2)
    lagr = kinetic - potential

    qs = (q1, q2)
    a1, a2, d1, d2, dd1, dd2 = sp.symbols("a1 a2 d1 d2 dd1 dd2")
    subs = {
        sp.diff(q1, t, 2): dd1,
        sp.diff(q2, t, 2): dd2,
        sp.diff(q1, t): d1,
        sp.diff(q2, t): d2,
        q1: a1,
        q2: a2,
    }
    taus = []
    for q in qs:
        qd = sp.diff(q, t)
        expr = sp.diff(sp.diff(lagr, qd), t) - sp.diff(lagr, q)
        taus.append(sp.simplify(expr.subs(subs)))
    fn = sp.lambdify((a1, a2, d1, d2, dd1, dd2), taus, "numpy")

    def torques(theta, theta_dot, theta_ddot):
        return np.array(fn(theta[0], theta[1], theta_dot[0], theta_dot[1],
                           theta_ddot[0], theta_ddot[1]), dtype=float)

    return torques


def moving_average_outputs(samples, bias, window, deadband):
    """Conditioned 6-vectors after each raw sample, one sample at a time.

    A zero-primed deque of the last ``window`` bias-removed samples,
    averaged with ``np.mean(axis=0)``, then the force deadband: the
    per-sample filter written without ``SignalConditioner``.
    """
    history = deque([np.zeros(6)] * window, maxlen=window)
    outputs = []
    for raw in np.asarray(samples, dtype=float):
        history.append(raw - np.asarray(bias, dtype=float))
        out = np.mean(history, axis=0)
        force = out[:3]
        force[np.abs(force) < deadband] = 0.0
        outputs.append(out)
    return outputs


class ArrayConditioner:
    """The six-axis conditioner on a (window, 6) history array.

    Each block is bias-removed and appended to the zero-primed history;
    the mean is one axis-0 ``np.add.reduce`` with ``initial=0.0``, which
    adds whole rows oldest first; then forces strictly below the
    deadband are zeroed. This is the array form of the conditioner
    before its axes ran in floats; a one-row block is one
    ``SignalConditioner.step``.
    """

    def __init__(self, bias, window, deadband):
        self.bias = np.asarray(bias, dtype=float)
        self.deadband = deadband
        self.history = np.zeros((window, 6))

    def filter_batch(self, samples):
        block = np.asarray(samples, dtype=float) - self.bias
        self.history = np.concatenate([self.history, block])[len(block) :]
        out = np.add.reduce(self.history, axis=0, initial=0.0) / len(self.history)
        force = out[:3]
        force[np.abs(force) < self.deadband] = 0.0
        return out


def array_normal_force(surface, positions, velocities=None):
    """Penalty normal force magnitudes (m,) with the depth as the product ``(point - p) @ normal``.

    The array form of the penalty law before ``contact_wrench`` formed
    its depth in floats: zero unless the depth is positive (a NaN depth presses), the
    effective stiffness times the depth less the damping times the
    normal speed, then ``np.maximum`` with 0.0.
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


def float_trapezoid(t, total_time, omega_peak):
    """``trapezoidal_profile`` at one time in Python floats, one branch per
    segment: the scalar law its array form must match to the bit."""
    ramp = total_time / 4.0
    accel = omega_peak / ramp
    if t <= ramp:
        return 0.5 * accel * t * t, omega_peak * t / ramp, accel
    if t < 3.0 * ramp:
        return omega_peak * ramp / 2.0 + omega_peak * (t - ramp), omega_peak, 0.0
    tau = t - 3.0 * ramp
    q = omega_peak * ramp / 2.0 + 2.0 * omega_peak * ramp + omega_peak * tau - 0.5 * accel * tau * tau
    return q, omega_peak * (total_time - t) / ramp, -accel
