import numpy as np
import pytest

from fmasim.dynamics import ExternalLoad, inverse_dynamics
from fmasim.fixtures import powercube6
from fmasim.kinematics import (
    DHRow,
    JointState,
    SerialChainModel,
    com_positions,
    compute_gkic,
    ee_acceleration,
    ee_velocity,
    forward_kinematics,
    frame_transforms,
    g_function,
    h_function,
    static_joint_torques,
)
from fmasim.spatial import Wrench

from oracles import fd_hessian, fd_jacobian, loop_influence_coefficients


def planar_two_link(length1=0.4, length2=0.3):
    """2R chain in the x-y plane; second frame sits at the elbow + link2."""
    dh = (DHRow(), DHRow(a_prev=length1))
    masses = np.array([2.0, 1.0])
    coms = np.array([[length1 / 2, 0.0, 0.0], [length2 / 2, 0.0, 0.0]])
    inertias = np.array([np.diag([0.0, 0.0, 0.02]), np.diag([0.0, 0.0, 0.01])])
    return SerialChainModel(dh, masses, coms, inertias, name="2r")


def test_dhrow_validation():
    with pytest.raises(ValueError):
        DHRow(alpha_prev=np.inf)


def test_chain_model_validation():
    dh = (DHRow(), DHRow(a_prev=0.4))
    good = np.array([np.diag([0.0, 0.0, 0.02])] * 2)
    with pytest.raises(ValueError):
        SerialChainModel(dh, np.array([1.0]), np.zeros((2, 3)), good)
    with pytest.raises(ValueError):
        SerialChainModel(dh, np.array([1.0, -1.0]), np.zeros((2, 3)), good)
    with pytest.raises(ValueError, match="masses must be finite"):
        SerialChainModel(dh, np.array([1.0, np.nan]), np.zeros((2, 3)), good)
    nan_com = np.zeros((2, 3))
    nan_com[1, 1] = np.nan
    with pytest.raises(ValueError, match="coms must be finite"):
        SerialChainModel(dh, np.array([1.0, 1.0]), nan_com, good)
    inf_inertia = good.copy()
    inf_inertia[1, 2, 2] = np.inf
    with pytest.raises(ValueError) as refused:
        SerialChainModel(dh, np.array([1.0, 1.0]), np.zeros((2, 3)), inf_inertia)
    assert str(refused.value) == "inertias must be finite, got " + str(inf_inertia.tolist())
    bad = good.copy()
    bad[0, 0, 1] = 5.0  # asymmetric
    with pytest.raises(ValueError):
        SerialChainModel(dh, np.array([1.0, 1.0]), np.zeros((2, 3)), bad)
    with pytest.raises(ValueError):
        SerialChainModel((), np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3, 3)))


def test_planar_two_link_forward_kinematics():
    model = planar_two_link()
    q = np.array([0.3, -0.8])
    pose = forward_kinematics(model, q)
    assert np.allclose(pose.position, [0.4 * np.cos(0.3), 0.4 * np.sin(0.3), 0.0])
    assert np.isclose(pose.euler[2], q.sum())
    rots, origins = frame_transforms(model, q)
    assert np.allclose(origins[0], 0.0)
    assert np.allclose(rots[1][:, 2], [0.0, 0.0, 1.0])


def test_com_positions_planar():
    model = planar_two_link()
    q = np.array([np.pi / 2, 0.0])
    coms = com_positions(model, q)
    assert np.allclose(coms[0], [0.0, 0.2, 0.0], atol=1e-12)
    assert np.allclose(coms[1], [0.0, 0.4 + 0.15, 0.0], atol=1e-12)


def test_theta_shape_checks():
    model = planar_two_link()
    with pytest.raises(ValueError):
        forward_kinematics(model, np.zeros(3))
    with pytest.raises(ValueError):
        g_function(model, np.array([0.0, np.nan]))


def test_jacobian_matches_finite_differences():
    model = powercube6()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(8):
        theta = rng.uniform(-np.pi, np.pi, 6)
        worst = max(worst, np.max(np.abs(g_function(model, theta) - fd_jacobian(model, theta))))
    assert worst < 1.0e-6


def test_hessian_matches_finite_differences():
    model = powercube6()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, 6)
        worst = max(worst, np.max(np.abs(h_function(model, theta) - fd_hessian(model, theta))))
    assert worst < 1.0e-5


def test_broadcast_kernel_equals_loop_reference():
    model = powercube6()
    targets = ["ee"] + [(kind, j) for kind in ("frame", "com") for j in range(1, 7)]
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, 6)
        for target in targets:
            g_ref, h_ref = loop_influence_coefficients(model, theta, target)
            both = compute_gkic(model, theta, target)
            assert np.array_equal(g_function(model, theta, target), g_ref)
            assert np.array_equal(h_function(model, theta, target), h_ref)
            assert np.array_equal(both.G, g_ref)
            assert np.array_equal(both.H, h_ref)


def test_translation_hessian_is_symmetric():
    model = powercube6()
    h = h_function(model, np.array([0.2, -0.4, 0.9, 0.1, 0.5, -0.7]))
    for i in range(6):
        for j in range(6):
            assert np.allclose(h[i, :3, j], h[j, :3, i], atol=1e-12)


def test_task_acceleration_matches_trajectory_differentiation():
    # theta(t) = theta0 + qd t + qdd t^2 / 2; second difference of the
    # tool position must equal the G qdd + qd H qd translation rows.
    model = powercube6()
    theta0 = np.array([0.3, -0.5, 0.8, 0.2, -0.9, 0.4])
    qd = np.array([0.7, -0.2, 0.5, -0.6, 0.3, 0.1])
    qdd = np.array([-0.5, 0.4, 0.2, 0.8, -0.3, 0.6])
    h = 1.0e-4

    def pos(t):
        return forward_kinematics(model, theta0 + qd * t + 0.5 * qdd * t * t).position

    accel_fd = (pos(h) - 2.0 * pos(0.0) + pos(-h)) / h**2
    kic = compute_gkic(model, theta0)
    accel = ee_acceleration(kic.G, kic.H, qd, qdd)
    assert np.allclose(accel[:3], accel_fd, atol=1e-5)
    vel = ee_velocity(kic.G, qd)
    vel_fd = (pos(h) - pos(-h)) / (2.0 * h)
    assert np.allclose(vel.linear, vel_fd, atol=1e-7)


def test_ee_velocity_refuses_non_finite_arguments():
    """Refused by name before numpy's matmul can warn on inf * 0."""
    kic = compute_gkic(powercube6(), np.zeros(6))
    with pytest.raises(ValueError) as info:
        ee_velocity(kic.G, [np.inf] * 6)
    assert str(info.value) == f"theta_dot must be finite, got {[np.inf] * 6}"
    g = np.array(kic.G)
    g[0, 0] = np.nan
    with pytest.raises(ValueError, match="^g must be finite$"):
        ee_velocity(g, np.ones(6))


def test_g_function_targets():
    model = powercube6()
    theta = np.array([0.1, 0.2, -0.3, 0.4, 0.5, -0.6])
    g_frame2 = g_function(model, theta, ("frame", 2))
    # joints beyond the target cannot move it
    assert np.allclose(g_frame2[:, 2:], 0.0)
    g_com2 = g_function(model, theta, ("com", 2))
    assert not np.allclose(g_frame2[:3, :2], g_com2[:3, :2])
    with pytest.raises(ValueError):
        g_function(model, theta, ("frame", 7))
    with pytest.raises(ValueError):
        g_function(model, theta, ("midpoint", 2))
    assert np.array_equal(g_function(model, theta, ("frame", np.int64(2))), g_frame2)
    # A link index that is not an integer, and a target that is not a pair,
    # are refused by name, not read as another link or failed on inside.
    for bad in (("frame", 2.0), ("com", True), ("com", np.float64(2.0)), "tool", ("com", 2, 0), ["frame", 2]):
        with pytest.raises(ValueError, match="target"):
            g_function(model, theta, bad)
    load = ExternalLoad(Wrench(np.array([1.0, 0.0, 0.0]), np.zeros(3)), link=2.0, at="com")
    with pytest.raises(ValueError, match="target"):
        inverse_dynamics(model, JointState(theta), loads=(load,))


def test_compute_gkic_consistency():
    model = powercube6()
    theta = np.array([0.5, -0.1, 0.7, -0.8, 0.2, 0.9])
    kic = compute_gkic(model, theta)
    assert np.array_equal(kic.G, g_function(model, theta))
    assert np.array_equal(kic.H, h_function(model, theta))


def test_static_joint_torques_is_transpose_map():
    model = powercube6()
    theta = np.zeros(6)
    g = g_function(model, theta)
    w = Wrench(np.array([0.0, 0.0, -50.0]), np.zeros(3))
    assert np.allclose(static_joint_torques(g, w), g.T @ w.as_array())
