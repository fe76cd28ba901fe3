import numpy as np
import pytest

from fmasim.spatial import (
    Pose,
    Rotation,
    SpatialTransform,
    Twist,
    Wrench,
    compose,
    rotation_from_fixed_euler,
    skew,
)

RNG = np.random.default_rng(1)


def random_rotation(rng):
    e = rng.uniform(-np.pi, np.pi, 3)
    return rotation_from_fixed_euler(*e)


def test_skew_matches_cross_product():
    for _ in range(10):
        v, u = RNG.normal(size=3), RNG.normal(size=3)
        assert np.allclose(skew(v) @ u, np.cross(v, u))
    assert np.allclose(skew([1, 2, 3]), -skew([1, 2, 3]).T)


def test_rotation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Rotation(np.ones((3, 3)))
    with pytest.raises(ValueError):
        Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(ValueError):
        Rotation(np.eye(2))
    with pytest.raises(ValueError) as refused:
        Rotation(np.full((3, 3), np.nan))
    # A refused array is printed as a list, on one line.
    assert str(refused.value) == (
        "rotation matrix must be finite, got [[nan, nan, nan], [nan, nan, nan], [nan, nan, nan]]"
    )


def test_rotation_is_immutable():
    r = Rotation.identity()
    with pytest.raises(AttributeError):
        r.matrix = np.eye(3)
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 2.0


def test_euler_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        e = rng.uniform(-np.pi + 0.01, np.pi - 0.01, 3)
        if abs(abs(e[1]) - np.pi / 2) < 0.05:
            continue  # stay clear of the gimbal fold
        r = rotation_from_fixed_euler(*e)
        back = rotation_from_fixed_euler(*r.as_fixed_euler())
        assert np.allclose(back.matrix, r.matrix, atol=1e-12)


def test_euler_gimbal_pins_ez():
    r = rotation_from_fixed_euler(0.3, np.pi / 2, 0.2)
    ex, ey, ez = r.as_fixed_euler()
    assert ez == 0.0
    assert np.isclose(ey, np.pi / 2)
    # the recovered angles still reproduce the matrix
    assert np.allclose(rotation_from_fixed_euler(ex, ey, ez).matrix, r.matrix, atol=1e-12)


def test_rotation_euler_convention_is_fixed_xyz():
    ex, ey, ez = 0.3, -0.4, 0.9
    cx, sx = np.cos(ex), np.sin(ex)
    cy, sy = np.cos(ey), np.sin(ey)
    cz, sz = np.cos(ez), np.sin(ez)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    assert np.allclose(rotation_from_fixed_euler(ex, ey, ez).matrix, rz @ ry @ rx)


def test_rotation_compose_apply_inverse():
    a, b = random_rotation(RNG), random_rotation(RNG)
    v = RNG.normal(size=3)
    assert np.allclose(a.compose(b).apply(v), a.apply(b.apply(v)))
    assert np.allclose(a.inverse().apply(a.apply(v)), v)


def test_pose_wraps_angles_and_freezes():
    p = Pose(np.array([1.0, 2.0, 3.0]), np.array([3.0 * np.pi, 0.0, -np.pi]))
    assert np.isclose(p.euler[0], np.pi)
    assert np.isclose(p.euler[2], np.pi)  # -pi wraps to +pi
    assert np.allclose(p.as_vector()[:3], [1, 2, 3])
    with pytest.raises(ValueError):
        p.position[0] = 0.0


def test_wrench_twist_array_round_trip():
    a = RNG.normal(size=6)
    assert np.allclose(Wrench.from_array(a).as_array(), a)
    assert np.allclose(Twist.from_array(a).as_array(), a)
    with pytest.raises(ValueError):
        Wrench.from_array(np.zeros(5))
    with pytest.raises(ValueError):
        Twist(np.zeros(2), np.zeros(3))


def test_spatial_transform_matrix_structure():
    r = random_rotation(RNG)
    p = RNG.normal(size=3)
    x = SpatialTransform(r, p)
    m = x.matrix
    assert np.allclose(m[:3, :3], r.matrix)
    assert np.allclose(m[3:, 3:], r.matrix)
    assert np.allclose(m[3:, :3], skew(p) @ r.matrix)
    assert np.allclose(m[:3, 3:], 0.0)


def test_transform_wrench_agrees_with_matrix():
    for _ in range(10):
        x = SpatialTransform(random_rotation(RNG), RNG.normal(size=3))
        w = Wrench(RNG.normal(size=3), RNG.normal(size=3))
        assert np.allclose(x.apply(w).as_array(), x.matrix @ w.as_array())


def test_compose_matches_sequential_application():
    a = SpatialTransform(random_rotation(RNG), RNG.normal(size=3))
    b = SpatialTransform(random_rotation(RNG), RNG.normal(size=3))
    w = Wrench(RNG.normal(size=3), RNG.normal(size=3))
    lhs = compose(a, b).apply(w).as_array()
    rhs = a.apply(b.apply(w)).as_array()
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(compose(a, b).matrix, a.matrix @ b.matrix)


def test_identity_transform_is_neutral():
    w = Wrench(np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.0, -1.0]))
    out = SpatialTransform.identity().apply(w)
    assert np.array_equal(out.as_array(), w.as_array())
