import math
from dataclasses import fields

import numpy as np
import pytest

from fmasim.errors import DegenerateConfigurationError
from fmasim.fixtures import (
    compliant_scale_surface,
    sensor_tool_transform,
    virtual_spring_equilibrium,
)
from fmasim.force_control import (
    ContactPhase,
    ContactSurface,
    GainSet,
    SignalConditioner,
    compliant_control_step,
    contact_state_step,
    contact_wrench,
    effective_stiffness,
    fixture_projector,
    natural_frequency,
    project_force,
    pure_force_control_step,
    virtual_inertia_damper_step,
)
from fmasim.spatial import Wrench
from fmasim.units import LBF_PER_IN_TO_N_PER_M, LBF_TO_N, MM_PER_LBF_TO_M_PER_N


def wrench(fx=0.0, fy=0.0, fz=0.0, mx=0.0, my=0.0, mz=0.0):
    return Wrench(np.array([fx, fy, fz]), np.array([mx, my, mz]))


def test_gain_set_defaults_to_zero():
    assert [f.name for f in fields(GainSet)] == ["kp", "kv", "ki"]
    gains = GainSet()
    for diagonal in (gains.kp, gains.kv, gains.ki):
        assert np.array_equal(diagonal, np.zeros(6))
    with pytest.raises(ValueError):
        gains.kp[0] = 1.0


def test_gain_set_rejects_bad_matrices():
    # a gain is its diagonal: a matrix, even a diagonal one, is refused
    with pytest.raises(ValueError, match="shape"):
        GainSet(kp=np.eye(6))
    with pytest.raises(ValueError, match="kv entries must be nonnegative"):
        GainSet(kv=[1.0, 1.0, -1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        GainSet(ki=[0.0, 0.0, np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        GainSet(kp=np.ones(3))


def test_surface_normalizes_and_validates():
    s = ContactSurface(stiffness=1000.0, normal=np.array([0.0, 0.0, 4.0]))
    assert np.allclose(s.normal, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ContactSurface(stiffness=-5.0)
    with pytest.raises(ValueError):
        ContactSurface(stiffness=1000.0, normal=np.zeros(3))
    with pytest.raises(ValueError):
        ContactSurface(stiffness=1000.0, damping=-1.0)
    with pytest.raises(ValueError, match="point must be finite"):
        ContactSurface(stiffness=1000.0, point=np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="normal must be finite"):
        ContactSurface(stiffness=1000.0, normal=np.array([0.0, 0.0, np.nan]))


def test_effective_stiffness_series():
    # soft scale through a stiff load cell barely drops the net stiffness
    k = effective_stiffness(100.0e3, np.inf, 25.0)
    assert k == pytest.approx(24.99375, abs=1e-5)
    assert effective_stiffness(60.0, 60.0, 60.0) == pytest.approx(20.0)
    assert effective_stiffness(np.inf, np.inf, 42.0) == pytest.approx(42.0)
    assert effective_stiffness(np.inf, np.inf, np.inf) == np.inf
    with pytest.raises(ValueError):
        effective_stiffness(-1.0, 10.0, 10.0)


def test_compliant_scale_fixture_effective_stiffness():
    surface = compliant_scale_surface()
    assert surface.effective / LBF_PER_IN_TO_N_PER_M == pytest.approx(24.99375, abs=1e-5)
    assert surface.effective == pytest.approx(4377.5, rel=2e-4)


def test_conditioner_removes_constant_bias():
    cond = SignalConditioner(bias=wrench(fz=2.5), window=16)
    out = None
    for _ in range(40):
        out = cond.step(wrench(fz=2.5))
    assert np.allclose(out.as_array(), 0.0)


def test_conditioner_step_response_fills_in_window_samples():
    cond = SignalConditioner(window=16)
    values = [cond.step(wrench(fz=1.0)).force[2] for _ in range(20)]
    # linear ramp: k-th sample averages k ones over 16 slots
    assert values[0] == pytest.approx(1.0 / 16.0)
    assert values[7] == pytest.approx(8.0 / 16.0)
    assert values[14] < 1.0
    assert values[15] == pytest.approx(1.0)
    assert values[19] == pytest.approx(1.0)


def test_conditioner_deadband_zeroes_small_forces():
    deadband = 0.25 * LBF_TO_N
    cond = SignalConditioner(window=1, deadband=deadband)
    out = cond.step(wrench(fz=0.2 * LBF_TO_N, my=0.3))
    assert out.force[2] == 0.0
    # moments are never suppressed
    assert out.moment[1] == pytest.approx(0.3)
    out = cond.step(wrench(fz=0.3 * LBF_TO_N))
    assert out.force[2] == pytest.approx(0.3 * LBF_TO_N)


def test_conditioner_deadband_idempotent():
    deadband = 0.25 * LBF_TO_N
    first = SignalConditioner(window=1, deadband=deadband)
    second = SignalConditioner(window=1, deadband=deadband)
    raw = wrench(fx=0.1, fy=-2.0, fz=0.9)
    once = first.step(raw)
    twice = second.step(once)
    assert np.allclose(once.as_array(), twice.as_array())


def test_conditioner_reset_and_validation():
    cond = SignalConditioner(window=4)
    cond.step(wrench(fz=8.0))
    cond.reset()
    assert cond.step(wrench()).force[2] == 0.0
    with pytest.raises(ValueError):
        SignalConditioner(window=0)
    with pytest.raises(ValueError, match="^window must be a whole number of samples, got 2.5$"):
        SignalConditioner(window=2.5)
    assert SignalConditioner(window=3.0).window == 3
    with pytest.raises(ValueError):
        SignalConditioner(deadband=-0.1)
    assert SignalConditioner(window=1).step(wrench(fx=3.0)).force[0] == 3.0


def test_contact_phase_cycle():
    threshold = 0.25 * LBF_TO_N
    phase = ContactPhase.APPROACH
    phase = contact_state_step(phase, 0.0, contact_threshold=threshold)
    assert phase is ContactPhase.APPROACH
    # crossing the threshold declares touchdown
    phase = contact_state_step(phase, 1.5 * threshold, contact_threshold=threshold)
    assert phase is ContactPhase.TRANSITION
    phase = contact_state_step(phase, 2.0, force_rate=40.0)
    assert phase is ContactPhase.TRANSITION
    phase = contact_state_step(phase, 2.0, force_rate=0.5)
    assert phase is ContactPhase.CONSTRAINED_CONTACT
    phase = contact_state_step(phase, 2.0)
    assert phase is ContactPhase.CONSTRAINED_CONTACT
    phase = contact_state_step(phase, 2.0, depart_requested=True)
    assert phase is ContactPhase.DEPARTURE
    phase = contact_state_step(phase, 2.0, contact_threshold=threshold)
    assert phase is ContactPhase.DEPARTURE
    phase = contact_state_step(phase, 0.1 * threshold, contact_threshold=threshold)
    assert phase is ContactPhase.APPROACH


def test_contact_phase_threshold_edges():
    # strictly-greater on touchdown, strictly-less on release
    assert contact_state_step(ContactPhase.APPROACH, 1.0, contact_threshold=1.0) is ContactPhase.APPROACH
    assert contact_state_step(ContactPhase.DEPARTURE, 1.0, contact_threshold=1.0) is ContactPhase.DEPARTURE
    # compression and tension both count as contact
    assert contact_state_step(ContactPhase.APPROACH, -2.0, contact_threshold=1.0) is ContactPhase.TRANSITION


def test_contact_phase_refuses_nan():
    # Each compare reads NaN as "no change", so an unchecked NaN would hold
    # APPROACH or TRANSITION forever.
    approach, transition = ContactPhase.APPROACH, ContactPhase.TRANSITION
    probes = [
        ("force must be finite, got nan", dict(phase=approach, force=math.nan)),
        ("force must be finite, got -inf", dict(phase=approach, force=-math.inf)),
        ("force_rate must be finite, got nan", dict(phase=transition, force=5.0, force_rate=math.nan)),
        ("force_rate must be finite, got inf", dict(phase=transition, force=5.0, force_rate=math.inf)),
        ("contact_threshold must not be NaN", dict(phase=approach, force=5.0, contact_threshold=math.nan)),
        ("settle_rate must not be NaN", dict(phase=transition, force=5.0, settle_rate=math.nan)),
    ]
    for message, args in probes:
        with pytest.raises(ValueError) as refused:
            contact_state_step(**args)
        assert str(refused.value) == message


def test_fixture_projector_xy_plane():
    fixture = fixture_projector((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert np.allclose(fixture.omega, np.diag([1.0, 1.0, 0.0]), atol=1e-14)


def test_fixture_projector_basis_independent():
    rng = np.random.default_rng(31)
    p1, p2, p3 = rng.normal(size=(3, 3))
    base = fixture_projector(p1, p2, p3).omega
    # same plane, wildly different basis
    alt = fixture_projector(p1, p1 + 3.7 * (p2 - p1), p1 - 0.4 * (p2 - p1) + 2.2 * (p3 - p1)).omega
    assert np.max(np.abs(base - alt)) < 1.0e-10


def test_fixture_projector_identities():
    rng = np.random.default_rng(32)
    for _ in range(20):
        p1, p2, p3 = rng.normal(size=(3, 3))
        omega = fixture_projector(p1, p2, p3).omega
        assert np.max(np.abs(omega @ omega - omega)) < 1.0e-12
        assert np.max(np.abs(omega - omega.T)) < 1.0e-12


def test_fixture_projector_degenerate_points():
    with pytest.raises(ValueError):
        fixture_projector((0, 0, 0), (1, 1, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        fixture_projector((0, 0, 0), (0, 0, 0), (1, 0, 0))


def test_project_force_drops_normal_component():
    fixture = fixture_projector((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert np.allclose(project_force(fixture, (1.0, 2.0, 3.0)), [1.0, 2.0, 0.0])


def test_virtual_inertia_damper_example():
    # pressing 2 lbf straight down drifts the hand 10.5 mm per period
    k = np.array([3.5, 3.5, 5.25, 0.0, 0.0, 0.0]) * MM_PER_LBF_TO_M_PER_N
    du = virtual_inertia_damper_step(k, wrench(fz=2.0 * LBF_TO_N))
    assert du[2] == pytest.approx(10.5e-3)
    assert np.allclose(du[[0, 1, 3, 4, 5]], 0.0)
    with pytest.raises(ValueError):
        virtual_inertia_damper_step(np.eye(6), wrench())


def test_virtual_spring_example():
    # the spring is the accommodation law driven by the deviation from the
    # equilibrium wrench: none at equilibrium, 10 mm for 1 lbf off it
    k = np.array([10.0, 3.0, 7.0, 0.0, 0.0, 0.0]) * MM_PER_LBF_TO_M_PER_N
    equilibrium = wrench(fz=-3.0 * LBF_TO_N)
    sensed = wrench(fx=1.0 * LBF_TO_N, fz=-3.0 * LBF_TO_N)
    deviation = Wrench(sensed.force - equilibrium.force, sensed.moment - equilibrium.moment)
    du = virtual_inertia_damper_step(k, deviation)
    assert du[0] == pytest.approx(10.0e-3)
    assert np.allclose(du[1:], 0.0)
    assert np.allclose(virtual_inertia_damper_step(k, wrench()), 0.0)


def test_virtual_spring_equilibrium_pose():
    pose = virtual_spring_equilibrium()
    assert np.allclose(pose.position, [0.0, -0.944, -0.007])
    assert np.allclose(pose.euler, [0.0, np.pi / 2, np.pi / 2])


def test_pure_force_step_linearity():
    gains = GainSet(
        kp=[2.0, 2.0, 2.0, 1.0, 1.0, 1.0],
        kv=[0.5, 0.5, 0.5, 0.0, 0.0, 0.0],
        ki=[0.1, 0.1, 0.1, 0.0, 0.0, 0.0],
    )
    rng = np.random.default_rng(33)
    g = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    e, de, ie = rng.normal(size=(3, 6))
    base = pure_force_control_step(g, gains, e, de, ie)
    scaled = pure_force_control_step(g, gains, 3.0 * e, 3.0 * de, 3.0 * ie)
    assert np.allclose(scaled, 3.0 * base)
    assert np.allclose(pure_force_control_step(g, gains, np.zeros(6), np.zeros(6), np.zeros(6)), 0.0)


def test_pure_force_step_solves_jacobian():
    gains = GainSet(kp=np.ones(6))
    g = np.diag([2.0, 4.0, 8.0, 1.0, 1.0, 1.0])
    e = np.ones(6)
    theta_dot = pure_force_control_step(g, gains, e, np.zeros(6), np.zeros(6))
    assert np.allclose(theta_dot, [0.5, 0.25, 0.125, 1.0, 1.0, 1.0])


def test_singular_jacobian_raises():
    gains = GainSet(kp=np.ones(6))
    g = np.zeros((6, 6))
    with pytest.raises(DegenerateConfigurationError):
        pure_force_control_step(g, gains, np.ones(6), np.zeros(6), np.zeros(6))
    with pytest.raises(DegenerateConfigurationError):
        compliant_control_step(g, np.ones(6), np.ones(6))


def test_compliant_step_identity_jacobian():
    kp = np.array([0.03, 0.03, 0.03, 0.0, 0.0, 0.0]) * MM_PER_LBF_TO_M_PER_N
    e = np.zeros(6)
    e[2] = 5.0 * LBF_TO_N
    du = compliant_control_step(np.eye(6), kp, e)
    assert du[2] == pytest.approx(0.15e-3)


def test_contact_wrench_above_plane_is_zero():
    surface = ContactSurface(stiffness=4377.5)
    w = contact_wrench(surface, (0.0, 0.0, 0.25))
    assert np.allclose(w.as_array(), 0.0)


def test_contact_wrench_penetration_value():
    surface = ContactSurface(stiffness=4377.5)
    w = contact_wrench(surface, (0.0, 0.0, -1.0e-3))
    assert w.force[2] == pytest.approx(4.3775)
    assert np.allclose(w.moment, 0.0)


def test_contact_wrench_never_tensile():
    surface = ContactSurface(stiffness=1000.0, damping=500.0)
    # retreating fast enough to flip the sign gets clamped to zero
    w = contact_wrench(surface, (0.0, 0.0, -1.0e-3), ee_velocity=(0.0, 0.0, 1.0))
    assert w.force[2] == 0.0


def test_contact_wrench_is_passive():
    # the force always opposes penetration: positive along the outward normal
    surface = ContactSurface(stiffness=2000.0, damping=5.0)
    rng = np.random.default_rng(34)
    for _ in range(50):
        pos = rng.normal(scale=2.0e-3, size=3)
        vel = rng.normal(scale=0.05, size=3)
        w = contact_wrench(surface, pos, ee_velocity=vel)
        assert surface.normal @ w.force >= 0.0


def test_normal_force_is_the_penalty_law_at_each_point():
    rng = np.random.default_rng(35)
    points = rng.normal(scale=2.0e-3, size=(40, 3))
    velocities = rng.normal(scale=0.05, size=(40, 3))
    for normal in ((0.0, 0.0, 1.0), (0.3, -0.2, 1.0)):
        surface = ContactSurface(stiffness=2000.0, normal=normal, damping=5.0)
        forces = []
        for p, v in zip(points, velocities):
            depth = -(p @ surface.normal)
            speed = v @ surface.normal
            law = max(0.0, surface.effective * depth - surface.damping * speed) if depth > 0.0 else 0.0
            w = contact_wrench(surface, p, v)
            assert np.allclose(w.force, law * surface.normal, rtol=1e-12, atol=1e-15)
            assert w.moment.tolist() == [0.0, 0.0, 0.0]
            forces.append(law)
        assert max(forces) > 0.0 and min(forces) == 0.0


def test_normal_force_keeps_non_finite_points_visible():
    rigid = ContactSurface(stiffness=np.inf)
    assert rigid.effective == np.inf
    # a point on a rigid plane presses with zero depth and gets no force
    for point in ((0.0, 0.0, 0.0), (0.0, 0.0, -0.0), (0.0, 0.0, 1.0)):
        assert contact_wrench(rigid, point).force.tolist() == [0.0, 0.0, 0.0]
    # an infinite force, or a non-finite point or velocity even above the
    # plane, is refused in one line, not reported as zero
    soft = ContactSurface(stiffness=1000.0, damping=5.0)
    cases = [
        (rigid, (0.0, 0.0, -1.0e-3), None, "force"),
        (soft, (0.0, 0.0, np.nan), None, "position"),
        (soft, (0.0, 0.0, np.inf), None, "position"),
        (soft, (0.0, 0.0, -1.0e-3), (0.0, np.nan, 0.0), "velocity"),
        (soft, (0.0, 0.0, 1.0), (0.0, 0.0, np.nan), "velocity"),
    ]
    for surface, point, velocity, name in cases:
        with pytest.raises(ValueError, match=f"{name} must be finite") as refused:
            contact_wrench(surface, point, velocity)
        assert len(str(refused.value).splitlines()) == 1


def test_natural_frequency_formula():
    assert natural_frequency(4.0 * np.pi**2, 1.0) == pytest.approx(1.0)
    assert natural_frequency(4391.0, 1.2) == pytest.approx(np.sqrt(4391.0 / 1.2) / (2 * np.pi))
    with pytest.raises(ValueError):
        natural_frequency(-1.0, 1.0)
    with pytest.raises(ValueError):
        natural_frequency(100.0, 0.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ContactSurface(1000.0, damping=math.nan), "damping must be nonnegative and finite, got nan"),
        (lambda: SignalConditioner(deadband=math.nan), "deadband must be nonnegative and finite, got nan"),
        (lambda: SignalConditioner(window=math.nan), "window must be at least 1 sample and finite, got nan"),
        (lambda: natural_frequency(math.nan, 1.2), "k_eff must be positive and finite, got nan"),
        (lambda: natural_frequency(math.inf, 1.2), "k_eff must be positive and finite, got inf"),
        (lambda: natural_frequency(1.0, math.nan), "mass must be positive and finite, got nan"),
        (
            lambda: fixture_projector([0.0, 0.0, 0.0], [1.0, math.nan, 0.0], [0.0, 1.0, 0.0]),
            "p2 must be finite, got [1.0, nan, 0.0]",
        ),
    ],
)
def test_entry_points_refuse_non_finite_arguments(build, message):
    # A range check written `x < lo or x > hi` lets NaN through.
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_sensor_tool_transform_axis_map():
    # the sensor sees the tool wrench with x/y swapped and all axes negated
    xf = sensor_tool_transform()
    w = Wrench(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    out = xf.apply(w)
    assert np.allclose(out.force, [-2.0, -1.0, -3.0])
    assert np.allclose(out.moment, [-5.0, -4.0, -6.0])
