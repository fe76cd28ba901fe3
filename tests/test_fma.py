import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fmasim.fixtures import (
    fma_force_prime_mover,
    fma_motion_prime_mover,
    fma_paper_design,
    fma_paper_plant,
    fma_paper_weighting,
    fma_star_geometry,
)
from fmasim.fma import (
    FRICTION_STATIC,
    DualActuatorModel,
    PrimeMoverParams,
    StarCompoundGeometry,
    WeightingPolicy,
    allocate_velocities,
    computed_torque_voltage,
    electromagnetic_torques,
    gear_ratios,
    motor_dynamics_matrices,
    null_space_projector,
    output_velocity,
    reduced_dynamics,
    reduced_terms,
    scale_ratio,
    stribeck_friction,
    weighted_pseudo_inverse,
    weighting,
)
from fmasim.scenario import BurrDisturbance


def test_star_gear_ratio_values():
    g1, g2 = gear_ratios(fma_star_geometry())
    assert abs(g1 - 0.007341) < 1.0e-6
    assert abs(g2 - (-0.10111)) < 1.0e-5
    # ratio quoted from the rounded coefficients
    assert abs(scale_ratio(0.007341, -0.10111) - 13.773) < 1.0e-3
    # exact chained value: |g2/g1| = 150 / (1 + 1/9.89) / (1/9.89)... collapses to 150/10.89
    assert abs(scale_ratio(g1, g2) - 150.0 / 10.89) < 1.0e-12


def test_geometry_validation():
    with pytest.raises(ValueError):
        StarCompoundGeometry(r9=1.0, r10=2.3, r11=1.0, r12=5.0, g_hypo=1.0 / 150.0)
    with pytest.raises(ValueError):
        StarCompoundGeometry(r9=-1.0, r10=2.3, r11=1.0, r12=4.3, g_hypo=1.0 / 150.0)
    with pytest.raises(ValueError):
        StarCompoundGeometry(r9=1.0, r10=2.3, r11=1.0, r12=4.3, g_hypo=1.5)


def test_scale_ratio_rejects_zero_motion_coefficient():
    with pytest.raises(ValueError):
        scale_ratio(0.0, -0.1)


def test_out_of_band_ratio_warns():
    geom = StarCompoundGeometry(r9=1.0, r10=1.0, r11=1.0, r12=3.0, g_hypo=0.01)
    pm = PrimeMoverParams(1e-5, 0.0, 0.04, 0.04, 2.0)
    with pytest.warns(UserWarning, match="scale ratio"):
        DualActuatorModel(geom, pm, pm, link_mass=1.0, link_length=0.3, tool_mass=0.0)


def test_output_velocity_contract():
    g = np.array([0.5, -0.25])
    assert output_velocity(g, np.array([2.0, 4.0])) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        output_velocity(g, np.array([1.0, 2.0, 3.0]))


def test_weighted_pseudo_inverse_identity_weight():
    g = np.array([0.007341, -0.10111])
    gp = weighted_pseudo_inverse(g)
    assert np.allclose(gp, g / (g @ g))
    assert g @ gp == pytest.approx(1.0, abs=1e-14)


def test_weighted_pseudo_inverse_validation():
    g = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_pseudo_inverse(g, np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        weighted_pseudo_inverse(g, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        weighted_pseudo_inverse(np.zeros(2))


def random_spd(rng, m):
    a = rng.normal(size=(m, m))
    return a @ a.T + m * np.eye(m)


def test_projector_algebra():
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = rng.normal(size=2)
        while abs(g @ g) < 1e-3:
            g = rng.normal(size=2)
        w = random_spd(rng, 2)
        gp = weighted_pseudo_inverse(g, w)
        p = null_space_projector(g, w)
        assert np.max(np.abs(p @ p - p)) < 1.0e-12
        assert np.max(np.abs(g @ p)) < 1.0e-12
        assert abs(np.trace(p) - 1.0) < 1.0e-12
        assert abs(g @ gp - 1.0) < 1.0e-12


def test_allocation_exact_and_optimal():
    rng = np.random.default_rng(22)
    for _ in range(200):
        g = rng.normal(size=2)
        while abs(g @ g) < 1e-3:
            g = rng.normal(size=2)
        w = random_spd(rng, 2)
        qd_out = rng.normal() * 5.0
        qd = allocate_velocities(g, qd_out, w)
        assert abs(g @ qd - qd_out) < 1.0e-10
        # any feasible alternative differs by a null vector and can only cost more
        cost = qd @ w @ qd
        null = null_space_projector(g, w)
        for _ in range(20):
            alt = qd + null @ rng.normal(size=2)
            assert alt @ w @ alt >= cost - 1.0e-9


def test_allocation_seed_changes_self_motion_only():
    g = np.array([0.007341, -0.10111])
    w = np.diag([1.0, 164.5])
    base = allocate_velocities(g, 1.5, w)
    seeded = allocate_velocities(g, 1.5, w, qd_seed=np.array([40.0, -3.0]))
    assert g @ seeded == pytest.approx(1.5, abs=1e-12)
    assert not np.allclose(base, seeded)
    with pytest.raises(ValueError):
        allocate_velocities(g, 1.0, qd_seed=np.zeros(3))


def test_stribeck_friction_shape():
    assert stribeck_friction(0.0) == pytest.approx(FRICTION_STATIC)
    for qd in (0.5, 3.0, 40.0):
        assert stribeck_friction(-qd) == pytest.approx(-stribeck_friction(qd))
        assert stribeck_friction(qd) > 0.0
    assert type(stribeck_friction(np.float64(-1.0))) is float


def _field(factory, name):
    return lambda value: replace(factory(), **{name: value})


def _band_entry(i):
    """A build of one band with ``value`` at entry i, and the bands it passes."""

    def bands(value):
        band = [1.0, 2.0, 5.0]
        band[i] = value
        return (tuple(band),)

    return lambda value: BurrDisturbance(bands=bands(value)), bands


def _same(value):
    return value


NON_FINITE_CASES = [
    *(pytest.param(name, _field(fma_star_geometry, name), _same, id=name) for name in ("r9", "r10", "r11", "r12")),
    *(
        pytest.param(f.name, _field(fma_motion_prime_mover, f.name), _same, id=f.name)
        for f in fields(PrimeMoverParams)
    ),
    *(
        pytest.param(name, _field(fma_paper_design, name), _same, id=name)
        for name in ("link_mass", "link_length", "tool_mass")
    ),
    pytest.param("torque_threshold", _field(fma_paper_weighting, "torque_threshold"), _same, id="torque_threshold"),
    *(pytest.param("bands", *_band_entry(i), id=f"bands[{i}]") for i in range(3)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, build, got", NON_FINITE_CASES)
def test_fma_value_fields_must_be_finite(name, build, got, value):
    # NaN passes every range check, so each field is refused as non-finite first
    with pytest.raises(ValueError) as refused:
        build(value)
    assert str(refused.value) == f"{name} must be finite, got {got(value)!r}"


def test_prime_mover_validation():
    with pytest.raises(ValueError):
        PrimeMoverParams(0.0, 0.0, 0.04, 0.04, 2.0)
    with pytest.raises(ValueError):
        PrimeMoverParams(1e-5, -1.0, 0.04, 0.04, 2.0)


def test_weighting_switch_is_strict():
    policy = fma_paper_weighting()
    assert np.array_equal(weighting(policy, 3.999), policy.quiet)
    # the switch engages at the threshold itself
    assert np.array_equal(weighting(policy, policy.torque_threshold), policy.disturbed)
    assert np.array_equal(weighting(policy, 25.0), policy.disturbed)
    with pytest.raises(ValueError):
        WeightingPolicy(np.diag([1.0, -1.0]), np.eye(2), 4.0)


def test_motor_dynamics_matrices_values():
    model = fma_paper_plant()
    i_m, b_m, k_m = motor_dynamics_matrices(model)
    for mat in (i_m, b_m, k_m):
        assert np.allclose(mat, np.diag(np.diag(mat)))
    for idx, pm in enumerate((model.motion_pm, model.force_pm)):
        assert i_m[idx, idx] == pytest.approx(pm.rotor_inertia)
        expected_b = pm.damping + pm.back_emf_constant * pm.torque_constant / pm.armature_resistance
        assert b_m[idx, idx] == pytest.approx(expected_b)
        assert k_m[idx, idx] == pytest.approx(pm.torque_constant / pm.armature_resistance)


def test_reduced_terms_composition():
    model = fma_paper_plant()
    w = weighting(fma_paper_weighting(), 0.0)
    terms = reduced_terms(model, w)
    gp = weighted_pseudo_inverse(model.g_row, w)
    i_m, b_m, k_m = motor_dynamics_matrices(model)
    assert terms.inertia == pytest.approx(model.output_inertia() + gp @ i_m @ gp)
    assert terms.damping == pytest.approx(gp @ b_m @ gp)
    assert np.allclose(terms.voltage_row, gp @ k_m)


def test_output_link_terms():
    model = fma_paper_plant()
    expected_i = model.link_mass * model.link_com**2 + model.tool_mass * model.link_length**2
    assert model.output_inertia() == pytest.approx(expected_i)
    assert model.output_gravity(0.0) == pytest.approx(0.0)
    arm = model.link_mass * model.link_com + model.tool_mass * model.link_length
    assert model.output_gravity(np.pi / 2) == pytest.approx(arm * 9.81)


def test_inverse_model_is_exact_on_matched_plant():
    # feedforward voltages computed from the same model must reproduce
    # the commanded acceleration with no servo action at all
    model = fma_paper_plant()
    w = fma_paper_weighting().quiet
    rng = np.random.default_rng(23)
    for _ in range(10):
        q, qd = rng.normal(size=2)
        qdd_ref = rng.normal() * 3.0
        v = computed_torque_voltage(model, q, qd, 0.0, 0.0, qdd_ref, kp=0.0, kv=0.0, weight=w)
        qdd = reduced_dynamics(model, q, qd, v, tau_ext=0.0, weight=w)
        assert qdd == pytest.approx(qdd_ref, abs=1e-10)


def test_servo_terms_enter_the_bracket():
    model = fma_paper_design()
    w = fma_paper_weighting().quiet
    q, qd = 0.3, -0.2
    q_ref, qd_ref, qdd_ref = 0.5, 0.1, 1.0
    kp, kv = 900.0, 60.0
    v = computed_torque_voltage(model, q, qd, q_ref, qd_ref, qdd_ref, kp=kp, kv=kv, weight=w)
    accel = qdd_ref + kv * (qd_ref - qd) + kp * (q_ref - q)
    v_expected = computed_torque_voltage(model, q, qd, 0.0, 0.0, accel, kp=0.0, kv=0.0, weight=w)
    assert np.allclose(v, v_expected)


def test_model_mismatch_leaves_residual():
    plant = fma_paper_plant()
    design = fma_paper_design()
    w = fma_paper_weighting().quiet
    v = computed_torque_voltage(design, 0.4, 0.5, 0.0, 0.0, 2.0, kp=0.0, kv=0.0, weight=w)
    qdd = reduced_dynamics(plant, 0.4, 0.5, v, tau_ext=0.0, weight=w)
    assert qdd != pytest.approx(2.0, abs=1e-3)


def _random_case(rng, i):
    """A perturbed paper actuator, a weight (identity every fifth case) and a state."""

    def prime_mover(base):
        return PrimeMoverParams(
            base.rotor_inertia * rng.uniform(0.5, 2.0),
            base.damping * rng.uniform(0.0, 2.0),
            base.torque_constant * rng.uniform(0.5, 2.0),
            base.back_emf_constant * rng.uniform(0.5, 2.0),
            base.armature_resistance * rng.uniform(0.5, 2.0),
        )

    length = rng.uniform(0.1, 1.0)
    model = DualActuatorModel(
        fma_star_geometry(),
        prime_mover(fma_motion_prime_mover()),
        prime_mover(fma_force_prime_mover()),
        link_mass=rng.uniform(1.0, 20.0),
        link_length=length,
        tool_mass=rng.uniform(0.0, 10.0),
        link_com=rng.uniform(0.0, length),
    )
    m = rng.normal(size=(2, 2))
    weight = None if i % 5 == 0 else m @ m.T + np.diag(rng.uniform(0.1, 200.0, 2))
    return model, weight, rng.normal(0.0, 2.0, 2)


def test_laws_agree_with_the_matrix_form():
    # The per-tick laws round in the runner's order; the matrix form
    # solves K_M v = g tau and sums the reduced equation differently.
    # They must agree within 1e-14 of the largest term in the equation.
    rng = np.random.default_rng(20261018)
    for i in range(1000):
        model, weight, (q, qd) = _random_case(rng, i)
        terms = reduced_terms(model, weight)
        _, _, k_m = motor_dynamics_matrices(model)
        fric = stribeck_friction(qd)
        arm = model.link_mass * model.link_com + model.tool_mass * model.link_length
        gravity = arm * 9.81 * np.sin(q)

        q_ref, qd_ref, qdd_ref = rng.normal(0.0, 2.0, 3)
        kp, kv = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 100.0)
        accel = qdd_ref + kv * (qd_ref - qd) + kp * (q_ref - q)
        tau_des = terms.inertia * accel + terms.damping * qd + fric + gravity
        v = computed_torque_voltage(model, q, qd, q_ref, qd_ref, qdd_ref, kp=kp, kv=kv, weight=weight)
        v_matrix = np.linalg.solve(k_m, model.g_row * tau_des)
        parts = (terms.inertia * accel, terms.damping * qd, fric, gravity)
        scale = np.max(np.abs(np.linalg.solve(k_m, model.g_row))) * sum(map(abs, parts))
        assert np.max(np.abs(v - v_matrix)) <= 1.0e-14 * scale

        v_in, tau_ext = rng.normal(0.0, 20.0, 2), rng.normal(0.0, 10.0)
        drive = float(terms.voltage_row @ v_in)
        parts = (drive, tau_ext, terms.damping * qd, fric, gravity)
        qdd_matrix = (drive - tau_ext - (terms.damping * qd + fric + gravity)) / terms.inertia
        qdd = reduced_dynamics(model, q, qd, v_in, tau_ext, weight)
        assert abs(qdd - qdd_matrix) <= 1.0e-14 * sum(map(abs, parts)) / terms.inertia


def test_reduced_dynamics_validation():
    model = fma_paper_plant()
    with pytest.raises(ValueError):
        reduced_dynamics(model, 0.0, 0.0, np.zeros(3), tau_ext=0.0)


def test_electromagnetic_torque_formula():
    model = fma_paper_plant()
    v = np.array([12.0, -3.0])
    qd_m = np.array([150.0, 30.0])
    tau = electromagnetic_torques(model, v, qd_m)
    for i, pm in enumerate((model.motion_pm, model.force_pm)):
        expected = pm.torque_constant * (v[i] - pm.back_emf_constant * qd_m[i]) / pm.armature_resistance
        assert tau[i] == pytest.approx(expected)


def test_dual_actuator_validation():
    geom = fma_star_geometry()
    pm = PrimeMoverParams(1e-5, 0.0, 0.04, 0.04, 2.0)
    with pytest.raises(ValueError):
        DualActuatorModel(geom, pm, pm, link_mass=-1.0, link_length=0.4, tool_mass=0.0)
    with pytest.raises(ValueError):
        DualActuatorModel(geom, pm, pm, link_mass=1.0, link_length=0.4, tool_mass=0.0, link_com=0.9)
