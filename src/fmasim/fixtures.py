"""Built-in models: the 6-DOF modular arm, the dual-input actuator pair
used in the deburring study, its allocation weighting, the two bench test
surfaces, and the wrist sensor mounting transform.

All factories return fresh immutable objects, so callers may treat them
as templates and derive variants with dataclasses.replace.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .fma import DualActuatorModel, PrimeMoverParams, StarCompoundGeometry, WeightingPolicy
from .force_control import ContactSurface
from .kinematics import DHRow, SerialChainModel
from .spatial import Pose, SpatialTransform, Rotation
from .units import LBF_PER_IN_TO_N_PER_M, NM_PER_RPM_TO_NM_PER_RAD_S


def powercube6() -> SerialChainModel:
    """Roll-pitch-pitch-roll-pitch-roll modular arm, proximal convention.

    Geometry follows the vendor frame assignment (a2 = 265 mm upper arm,
    d4 = 412.5 mm forearm, quarter-turn offsets on joints 2 and 3). Module
    inertias are manufacturer values about each module's own axes; masses
    and COM positions are assembled from the module stack-up with COMs at
    geometric centers, since no assembled values are published.
    """
    deg = math.radians
    dh = (
        DHRow(0.0, 0.0, 0.0, 0.0),
        DHRow(deg(90.0), 0.0, 0.0, deg(-90.0)),
        DHRow(0.0, 0.265, 0.0, deg(90.0)),
        DHRow(deg(-90.0), 0.0, 0.4125, 0.0),
        DHRow(deg(90.0), 0.0, 0.0, 0.0),
        DHRow(deg(90.0), 0.0, 0.0, 0.0),
    )
    masses = np.array([9.0, 7.5, 5.8, 4.6, 3.4, 1.8])
    coms = np.array(
        [
            [0.0, 0.0, 0.055],
            [0.1325, 0.0, 0.0],
            [0.0, 0.206, 0.0],
            [0.0, 0.0, 0.045],
            [0.0, 0.0, 0.045],
            [0.0, 0.0, 0.035],
        ]
    )
    inertias = np.array(
        [
            np.diag([0.03080969, 0.016473629, 0.016473629]),
            np.diag([0.03080969, 0.016473629, 0.016473629]),
            np.diag([0.014914532, 0.009269184, 0.009269184]),
            np.diag([0.014914532, 0.009269184, 0.009269184]),
            np.diag([0.016535598, 0.011403202, 0.013613901]),
            np.diag([0.008453821, 0.009485337, 0.007628006]),
        ]
    )
    return SerialChainModel(dh, masses, coms, inertias, name="powercube6")


def fma_star_geometry() -> StarCompoundGeometry:
    return StarCompoundGeometry(r9=1.0, r10=2.3, r11=1.0, r12=4.3, g_hypo=1.0 / 150.0)


def fma_motion_prime_mover() -> PrimeMoverParams:
    """High-speed brushless DC motor on the velocity channel."""
    return PrimeMoverParams(
        rotor_inertia=5.4e-6,
        damping=2.3e-7 * NM_PER_RPM_TO_NM_PER_RAD_S,
        torque_constant=0.039,
        back_emf_constant=0.04,
        armature_resistance=2.23,
    )


def fma_force_prime_mover() -> PrimeMoverParams:
    """High-torque brushless DC motor on the force channel."""
    return PrimeMoverParams(
        rotor_inertia=8.9e-5,
        damping=3.1e-5 * NM_PER_RPM_TO_NM_PER_RAD_S,
        torque_constant=0.36,
        back_emf_constant=0.36,
        armature_resistance=2.23,
    )


def fma_paper_plant() -> DualActuatorModel:
    """As-built deburring rig: what the simulation integrates."""
    return DualActuatorModel(
        geometry=fma_star_geometry(),
        motion_pm=fma_motion_prime_mover(),
        force_pm=fma_force_prime_mover(),
        link_mass=13.0,
        link_length=0.40,
        tool_mass=4.9,
        name="fma-paper",
    )


def fma_paper_design() -> DualActuatorModel:
    """As-designed parameters: what the controller believes."""
    return DualActuatorModel(
        geometry=fma_star_geometry(),
        motion_pm=fma_motion_prime_mover(),
        force_pm=fma_force_prime_mover(),
        link_mass=10.0,
        link_length=0.40,
        tool_mass=5.0,
        name="fma-paper-design",
    )


def fma_paper_weighting() -> WeightingPolicy:
    """Disturbance-gated weights: force channel heavily penalized when quiet.

    The disturbed weight is the published rotor-inertia ratio figure
    (16.45; the raw quotient is 16.48) and the quiet weight is 10x that.
    """
    return WeightingPolicy(
        quiet=np.diag([1.0, 164.5]),
        disturbed=np.diag([1.0, 16.45]),
        torque_threshold=4.0,
    )


def compliant_scale_surface() -> ContactSurface:
    """Bench weighing scale: 25 lbf/in spring behind a 100e3 lbf/in sensor."""
    return ContactSurface(
        stiffness=25.0 * LBF_PER_IN_TO_N_PER_M,
        sensor_stiffness=100.0e3 * LBF_PER_IN_TO_N_PER_M,
    )


def stiff_pad_surface() -> ContactSurface:
    """Cork-and-rubber damper pad. No measured value exists; 2500 lbf/in
    places it two decades above the scale while staying clearly softer
    than the sensor."""
    return ContactSurface(
        stiffness=2500.0 * LBF_PER_IN_TO_N_PER_M,
        sensor_stiffness=100.0e3 * LBF_PER_IN_TO_N_PER_M,
    )


def virtual_spring_equilibrium() -> Pose:
    """Rest pose for the desk-scale compliance demo: tool pointing down
    at the scale platen, 7 mm below the free surface."""
    return Pose(
        position=np.array([0.0, -0.944, -0.007]),
        euler=np.array([0.0, math.pi / 2.0, math.pi / 2.0]),
    )


def sensor_tool_transform() -> SpatialTransform:
    """Wrench map from the wrist sensor frame to the tool frame.

    The sensor sits quarter-turned and flipped on the mounting plate with
    a common origin, so forces and moments transform by the same rotation:
    (Fx, Fy, Fz, tx, ty, tz) -> (-Fy, -Fx, -Fz, -ty, -tx, -tz).
    """
    rotation = Rotation(np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))
    return SpatialTransform(rotation, np.zeros(3))


CHAIN_FIXTURES = {"powercube6": powercube6}
ACTUATOR_FIXTURES = {"fma-paper": fma_paper_plant, "fma-paper-design": fma_paper_design}
SURFACE_FIXTURES = {
    "compliant-scale": compliant_scale_surface,
    "stiff-pad": stiff_pad_surface,
}
WEIGHTING_FIXTURES = {"fma-paper": fma_paper_weighting}


def _make(registry: dict, kind: str, name: str):
    if name not in registry:
        raise ConfigError(f"unknown {kind} fixture {name!r}; known: {sorted(registry)}")
    return registry[name]()


def chain_fixture(name: str) -> SerialChainModel:
    return _make(CHAIN_FIXTURES, "chain", name)


def actuator_fixture(name: str) -> DualActuatorModel:
    return _make(ACTUATOR_FIXTURES, "actuator", name)


def surface_fixture(name: str) -> ContactSurface:
    return _make(SURFACE_FIXTURES, "surface", name)


def weighting_fixture(name: str) -> WeightingPolicy:
    return _make(WEIGHTING_FIXTURES, "weighting", name)
