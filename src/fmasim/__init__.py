"""Serial-chain kinematic influence coefficients, dual-input
force/motion actuation, and position-based force control, with a
deterministic scenario runner on top.

The submodules layer bottom-up: spatial -> kinematics -> dynamics ->
fma / force_control -> simulation -> config -> cli. Everything needed
for everyday use is re-exported here.
"""
from .errors import ConfigError, DegenerateConfigurationError, SimulationBlowUpError
from .spatial import (
    Pose,
    Rotation,
    SpatialTransform,
    Twist,
    Wrench,
    compose,
    rotation_from_fixed_euler,
    spatial_force_transform,
    transform_wrench,
)
from .kinematics import (
    DHRow,
    GKICSet,
    SerialChainModel,
    compute_gkic,
    ee_acceleration,
    ee_velocity,
    forward_kinematics,
    g_function,
    h_function,
    static_joint_torques,
)
from .dynamics import (
    DynamicsQuantities,
    ExternalLoad,
    compute_dynamics,
    effective_inertia,
    forward_dynamics,
    gravity_torque,
    inertia_power_matrix,
    inverse_dynamics,
)
from .fma import (
    DualActuatorModel,
    PrimeMoverParams,
    StarCompoundGeometry,
    WeightingPolicy,
    allocate_velocities,
    computed_torque_voltage,
    gear_ratios,
    null_space_projector,
    reduced_dynamics,
    scale_ratio,
    weighted_pseudo_inverse,
    weighting,
)
from .force_control import (
    ContactPhase,
    ContactSurface,
    GainSet,
    SignalConditioner,
    VirtualFixture,
    compliant_control_step,
    contact_state_step,
    contact_wrench,
    diagonal_gain,
    effective_stiffness,
    fixture_projector,
    natural_frequency,
    normal_force,
    pure_force_control_step,
)
from .simulation import (
    BurrDisturbance,
    EnvelopePoint,
    FmaScenario,
    ForceControlScenario,
    Metrics,
    SimulationTrace,
    compute_metrics,
    envelope_points,
    rk4_step,
    run_fma_scenario,
    run_force_control_scenario,
    trace_csv_text,
    write_metrics,
    write_trace_csv,
)
from .config import (
    ScenarioConfig,
    build_scenario,
    load_scenario,
    parse_config,
    replace_values,
    serialize_config,
)
from .fixtures import (
    actuator_fixture,
    chain_fixture,
    surface_fixture,
    weighting_fixture,
)

__version__ = "0.1.0"
