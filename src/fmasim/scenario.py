"""Scenarios: one run of the dual-actuator rig or of a contact task, checked when built.

Each class lists its single-field rules once, as ``RULES`` read by
``fma._check_fields``, and writes out the rules that tie fields together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fma import DualActuatorModel, WeightingPolicy, _check_fields
from .force_control import DEFAULT_CONTACT_THRESHOLD, DEFAULT_SETTLE_RATE, ContactSurface
from .units import LBF_TO_N

if TYPE_CHECKING:
    from .kinematics import SerialChainModel

TRACE_COLUMNS = ("t", "q", "q_ref", "qd", "qd_ref", "qM1", "qM2", "v1", "v2", "tau_ext")

# Default burr bands, (lo, hi, gain) with edges in rad: viscous gain over
# two angle windows of the deburring sweep.
DEFAULT_BURR_BANDS = ((1.0, 2.0, 5.0), (3.0, 4.0, 25.0))

# Limits a scenario must keep, checked when it is built, before its runner
# allocates or loops: the trace's bytes (rows x columns x 8), a filter
# window's length in samples, and both the integration steps (ticks x
# substeps) and the filter's reads (ticks x window).
MAX_TRACE_BYTES = 2**30
MAX_FILTER_WINDOW = 2**20
MAX_STEPS = 10**8


def _check_run_size(scenario, ticks: float, columns: int, window_key: str):
    """Raise ValueError when a run of ``ticks`` ticks passes a limit above; counts past the floats read inf."""
    substeps, window = scenario.substeps, getattr(scenario, window_key)
    if not math.isfinite(ticks):
        raise ValueError(f"the run would take {ticks} control ticks")
    ticks = float(round(ticks))
    size = (ticks + 1.0) * columns * 8
    if size > MAX_TRACE_BYTES:
        raise ValueError(
            f"the trace would take {size:.3g} bytes ({ticks + 1.0:.10g} rows x {columns} columns x 8); "
            f"the limit is {MAX_TRACE_BYTES} bytes"
        )
    if window > MAX_FILTER_WINDOW:
        raise ValueError(f"{window_key} = {window} samples; the limit is {MAX_FILTER_WINDOW}")
    for work, what, per_tick in (
        (ticks * substeps, "integration steps", f"{substeps:.10g} substeps"),
        (ticks * window, "filter reads", f"{window} samples"),
    ):
        if work > MAX_STEPS:
            raise ValueError(
                f"the run would take {work:.3g} {what} ({ticks:.10g} ticks x {per_tick}); "
                f"the limit is {MAX_STEPS:.0e}"
            )


@dataclass(frozen=True)
class BurrDisturbance:
    """Banded viscous disturbance parameters; bands are (lo, hi, gain) in rad."""

    bands: tuple = DEFAULT_BURR_BANDS
    noise_sigma: float = 2.0

    RULES = {"noise_sigma": "nonnegative"}

    def __post_init__(self):
        _check_fields(self)
        bands = tuple((float(lo), float(hi), float(g)) for lo, hi, g in self.bands)
        if not all(math.isfinite(x) for band in bands for x in band):
            raise ValueError("bands must be finite")
        if any(hi <= lo for lo, hi, _ in bands):
            raise ValueError("disturbance band must have hi > lo")
        object.__setattr__(self, "bands", bands)


@dataclass(frozen=True, eq=False)
class FmaScenario:
    """One dual-actuator run: plant, controller beliefs, reference, disturbance."""

    plant: DualActuatorModel
    controller_model: DualActuatorModel | None = None
    weighting: WeightingPolicy | None = None
    kp: float = 100.0
    kv: float = 20.0
    reference: str = "trapezoid"
    duration: float = 10.0
    omega_peak: float = 0.0  # 0: one sweep over the duration (peak_speed)
    disturbance: BurrDisturbance | None = None
    timestep: float = 1.0e-3
    control_period: float = 1.0e-3
    tau_filter_window: int = 16
    seed: int = 0
    q0: float = 0.0
    qd0: float = 0.0
    name: str = "fma"

    RULES = {
        "timestep": "positive", "duration": "positive", "omega_peak": "nonnegative", "seed": "nonnegative",
        "reference": ("trapezoid", "rest"), "tau_filter_window": "positive",
    }

    def __post_init__(self):
        _check_fields(self)
        # The sweep's ramps last a quarter of the duration each; too short a
        # duration makes 2π/duration, or the ramps' acceleration, overflow,
        # and too high a peak speed the end position 3·peak_speed·ramp.
        ramp = self.duration / 4.0
        if self.reference == "trapezoid" and not (ramp > 0.0 and math.isfinite(self.peak_speed / ramp)):
            raise ValueError(
                f"duration = {self.duration} s is too short: a sweep at peak speed "
                f"{self.peak_speed} rad/s overflows"
            )
        if self.reference == "trapezoid" and not math.isfinite(3.0 * self.peak_speed * ramp):
            raise ValueError(
                f"omega_peak = {self.omega_peak} rad/s is too large: the sweep's end position "
                f"3·omega_peak·duration/4 overflows at duration = {self.duration} s"
            )
        substeps = self.control_period / self.timestep
        if not 1.0 - 1e-9 <= substeps < math.inf or abs(substeps - round(substeps)) > 1e-9 * substeps:
            raise ValueError("control_period must be an integer multiple of timestep")
        _check_run_size(self, self.duration / self.control_period, len(TRACE_COLUMNS), "tau_filter_window")

    @property
    def substeps(self) -> int:
        return round(self.control_period / self.timestep)

    @property
    def peak_speed(self) -> float:
        return self.omega_peak or 2.0 * math.pi / self.duration


@dataclass(frozen=True)
class ForceControlScenario:
    """One contact task: approach a surface, then regulate or track force.

    The chain is driven in resolved-rate fashion (commanded joint motion
    through the Jacobian inverse); the physical arm follows the commanded
    joints through an optional first-order lag standing in for the inner
    position servo. Forces are SI; the reference pushes along -Z.

    The runner reads only the surface's effective stiffness. The plane's
    point is set by ``start_height``, below the home tool point, whatever
    the surface's ``point``; its normal must be +z and its damping zero.
    ``kp``, ``kv`` and ``ki`` are the force law's gains along that normal, in m/N.
    """

    chain: SerialChainModel
    surface: ContactSurface
    kp: float
    kv: float = 0.0
    ki: float = 0.0
    law: str = "force-pid"
    control_rate: float = 15.0
    approach_speed: float = 2.25e-3
    start_height: float = 4.5e-3
    force_target: float = 5.0 * LBF_TO_N
    reference: str = "constant"
    sine_amplitude: float = 3.0 * LBF_TO_N
    sine_period: float = 50.0
    duration: float = 10.0
    deadband: float = 0.25 * LBF_TO_N
    contact_threshold: float = DEFAULT_CONTACT_THRESHOLD
    settle_rate: float = DEFAULT_SETTLE_RATE
    filter_window: int = 16
    arm_lag: float = 0.0
    physics_timestep: float = 1.0e-3
    home: tuple = (0.0, -0.6, 0.9, 0.0, 0.7, 0.0)
    seed: int = 0
    name: str = "force"

    RULES = {
        "law": ("force-pid", "compliant"), "reference": ("constant", "sine"),
        "control_rate": "positive", "duration": "positive", "deadband": "nonnegative", "seed": "nonnegative",
        "approach_speed": "positive", "start_height": "nonnegative", "arm_lag": "nonnegative",
        "filter_window": "positive", "kp": "nonnegative", "kv": "nonnegative", "ki": "nonnegative",
    }

    def __post_init__(self):
        _check_fields(self)
        period = 1.0 / self.control_rate
        if self.physics_timestep <= 0.0 or self.physics_timestep > period + 1e-12:
            raise ValueError(
                f"physics_timestep must be positive and within a control period, got {self.physics_timestep!r}"
            )
        if not period * period < math.inf:
            raise ValueError(f"control_rate = {self.control_rate:g} Hz: its period squared or in steps overflows")
        if not period / self.physics_timestep < math.inf:
            raise ValueError(
                f"physics_timestep = {self.physics_timestep} s is too small: "
                f"the control period in steps overflows at control_rate = {self.control_rate:g} Hz"
            )
        if self.reference == "sine" and self.sine_period <= 0.0:
            raise ValueError(f"sine_period must be positive, got {self.sine_period}")
        if self.surface.normal.tolist() != [0.0, 0.0, 1.0]:
            raise ValueError(f"surface normal must be +z, got {self.surface.normal.tolist()}")
        if self.surface.damping != 0.0:
            raise ValueError(f"surface damping must be zero, got {self.surface.damping}")
        if self.chain.dof != 6:
            raise ValueError("resolved-rate drive needs a six-joint chain")
        if len(self.home) != self.chain.dof:
            raise ValueError("home configuration length must match the chain")
        if not all(math.isfinite(x) for x in self.home):
            raise ValueError("home configuration must be finite")
        _check_run_size(self, self.duration * self.control_rate, len(TRACE_COLUMNS) + 1, "filter_window")
        # Rules on what the runner derives. The sine's phase 2π·t/sine_period
        # must be a float up to the last tick, and so must each rate-law gain
        # of the PID law, kp/dt and ki/dt**2 with dt the control period.
        n_ticks, dt = round(self.duration * self.control_rate), 1.0 / self.control_rate
        if self.reference == "sine" and not math.isfinite(2.0 * math.pi * (n_ticks * dt) / self.sine_period):
            raise ValueError(
                f"sine_period = {self.sine_period} s is too short: the sine's phase "
                f"2π·t/sine_period overflows within duration = {self.duration} s"
            )
        if self.law == "force-pid":
            for name, gain, scale, power in (("kp", self.kp, dt, "dt"), ("ki", self.ki, dt**2, "dt**2")):
                if not scale > 0.0 and gain == 0.0:  # 0/0: the rate alone is at fault
                    raise ValueError(
                        f"control_rate = {self.control_rate} Hz is too high: {power} underflows to 0, "
                        f"so the rate-law gain {name}/{power} cannot be formed"
                    )
                if not (scale > 0.0 and math.isfinite(gain / scale)):
                    raise ValueError(
                        f"{name} = {gain} m/N is too large: its rate-law gain {name}/{power} overflows "
                        f"at control_rate = {self.control_rate} Hz"
                    )
        elif self.kv or self.ki:  # the compliant law reads kp alone
            name = "kv" if self.kv else "ki"
            raise ValueError(f"{name} must be 0 under law = compliant, got {getattr(self, name)!r}")
        object.__setattr__(self, "home", tuple(float(x) for x in self.home))

    @property
    def substeps(self) -> int:
        return max(1, round(1.0 / self.control_rate / self.physics_timestep))
