"""Unit conversion constants and quantity parsing.

All internal computation is SI (m, kg, N, rad, s). Imperial units appear
only at configuration and fixture boundaries.
"""
from __future__ import annotations

import math

LBF_TO_N = 4.4482216
IN_TO_M = 0.0254
LBF_PER_IN_TO_N_PER_M = LBF_TO_N / IN_TO_M
MM_PER_LBF_TO_M_PER_N = 1.0e-3 / LBF_TO_N
RPM_TO_RAD_S = 2.0 * math.pi / 60.0

# Viscous damping stated per RPM becomes damping per rad/s.
NM_PER_RPM_TO_NM_PER_RAD_S = 1.0 / RPM_TO_RAD_S

GRAVITY = 9.81

# Each unit's factor taking a value in it to SI, and that SI unit.
_UNITS = {
    "m": (1.0, "m"),
    "mm": (1.0e-3, "m"),
    "in": (IN_TO_M, "m"),
    "kg": (1.0, "kg"),
    "N": (1.0, "N"),
    "lbf": (LBF_TO_N, "N"),
    "N/m": (1.0, "N/m"),
    "lbf/in": (LBF_PER_IN_TO_N_PER_M, "N/m"),
    "N*m": (1.0, "N*m"),
    "N*m*s": (1.0, "N*m*s"),  # torque per unit angular velocity
    "N*m/rpm": (NM_PER_RPM_TO_NM_PER_RAD_S, "N*m*s"),
    "rad": (1.0, "rad"),
    "deg": (math.pi / 180.0, "rad"),
    "rad/s": (1.0, "rad/s"),
    "rpm": (RPM_TO_RAD_S, "rad/s"),
    "s": (1.0, "s"),
    "ms": (1.0e-3, "s"),
    "Hz": (1.0, "Hz"),
    "V": (1.0, "V"),
    "m/N": (1.0, "m/N"),
    "mm/lbf": (MM_PER_LBF_TO_M_PER_N, "m/N"),
    "m/s": (1.0, "m/s"),
    "mm/s": (1.0e-3, "m/s"),
    "N/s": (1.0, "N/s"),
    "kg*m^2": (1.0, "kg*m^2"),
    "N*m/A": (1.0, "N*m/A"),
    "V*s/rad": (1.0, "V*s/rad"),
    "ohm": (1.0, "ohm"),
}


class UnitError(ValueError):
    """Raised for unknown units or malformed quantity strings."""


def parse_quantity(text: str, si: str | None = None) -> float:
    """Parse a config quantity like ``"25 lbf/in"`` or ``"164.5"`` to SI.

    A bare number is dimensionless. ``inf`` is accepted as a magnitude so
    rigid stiffnesses can be written directly. Given ``si``, a unit must
    convert to that SI unit; ``si=""`` takes a bare number only.
    """
    parts = text.strip().split()
    if not parts or len(parts) > 2:
        raise UnitError(f"malformed quantity: {text!r}")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise UnitError(f"malformed quantity: {text!r}") from exc
    if len(parts) == 1:
        return value
    unit = parts[1]
    if unit not in _UNITS:
        raise UnitError(f"unknown unit {unit!r} in {text!r}")
    factor, unit_si = _UNITS[unit]
    if si is not None and unit_si != si:
        accepted = " or ".join(u for u, (_, s) in _UNITS.items() if s == si)
        raise UnitError(f"expected {accepted or 'a bare number'}, got unit {unit!r}")
    if math.isinf(value):
        return value
    return value * factor


def known_units() -> tuple[str, ...]:
    return tuple(sorted(_UNITS))
