import math

import pytest

from fmasim.units import (
    IN_TO_M,
    LBF_PER_IN_TO_N_PER_M,
    LBF_TO_N,
    MM_PER_LBF_TO_M_PER_N,
    NM_PER_RPM_TO_NM_PER_RAD_S,
    RPM_TO_RAD_S,
    UnitError,
    known_units,
    parse_quantity,
)


def test_bare_number_is_dimensionless():
    assert parse_quantity("164.5") == 164.5
    assert parse_quantity("  -3 ") == -3.0
    assert parse_quantity("1e-3") == 1.0e-3


def test_infinite_magnitude_passes_through():
    assert parse_quantity("inf lbf/in") == math.inf
    assert parse_quantity("inf") == math.inf


@pytest.mark.parametrize(
    "text, expected",
    [
        ("25 lbf/in", 25.0 * LBF_PER_IN_TO_N_PER_M),
        ("5 lbf", 5.0 * LBF_TO_N),
        ("0.1 mm/lbf", 0.1 * MM_PER_LBF_TO_M_PER_N),
        ("2 in", 2.0 * IN_TO_M),
        ("90 deg", math.pi / 2.0),
        ("1 ms", 1.0e-3),
        ("2.25 mm/s", 2.25e-3),
        ("3000 rpm", 3000.0 * RPM_TO_RAD_S),
        ("2.3e-7 N*m/rpm", 2.3e-7 * NM_PER_RPM_TO_NM_PER_RAD_S),
        ("15 Hz", 15.0),
        ("2 N*m", 2.0),
    ],
)
def test_suffix_conversions(text, expected):
    assert parse_quantity(text) == pytest.approx(expected, rel=1e-12)


def test_si_units_are_identity():
    for unit in ("m", "N", "N/m", "rad", "s", "V", "ohm", "kg*m^2"):
        assert parse_quantity(f"7 {unit}") == 7.0


def test_malformed_quantities():
    for text in ("", "  ", "5 lbf extra", "abc", "5 parsec", "five lbf", "1_000", "٣ s", "１"):
        with pytest.raises(UnitError):
            parse_quantity(text)


def test_known_units_sorted_and_complete():
    units = known_units()
    assert list(units) == sorted(units)
    assert "lbf/in" in units and "mm/lbf" in units
