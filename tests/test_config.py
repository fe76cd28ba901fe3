import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from fmasim import config
from fmasim.config import (
    ScenarioConfig,
    build_scenario,
    builtin_scenario_names,
    load_scenario,
    parse_config,
    replace_values,
    serialize_config,
)
from fmasim.errors import ConfigError
from fmasim.force_control import contact_state_step
from fmasim.simulation import BurrDisturbance, FmaScenario, ForceControlScenario

MINIMAL_FMA = """
[plant]
kind = fma
actuator = fma-paper

[reference]
profile = trapezoid
duration = 10 s
"""

MINIMAL_FORCE = """
[plant]
kind = chain
chain = powercube6
surface = compliant-scale

[controller]
law = force-pid
kp = 0.1 mm/lbf

[reference]
profile = constant-force
duration = 20 s
"""


def test_minimal_fma_parses_with_defaults():
    cfg = parse_config(MINIMAL_FMA)
    assert cfg.kind == "fma"
    # an absent controller model builds None, which the scenario reads as
    # the actuator itself
    assert cfg.plant["controller_model"] == ""
    assert build_scenario(cfg).controller_model is None
    assert cfg.controller["kp"] == 100.0
    assert cfg.run["timestep"] == 1.0e-3
    # trapezoid peak speed defaults to one sweep over the duration, a law
    # of the scenario: the config keeps 0
    assert cfg.reference["omega_peak"] == 0.0
    assert build_scenario(cfg).peak_speed == 2.0 * math.pi / 10.0


def test_minimal_force_parses_with_defaults():
    cfg = parse_config(MINIMAL_FORCE)
    assert cfg.kind == "force"
    assert cfg.controller["control_rate"] == 15.0
    assert cfg.reference["force"] == pytest.approx(5.0 * 4.4482216)
    assert cfg.disturbance["kind"] == "none"


def test_contact_defaults_are_the_law_defaults():
    # One value each: the law's signature, the scenario field and a config
    # without the keys all give the same contact threshold and settle rate.
    law = inspect.signature(contact_state_step).parameters
    field_defaults = {f.name: f.default for f in fields(ForceControlScenario)}
    cfg = parse_config(MINIMAL_FORCE)
    for name in ("contact_threshold", "settle_rate"):
        assert law[name].default == field_defaults[name] == cfg.controller[name]
        assert getattr(build_scenario(cfg), name) == law[name].default
    # Every field a minimal config leaves unset is the dataclass default,
    # and each key sets the field of its own name (or its one rename).
    set_by_minimal = {
        MINIMAL_FMA: {"plant", "reference", "duration"},
        MINIMAL_FORCE: {"chain", "surface", "gains", "law", "reference", "duration"},
    }
    for text, given in set_by_minimal.items():
        scenario = build_scenario(parse_config(text))
        for f in fields(scenario):
            if f.name not in given:
                assert getattr(scenario, f.name) == f.default, f.name
    burr = build_scenario(parse_config(MINIMAL_FMA + "\n[disturbance]\nkind = burr\n"))
    assert burr.disturbance == BurrDisturbance()
    renamed = {
        "profile": "reference",
        "force": "force_target",
        "amplitude": "sine_amplitude",
        "period": "sine_period",
    }
    for schema in config._SCHEMAS.values():
        for specs in schema.values():
            for key, spec in specs.items():
                assert spec.to in ("", renamed.get(key, key)), key


def test_unknown_section_is_named():
    with pytest.raises(ConfigError, match="telemetry"):
        parse_config(MINIMAL_FMA + "\n[telemetry]\nrate = 1\n")


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="warp_factor"):
        parse_config(MINIMAL_FMA + "\nwarp_factor = 9\n")


def test_missing_required_key_is_named():
    with pytest.raises(ConfigError, match="duration"):
        parse_config("[plant]\nkind = fma\nactuator = fma-paper\n\n[reference]\nprofile = trapezoid\n")


def test_choice_validation():
    bad = MINIMAL_FMA.replace("profile = trapezoid", "profile = spline")
    with pytest.raises(ConfigError, match="spline"):
        parse_config(bad)


def test_band_unit_degrees_converted():
    # One trailing unit, as on a vector; it applies to the edges only.
    text = MINIMAL_FMA + "\n[disturbance]\nkind = burr\nbands = 30:60:5 deg\n"
    cfg = parse_config(text)
    lo, hi, gain = cfg.disturbance["bands"][0]
    assert lo == pytest.approx(math.pi / 6.0)
    assert hi == pytest.approx(math.pi / 3.0)
    assert gain == 5.0
    assert "bands = 0.5235987755982988:1.0471975511965976:5.0 rad" in serialize_config(cfg)


def test_default_bands_are_the_schema_default():
    # One source of truth: a burr section without bands gets the bands a
    # BurrDisturbance built in code gets, in rad.
    cfg = parse_config(MINIMAL_FMA + "\n[disturbance]\nkind = burr\n")
    assert BurrDisturbance().bands == cfg.disturbance["bands"]
    assert build_scenario(cfg).disturbance.bands == BurrDisturbance().bands


def test_band_list_without_unit_is_in_rad():
    cfg = parse_config(MINIMAL_FMA + "\n[disturbance]\nkind = burr\nbands = 30:60:5, 1:2:3\n")
    assert cfg.disturbance["bands"] == ((30.0, 60.0, 5.0), (1.0, 2.0, 3.0))
    assert cfg == parse_config(MINIMAL_FMA + "\n[disturbance]\nkind = burr\nbands = 30:60:5, 1:2:3 rad\n")


def test_band_unit_key_is_gone():
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[disturbance\]: \['band_unit'\]"):
        parse_config(MINIMAL_FMA + "\n[disturbance]\nkind = burr\nband_unit = deg\n")
    with pytest.raises(ConfigError, match="band_unit"):
        replace_values(load_scenario("fma-paper-deburr"), "disturbance", band_unit="deg")


def test_replace_values_stores_the_bands_it_is_given_in_rad():
    cfg = replace_values(load_scenario("fma-paper-deburr"), "disturbance", bands=((30.0, 60.0, 5.0),))
    assert cfg.disturbance["bands"] == ((30.0, 60.0, 5.0),)


@pytest.mark.parametrize("bands", ["1:inf:5", "nan:2:5", "1:2:nan"])
def test_non_finite_band_is_named(bands):
    text = MINIMAL_FMA + f"\n[disturbance]\nkind = burr\nbands = {bands}\n"
    with pytest.raises(ConfigError, match=r"^\[disturbance\] bands: expected a finite"):
        parse_config(text)


def test_band_order_validated():
    text = MINIMAL_FMA + "\n[disturbance]\nkind = burr\nbands = 2:1:5 rad\n"
    with pytest.raises(ConfigError, match="hi > lo"):
        build_scenario(parse_config(text))


def test_round_trip_identity_for_builtins():
    for name in builtin_scenario_names():
        cfg = load_scenario(name)
        again = parse_config(serialize_config(cfg))
        assert again == cfg, name


def test_serialized_text_is_explicit():
    text = serialize_config(parse_config(MINIMAL_FMA))
    # every key materialized, units attached
    assert "timestep = 0.001 s" in text
    assert "kp = 100" in text
    assert "[run]" in text


def test_replace_values_revalidates():
    cfg = parse_config(MINIMAL_FMA)
    bumped = replace_values(cfg, "run", seed=7)
    assert bumped.run["seed"] == 7
    assert cfg.run["seed"] == 0
    with pytest.raises(ConfigError):
        replace_values(cfg, "run", warp=1)
    with pytest.raises(ConfigError, match="finite"):
        replace_values(cfg, "reference", duration=float("nan"))
    # ranges are the scenario's rules, checked when the variant is built
    with pytest.raises(ConfigError, match="duration must be positive"):
        build_scenario(replace_values(cfg, "reference", duration=-1.0))


@pytest.mark.parametrize(
    "section, updates, match",
    [
        ("controller", {"kp": float("nan")}, r"\[controller\] kp: expected a finite number"),
        ("reference", {"q0": float("inf")}, r"\[reference\] q0: expected a finite number"),
        ("reference", {"profile": "spline"}, r"\[reference\] profile: expected one of"),
        ("disturbance", {"kind": "chatter"}, r"\[disturbance\] kind: expected one of"),
        ("disturbance", {"bands": ((1.0, float("nan"), 5.0),)}, r"\[disturbance\] bands: expected a finite"),
        ("disturbance", {"bands": ((1.0, 2.0),)}, r"\[disturbance\] bands: each band must be lo:hi:gain"),
        ("run", {"seed": 7.5}, r"\[run\] seed: not a valid value"),
        ("controller", {"kv": "fast"}, r"\[controller\] kv: not a valid value"),
    ],
)
def test_replace_values_checks_each_value_as_parsing_does(section, updates, match):
    with pytest.raises(ConfigError, match=match):
        replace_values(load_scenario("fma-paper-deburr"), section, **updates)


def test_replace_values_stores_checked_values():
    cfg = replace_values(load_scenario("fma-paper-deburr"), "run", seed=np.int64(11))
    assert type(cfg.run["seed"]) is int and cfg.run["seed"] == 11
    cfg = replace_values(cfg, "controller", kp=np.float64(250.0))
    assert type(cfg.controller["kp"]) is float
    assert build_scenario(cfg).kp == 250.0


def test_build_fma_scenario():
    scenario = build_scenario(load_scenario("fma-paper-deburr"))
    assert isinstance(scenario, FmaScenario)
    assert scenario.kp == 900.0
    assert scenario.kv == 60.0
    assert scenario.seed == 20040815
    assert scenario.disturbance is not None
    assert scenario.disturbance.bands[1][2] == 25.0


def test_build_force_scenario():
    scenario = build_scenario(load_scenario("force-regulation"))
    assert isinstance(scenario, ForceControlScenario)
    assert scenario.control_rate == 15.0
    assert scenario.force_target == pytest.approx(5.0 * 4.4482216)
    assert np.count_nonzero(scenario.gains.kp) == 1


def test_build_unknown_fixture_is_config_error():
    bad = MINIMAL_FMA.replace("actuator = fma-paper", "actuator = not-a-thing")
    with pytest.raises(ConfigError, match="not-a-thing"):
        build_scenario(parse_config(bad))


def test_key_error_while_building_propagates(monkeypatch):
    # Fixture lookups raise ConfigError themselves; any KeyError is a bug.
    def broken(**gains):
        raise KeyError("bug")

    monkeypatch.setattr(config, "GainSet", broken)
    with pytest.raises(KeyError, match="bug"):
        build_scenario(load_scenario("force-regulation"))


def test_load_scenario_from_path(tmp_path):
    path = tmp_path / "local.ini"
    path.write_text(MINIMAL_FORCE)
    cfg = load_scenario(str(path))
    assert cfg.kind == "force"
    with pytest.raises(ConfigError, match="no such scenario file"):
        load_scenario(str(tmp_path / "missing.ini"))


def test_load_scenario_unknown_name_lists_builtins():
    with pytest.raises(ConfigError, match="fma-paper-deburr"):
        load_scenario("bogus-name")


def test_fixture_dir_override_precedence(tmp_path, monkeypatch):
    override = tmp_path / "fixtures"
    override.mkdir()
    (override / "force-regulation.ini").write_text(
        MINIMAL_FORCE.replace("duration = 20 s", "duration = 99 s")
    )
    monkeypatch.setenv("FMA_SIM_FIXTURES", str(override))
    cfg = load_scenario("force-regulation")
    assert cfg.reference["duration"] == 99.0
    # names not present in the override still come from the package
    packaged = load_scenario("fma-paper-deburr")
    assert packaged.kind == "fma"
    assert "force-regulation" in builtin_scenario_names()


def test_builtin_names_include_all_packaged():
    names = builtin_scenario_names()
    for expected in (
        "fma-paper-deburr",
        "force-regulation",
        "compliant-kp03",
        "compliant-kp01",
        "force-sine-tracking",
    ):
        assert expected in names


def test_kind_property_drives_schema():
    cfg = parse_config(MINIMAL_FORCE)
    assert isinstance(cfg, ScenarioConfig)
    # fma-only key under the force schema
    bad = MINIMAL_FORCE.replace("chain = powercube6", "chain = powercube6\nweighting = fma-paper")
    with pytest.raises(ConfigError, match="weighting"):
        parse_config(bad)
