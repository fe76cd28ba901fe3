"""Scenario files: a small INI dialect with explicit unit suffixes.

A scenario file has up to five sections ([plant], [controller],
[reference], [disturbance], [run]) whose allowed keys depend on the
plant kind: ``fma`` for the dual-actuator joint, ``chain`` for the
6-DOF arm under force control. Unknown sections or keys are rejected
rather than ignored, so a typo cannot silently fall back to a default.

Physical quantities carry a unit suffix ("0.25 lbf", "1 ms") and are
converted to SI on parse. Serialization writes canonical SI units, so
``parse_config(serialize_config(cfg)) == cfg`` for any parsed cfg.
"""
from __future__ import annotations

import configparser
import importlib.resources
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import fixtures
from .errors import ConfigError
from .force_control import DEFAULT_CONTACT_THRESHOLD, DEFAULT_SETTLE_RATE, GainSet, diagonal_gain
from .simulation import DEFAULT_BURR_BANDS, BurrDisturbance, FmaScenario, ForceControlScenario
from .units import LBF_TO_N, UnitError, parse_quantity

_SECTIONS = ("plant", "controller", "reference", "disturbance", "run")

_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """Schema entry: how to parse one key and how to write it back."""

    parse: str  # "str" | "int" | "quantity" | "vector" | "bands"
    default: object = _REQUIRED
    unit: str = ""  # canonical suffix used when serializing
    choices: tuple = ()


def _deg(x: float) -> float:
    return math.radians(x)


# Keys are materialized in schema order, defaults filled in, so a parsed
# config is always fully explicit. band_unit is consumed during parsing
# (band edges are converted to rad) and written back as "rad".
_FMA_SCHEMA = {
    "plant": {
        "kind": _Key("str", choices=("fma", "chain")),
        "actuator": _Key("str"),
        "controller_model": _Key("str", default=""),
        "weighting": _Key("str", default="none"),
    },
    "controller": {
        "law": _Key("str", default="computed-torque", choices=("computed-torque",)),
        "kp": _Key("quantity", default=100.0),
        "kv": _Key("quantity", default=20.0),
        "tau_filter_window": _Key("int", default=16),
    },
    "reference": {
        "profile": _Key("str", choices=("trapezoid", "rest")),
        "duration": _Key("quantity", unit="s"),
        "omega_peak": _Key("quantity", default=0.0, unit="rad/s"),
        "q0": _Key("quantity", default=0.0, unit="rad"),
        "qd0": _Key("quantity", default=0.0, unit="rad/s"),
    },
    "disturbance": {
        "kind": _Key("str", default="none", choices=("none", "burr")),
        "noise_sigma": _Key("quantity", default=2.0, unit="N*m"),
        "bands": _Key("bands", default=DEFAULT_BURR_BANDS),
        "band_unit": _Key("str", default="rad", choices=("rad", "deg")),
    },
    "run": {
        "timestep": _Key("quantity", default=1.0e-3, unit="s"),
        "control_period": _Key("quantity", default=1.0e-3, unit="s"),
        "seed": _Key("int", default=0),
        "name": _Key("str", default="fma"),
    },
}

_FORCE_SCHEMA = {
    "plant": {
        "kind": _Key("str", choices=("fma", "chain")),
        "chain": _Key("str"),
        "surface": _Key("str"),
        "arm_lag": _Key("quantity", default=0.0, unit="s"),
        "home": _Key("vector", default=(0.0, -0.6, 0.9, 0.0, 0.7, 0.0), unit="rad"),
    },
    "controller": {
        "law": _Key("str", choices=("force-pid", "compliant")),
        "kp": _Key("quantity", unit="m/N"),
        "kv": _Key("quantity", default=0.0, unit="m/N"),
        "ki": _Key("quantity", default=0.0, unit="m/N"),
        "control_rate": _Key("quantity", default=15.0, unit="Hz"),
        "deadband": _Key("quantity", default=0.25 * LBF_TO_N, unit="N"),
        "contact_threshold": _Key("quantity", default=DEFAULT_CONTACT_THRESHOLD, unit="N"),
        "settle_rate": _Key("quantity", default=DEFAULT_SETTLE_RATE, unit="N/s"),
        "filter_window": _Key("int", default=16),
    },
    "reference": {
        "profile": _Key("str", choices=("constant-force", "sine-force")),
        "duration": _Key("quantity", unit="s"),
        "force": _Key("quantity", default=5.0 * LBF_TO_N, unit="N"),
        "amplitude": _Key("quantity", default=3.0 * LBF_TO_N, unit="N"),
        "period": _Key("quantity", default=50.0, unit="s"),
        "approach_speed": _Key("quantity", default=2.25e-3, unit="m/s"),
        "start_height": _Key("quantity", default=4.5e-3, unit="m"),
    },
    "disturbance": {
        "kind": _Key("str", default="none", choices=("none",)),
    },
    "run": {
        "physics_timestep": _Key("quantity", default=1.0e-3, unit="s"),
        "seed": _Key("int", default=0),
        "name": _Key("str", default="force"),
    },
}

_SCHEMAS = {"fma": _FMA_SCHEMA, "force": _FORCE_SCHEMA}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario file: five fully-materialized key/value maps.

    Values are SI floats, ints, strings, or tuples. Treat the maps as
    read-only; derive variants with ``replace_values``.
    """

    plant: dict = field(default_factory=dict)
    controller: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    disturbance: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return "fma" if self.plant.get("kind") == "fma" else "force"


def replace_values(cfg: ScenarioConfig, section: str, **updates) -> ScenarioConfig:
    """Copy of cfg with some keys of one section replaced."""
    if section not in _SECTIONS:
        raise ConfigError(f"unknown section {section!r}")
    schema = _SCHEMAS[cfg.kind][section]
    bad = set(updates) - set(schema)
    if bad:
        raise ConfigError(f"unknown key(s) in [{section}]: {sorted(bad)}")
    parts = {name: dict(getattr(cfg, name)) for name in _SECTIONS}
    parts[section].update(updates)
    return _finalize(ScenarioConfig(**parts))


def _parse_scalar(spec: _Key, section: str, key: str, text: str):
    where = f"[{section}] {key}"
    if spec.parse == "str":
        value = text.strip()
        if spec.choices and value not in spec.choices:
            raise ConfigError(f"{where}: expected one of {list(spec.choices)}, got {value!r}")
        return value
    if spec.parse == "int":
        try:
            return int(text.strip())
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {text!r}") from None
    if spec.parse == "quantity":
        try:
            return parse_quantity(text)
        except UnitError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if spec.parse == "vector":
        tokens = text.split()
        unit = ""
        if tokens:
            try:
                float(tokens[-1])
            except ValueError:
                unit = tokens[-1]
                tokens = tokens[:-1]
        try:
            return tuple(parse_quantity(f"{tok} {unit}".strip()) for tok in tokens)
        except UnitError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if spec.parse == "bands":
        out = []
        for chunk in text.split(","):
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ConfigError(f"{where}: each band must be lo:hi:gain, got {chunk.strip()!r}")
            try:
                out.append(tuple(float(p) for p in parts))
            except ValueError:
                raise ConfigError(f"{where}: non-numeric band entry in {chunk.strip()!r}") from None
        return tuple(out)
    raise AssertionError(f"unhandled value kind {spec.parse!r}")


def _format_scalar(spec: _Key, value) -> str:
    if spec.parse == "str":
        return str(value)
    if spec.parse == "int":
        return str(int(value))
    if spec.parse == "quantity":
        text = repr(float(value))
        return f"{text} {spec.unit}" if spec.unit else text
    if spec.parse == "vector":
        body = " ".join(repr(float(x)) for x in value)
        return f"{body} {spec.unit}" if spec.unit else body
    if spec.parse == "bands":
        return ", ".join(":".join(repr(float(x)) for x in band) for band in value)
    raise AssertionError(f"unhandled value kind {spec.parse!r}")


def _materialize(schema: dict, raw: dict, section: str) -> dict:
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")
    out = {}
    for key, spec in schema.items():
        if key in raw:
            out[key] = _parse_scalar(spec, section, key, raw[key])
        elif spec.default is _REQUIRED:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        else:
            out[key] = spec.default
    return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse scenario file text into a fully-materialized config."""
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#", ";")
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None

    unknown = set(parser.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    if not parser.has_section("plant") or not parser.has_option("plant", "kind"):
        raise ConfigError("[plant] must declare kind = fma or kind = chain")

    kind_text = parser.get("plant", "kind").strip()
    if kind_text not in ("fma", "chain"):
        raise ConfigError(f"[plant] kind: expected fma or chain, got {kind_text!r}")
    schema = _SCHEMAS["fma" if kind_text == "fma" else "force"]

    parts = {}
    for section in _SECTIONS:
        raw = dict(parser.items(section)) if parser.has_section(section) else {}
        parts[section] = _materialize(schema[section], raw, section)

    cfg = ScenarioConfig(**parts)
    return _finalize(cfg)


def _finalize(cfg: ScenarioConfig) -> ScenarioConfig:
    """Fill derived defaults and run cross-key checks."""
    if cfg.kind == "fma":
        if not cfg.plant["controller_model"]:
            cfg.plant["controller_model"] = cfg.plant["actuator"]
        dist = cfg.disturbance
        if dist["band_unit"] == "deg":
            dist["bands"] = tuple((_deg(lo), _deg(hi), gain) for lo, hi, gain in dist["bands"])
            dist["band_unit"] = "rad"
        for lo, hi, gain in dist["bands"]:
            if not lo < hi:
                raise ConfigError(f"[disturbance] bands: lo must be < hi, got {lo}:{hi}")
        ref = cfg.reference
        if ref["profile"] == "trapezoid" and ref["omega_peak"] == 0.0:
            ref["omega_peak"] = 2.0 * math.pi / ref["duration"]
        if ref["omega_peak"] < 0:
            raise ConfigError("[reference] omega_peak must be >= 0")
    if cfg.reference["duration"] <= 0:
        raise ConfigError("[reference] duration must be positive")
    if cfg.run["seed"] < 0:
        raise ConfigError("[run] seed must be non-negative")
    return cfg


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config with canonical SI unit suffixes."""
    schema = _SCHEMAS[cfg.kind]
    lines = []
    for section in _SECTIONS:
        data = getattr(cfg, section)
        lines.append(f"[{section}]")
        for key, spec in schema[section].items():
            if key in data:
                lines.append(f"{key} = {_format_scalar(spec, data[key])}")
        lines.append("")
    return "\n".join(lines)


def build_scenario(cfg: ScenarioConfig):
    """Instantiate the runnable scenario a config describes."""
    try:
        if cfg.kind == "fma":
            return _build_fma(cfg)
        return _build_force(cfg)
    except ConfigError:
        # fixture lookups report the known names themselves
        raise
    except ValueError as exc:
        raise ConfigError(f"inconsistent scenario: {exc}") from None


def _build_fma(cfg: ScenarioConfig) -> FmaScenario:
    plant = fixtures.actuator_fixture(cfg.plant["actuator"])
    controller = fixtures.actuator_fixture(cfg.plant["controller_model"])
    weighting = None
    if cfg.plant["weighting"] != "none":
        weighting = fixtures.weighting_fixture(cfg.plant["weighting"])
    disturbance = None
    if cfg.disturbance["kind"] == "burr":
        disturbance = BurrDisturbance(
            bands=cfg.disturbance["bands"], noise_sigma=cfg.disturbance["noise_sigma"]
        )
    ref = cfg.reference
    return FmaScenario(
        plant=plant,
        controller_model=controller,
        weighting=weighting,
        kp=cfg.controller["kp"],
        kv=cfg.controller["kv"],
        reference=ref["profile"],
        duration=ref["duration"],
        omega_peak=ref["omega_peak"] if ref["omega_peak"] > 0 else None,
        disturbance=disturbance,
        timestep=cfg.run["timestep"],
        control_period=cfg.run["control_period"],
        tau_filter_window=cfg.controller["tau_filter_window"],
        seed=cfg.run["seed"],
        q0=ref["q0"],
        qd0=ref["qd0"],
        name=cfg.run["name"],
    )


def _build_force(cfg: ScenarioConfig) -> ForceControlScenario:
    chain = fixtures.chain_fixture(cfg.plant["chain"])
    surface = fixtures.surface_fixture(cfg.plant["surface"])
    ctl = cfg.controller
    gains = GainSet(
        kp=diagonal_gain(0.0, 0.0, ctl["kp"]),
        kv=diagonal_gain(0.0, 0.0, ctl["kv"]),
        ki=diagonal_gain(0.0, 0.0, ctl["ki"]),
    )
    ref = cfg.reference
    return ForceControlScenario(
        chain=chain,
        surface=surface,
        gains=gains,
        law=ctl["law"],
        control_rate=ctl["control_rate"],
        approach_speed=ref["approach_speed"],
        start_height=ref["start_height"],
        force_target=ref["force"],
        reference="constant" if ref["profile"] == "constant-force" else "sine",
        sine_amplitude=ref["amplitude"],
        sine_period=ref["period"],
        duration=ref["duration"],
        deadband=ctl["deadband"],
        contact_threshold=ctl["contact_threshold"],
        settle_rate=ctl["settle_rate"],
        filter_window=ctl["filter_window"],
        arm_lag=cfg.plant["arm_lag"],
        physics_timestep=cfg.run["physics_timestep"],
        home=cfg.plant["home"],
        seed=cfg.run["seed"],
        name=cfg.run["name"],
    )


def _scenario_dir():
    return importlib.resources.files("fmasim") / "scenarios"


def builtin_scenario_names() -> list[str]:
    """Names accepted in place of a config path, sorted."""
    names = set()
    override = os.environ.get("FMA_SIM_FIXTURES")
    if override and Path(override).is_dir():
        names.update(p.stem for p in Path(override).glob("*.ini"))
    for entry in _scenario_dir().iterdir():
        if entry.name.endswith(".ini"):
            names.add(entry.name[: -len(".ini")])
    return sorted(names)


def _read_config(path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_scenario(ref: str) -> ScenarioConfig:
    """Load a scenario by file path or built-in name.

    A path that exists on disk wins; otherwise the name is looked up in
    the FMA_SIM_FIXTURES directory (when set), then among the packaged
    scenarios.
    """
    p = Path(ref)
    if p.is_file():
        return parse_config(_read_config(p))
    if p.suffix == ".ini" or os.sep in ref:
        raise ConfigError(f"no such scenario file: {ref}")
    override = os.environ.get("FMA_SIM_FIXTURES")
    if override:
        candidate = Path(override) / f"{ref}.ini"
        if candidate.is_file():
            return parse_config(_read_config(candidate))
    packaged = _scenario_dir() / f"{ref}.ini"
    if packaged.is_file():
        return parse_config(_read_config(packaged))
    raise ConfigError(f"unknown scenario {ref!r}; built-ins: {builtin_scenario_names()}")
