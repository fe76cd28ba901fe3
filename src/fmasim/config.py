"""Scenario files: a small INI dialect with explicit unit suffixes.

A scenario file has up to five sections ([plant], [controller],
[reference], [disturbance], [run]) whose allowed keys depend on the
plant kind: ``fma`` for the dual-actuator joint, ``chain`` for the
6-DOF arm under force control. Unknown sections or keys are rejected
rather than ignored, so a typo cannot silently fall back to a default.

A key left out takes the default of the scenario field it sets, in
``FmaScenario``, ``BurrDisturbance`` or ``ForceControlScenario``.
A value carries one trailing unit ("0.25 lbf", "0 0.7 rad", "30:60:5 deg"
for band edges), else is SI; it is converted to SI on parse and must be
finite. The unit must convert to the key's own SI unit, so "20 lbf" is no
duration; a key without a unit takes a bare number only. Serialization
writes canonical SI units, so
``parse_config(serialize_config(cfg)) == cfg`` for any parsed cfg.

Parsing only turns text into values. Range rules, cross-key rules, the
one-sweep peak speed, the actuator as its own controller model and fixture
names belong to the scenario classes and fixture registries, which check
them when ``build_scenario`` builds one.
"""
from __future__ import annotations

import configparser
import importlib.resources
import math
import operator
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import fixtures
from .errors import ConfigError
from .force_control import GainSet
from .simulation import BurrDisturbance, FmaScenario, ForceControlScenario
from .units import UnitError, parse_quantity

_SECTIONS = ("plant", "controller", "reference", "disturbance", "run")

_REQUIRED = object()
_UNSET = object()


@dataclass(frozen=True)
class _Key:
    """Schema entry: how to parse one key, which field it sets, how to write it back."""

    parse: str  # "str" | "int" | "quantity" | "vector" | "bands"
    unit: str = ""  # canonical suffix: written when serializing, read when a value has none
    choices: tuple = ()
    to: str = ""  # the scenario field the key sets as is
    default: object = _UNSET  # unset: the default of field ``to``, else required


def _field_defaults(keys: dict, scenario: type, **owners: type) -> dict:
    """The schema with each unset default filled in: required for a key
    that sets no field, else the default of its field ``to``, a field of
    ``scenario`` or of the section's class in ``owners``."""
    schema = {}
    for section, specs in keys.items():
        found = {f.name: f.default for f in fields(owners.get(section, scenario))}
        schema[section] = {
            key: replace(spec, default=found[spec.to] if spec.to else _REQUIRED)
            if spec.default is _UNSET else spec
            for key, spec in specs.items()
        }
    return schema


# Keys are materialized in schema order, defaults filled in, so a parsed
# config is always fully explicit.
_FMA_KEYS = {
    "plant": {
        "kind": _Key("str", choices=("fma", "chain")),
        "actuator": _Key("str"),
        "controller_model": _Key("str", default=""),  # "": the actuator
        "weighting": _Key("str", default="none"),
    },
    "controller": {
        "law": _Key("str", default="computed-torque", choices=("computed-torque",)),
        "kp": _Key("quantity", to="kp"),
        "kv": _Key("quantity", to="kv"),
        "tau_filter_window": _Key("int", to="tau_filter_window"),
    },
    "reference": {
        "profile": _Key("str", choices=("trapezoid", "rest"), to="reference", default=_REQUIRED),
        "duration": _Key("quantity", unit="s", to="duration", default=_REQUIRED),
        "omega_peak": _Key("quantity", unit="rad/s", to="omega_peak"),
        "q0": _Key("quantity", unit="rad", to="q0"),
        "qd0": _Key("quantity", unit="rad/s", to="qd0"),
    },
    "disturbance": {
        "kind": _Key("str", default="none", choices=("none", "burr")),
        "noise_sigma": _Key("quantity", unit="N*m", to="noise_sigma"),
        "bands": _Key("bands", unit="rad", to="bands"),
    },
    "run": {
        "timestep": _Key("quantity", unit="s", to="timestep"),
        "control_period": _Key("quantity", unit="s", to="control_period"),
        "seed": _Key("int", to="seed"),
        "name": _Key("str", to="name"),
    },
}

_FORCE_KEYS = {
    "plant": {
        "kind": _Key("str", choices=("fma", "chain")),
        "chain": _Key("str"),
        "surface": _Key("str"),
        "arm_lag": _Key("quantity", unit="s", to="arm_lag"),
        "home": _Key("vector", unit="rad", to="home"),
    },
    "controller": {
        "law": _Key("str", choices=("force-pid", "compliant"), to="law", default=_REQUIRED),
        "kp": _Key("quantity", unit="m/N"),
        "kv": _Key("quantity", default=0.0, unit="m/N"),
        "ki": _Key("quantity", default=0.0, unit="m/N"),
        "control_rate": _Key("quantity", unit="Hz", to="control_rate"),
        "deadband": _Key("quantity", unit="N", to="deadband"),
        "contact_threshold": _Key("quantity", unit="N", to="contact_threshold"),
        "settle_rate": _Key("quantity", unit="N/s", to="settle_rate"),
        "filter_window": _Key("int", to="filter_window"),
    },
    "reference": {
        "profile": _Key("str", choices=("constant-force", "sine-force")),
        "duration": _Key("quantity", unit="s", to="duration", default=_REQUIRED),
        "force": _Key("quantity", unit="N", to="force_target"),
        "amplitude": _Key("quantity", unit="N", to="sine_amplitude"),
        "period": _Key("quantity", unit="s", to="sine_period"),
        "approach_speed": _Key("quantity", unit="m/s", to="approach_speed"),
        "start_height": _Key("quantity", unit="m", to="start_height"),
    },
    "disturbance": {
        "kind": _Key("str", default="none", choices=("none",)),
    },
    "run": {
        "physics_timestep": _Key("quantity", unit="s", to="physics_timestep"),
        "seed": _Key("int", to="seed"),
        "name": _Key("str", to="name"),
    },
}

_SCHEMAS = {
    "fma": _field_defaults(_FMA_KEYS, FmaScenario, disturbance=BurrDisturbance),
    "force": _field_defaults(_FORCE_KEYS, ForceControlScenario),
}


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
    """Copy of cfg with some keys of one section replaced, each value
    written as a file holds it and parsed back, so checked as parsed."""
    if section not in _SECTIONS:
        raise ConfigError(f"unknown section {section!r}")
    schema = _SCHEMAS[cfg.kind][section]
    bad = set(updates) - set(schema)
    if bad:
        raise ConfigError(f"unknown key(s) in [{section}]: {sorted(bad)}")
    parts = {name: dict(getattr(cfg, name)) for name in _SECTIONS}
    for key, value in updates.items():
        try:
            text = _format_scalar(schema[key], value)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key}: not a valid value: {value!r}") from None
        parts[section][key] = _parse_scalar(schema[key], section, key, text)
    return ScenarioConfig(**parts)


def _quantities(where: str, tokens, unit: str, si: str) -> tuple:
    """Each token read in unit, a unit of si, in SI; each must be finite."""
    try:
        values = [parse_quantity(f"{tok} {unit}".strip(), si) for tok in tokens]
    except UnitError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    for x in values:
        if not math.isfinite(x):
            raise ConfigError(f"{where}: expected a finite number, got {x}")
    return tuple(values)


def _split_unit(text: str, default: str) -> tuple[str, str]:
    """A value and its one trailing unit, default if it has none: the last
    token, when that is neither a number nor a band."""
    tokens = text.split()
    if tokens and ":" not in tokens[-1]:
        try:
            float(tokens[-1])
        except ValueError:
            return " ".join(tokens[:-1]), tokens[-1]
    return text, default


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
    body, unit = _split_unit(text, spec.unit)
    if spec.parse == "quantity":
        return _quantities(where, [body], unit, spec.unit)[0]
    if spec.parse == "vector":
        return _quantities(where, body.split(), unit, spec.unit)
    if spec.parse == "bands":  # the unit is the edges'; a gain is drag per speed
        out = []
        for chunk in body.split(","):
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ConfigError(f"{where}: each band must be lo:hi:gain, got {chunk.strip()!r}")
            edges = _quantities(where, parts[:2], unit, spec.unit)
            out.append(edges + _quantities(where, parts[2:], "N*m*s", "N*m*s"))
        return tuple(out)
    raise AssertionError(f"unhandled value kind {spec.parse!r}")


def _format_scalar(spec: _Key, value) -> str:
    if spec.parse == "str":
        return str(value)
    if spec.parse == "int":
        return str(operator.index(value))
    if spec.parse == "quantity":
        return f"{float(value)!r} {spec.unit}".rstrip()
    if spec.parse == "vector":
        return f"{' '.join(repr(float(x)) for x in value)} {spec.unit}".rstrip()
    if spec.parse == "bands":
        return f"{', '.join(':'.join(repr(float(x)) for x in band) for band in value)} {spec.unit}"
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

    return ScenarioConfig(**parts)


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


def _copies(cfg: ScenarioConfig, *sections: str) -> dict:
    """The values of the keys in these sections that set a field as is, by field."""
    specs = [(s, key, spec) for s in sections for key, spec in _SCHEMAS[cfg.kind][s].items()]
    return {spec.to: getattr(cfg, s)[key] for s, key, spec in specs if spec.to}


def _build_fma(cfg: ScenarioConfig) -> FmaScenario:
    model, weighting = cfg.plant["controller_model"], cfg.plant["weighting"]
    burr = cfg.disturbance["kind"] == "burr"
    return FmaScenario(
        plant=fixtures.actuator_fixture(cfg.plant["actuator"]),
        controller_model=fixtures.actuator_fixture(model) if model else None,
        weighting=None if weighting == "none" else fixtures.weighting_fixture(weighting),
        disturbance=BurrDisturbance(**_copies(cfg, "disturbance")) if burr else None,
        **_copies(cfg, "plant", "controller", "reference", "run"),
    )


def _build_force(cfg: ScenarioConfig) -> ForceControlScenario:
    ctl = cfg.controller
    return ForceControlScenario(
        chain=fixtures.chain_fixture(cfg.plant["chain"]),
        surface=fixtures.surface_fixture(cfg.plant["surface"]),
        gains=GainSet(**{k: (0.0, 0.0, ctl[k], 0.0, 0.0, 0.0) for k in ("kp", "kv", "ki")}),
        reference=cfg.reference["profile"].removesuffix("-force"),
        **_copies(cfg, *_SECTIONS),
    )


def _scenario_files() -> dict:
    """Built-in scenario files by name, those in FMA_SIM_FIXTURES shadowing the packaged ones."""
    packaged = importlib.resources.files("fmasim") / "scenarios"
    files = {e.name[: -len(".ini")]: e for e in packaged.iterdir() if e.name.endswith(".ini")}
    override = os.environ.get("FMA_SIM_FIXTURES")
    if override and Path(override).is_dir():
        files.update((p.stem, p) for p in Path(override).glob("*.ini"))
    return files


def builtin_scenario_names() -> list[str]:
    """Names accepted in place of a config path, sorted."""
    return sorted(_scenario_files())


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
    files = _scenario_files()
    if ref not in files:
        raise ConfigError(f"unknown scenario {ref!r}; built-ins: {sorted(files)}")
    return parse_config(_read_config(files[ref]))
