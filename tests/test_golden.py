"""Golden sha256 of ``trace.csv`` for the built-in scenarios at their fixed seeds.

Any change to a runner, a law or the CSV writer that moves a single bit
of a trace fails here. The two force-regulation variants cover a filter
window that spans ticks (200 Hz control, 5 substeps per tick against a
16-sample window) and a zero deadband, where signed zeros reach the file.
The deburr variants cover a matched controller model, a fixed weight, a
resting reference, five RK4 substeps per control tick and a noiseless
disturbance, whose exact zeros reach the moving average; the envelope
sweep pins the recorded output torque.
"""
import hashlib

import pytest

from fmasim.cli import main
from fmasim.config import load_scenario, replace_values, serialize_config

GOLDEN = {
    "fma-paper-deburr": "7bd519595b47a796a743ce3fa5b2a511856e053e1c54caacab84cee91752480d",
    "force-regulation": "b515c1b336cc47b16eee72d7836d834e69f6ab966545d55205998ac028259ba2",
    "compliant-kp03": "2eabc415088b709cc34029d778ad7779c700edf2b4b320625a5f6ea4cf526b45",
    "compliant-kp01": "2c5ce941e72c774dac8b59ecce6e181a3fd12e716ac7831d0d8837d1013fdaf5",
    "force-sine-tracking": "ee3af04d68be158a647b361b9571f067ea4eb715ee330a6c83cdf953bb9f9bb6",
}

VARIANTS = {
    "control_rate=200Hz": (
        {"control_rate": 200.0},
        "b12f2d20d74396d7f16e48c7fcc6b16d9598d5507f20a38dcd17180869c5f021",
    ),
    "deadband=0": (
        {"deadband": 0.0},
        "c4410c0d1a0d816b5ffc7fffab7935a66433882725afc0288b37d9aa2b556b65",
    ),
}

FMA_VARIANTS = {
    "controller_model=fma-paper": (
        "plant",
        {"controller_model": "fma-paper"},
        "8d05f250565d44e02a3cb4f932b0d5217d1043141ad9c0b8f8b68d6918763ac3",
    ),
    "weighting=none": (
        "plant",
        {"weighting": "none"},
        "f7cad0496f86ef75ee493df0cd2cb8280ec70f3cfbc2338f43e674a8f259131e",
    ),
    "profile=rest": (
        "reference",
        {"profile": "rest"},
        "f96b769f691954c756af3b727d4caff884e0f8809b47f23d3d755a0dc6803c17",
    ),
    "control_period=5ms": (
        "run",
        {"control_period": 5.0e-3},
        "1d41b6ee015a618498afe195f2b7b680d6d3087a14f8508bf4d330ad506a9e1c",
    ),
    "noise_sigma=0": (
        "disturbance",
        {"noise_sigma": 0.0},
        "2ff9e7852c0486e57c19d8750b7c3954bd11a7a44697477d933b87f1139f5e32",
    ),
}

ENVELOPE = "6a5cf567c0299be607523c2617dd216182474a744568586c73e6b5eeb4335154"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trace_digest(config: str, out) -> str:
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    return _sha256(out / "trace.csv")


def _variant_digest(scenario, section, updates, tmp_path) -> str:
    cfg = replace_values(load_scenario(scenario), section, **updates)
    path = tmp_path / "variant.ini"
    path.write_text(serialize_config(cfg), encoding="ascii")
    return _trace_digest(str(path), tmp_path / "out")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_trace_is_golden(name, tmp_path, capsys):
    assert _trace_digest(name, tmp_path) == GOLDEN[name]
    capsys.readouterr()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_force_regulation_variant_trace_is_golden(variant, tmp_path, capsys):
    updates, digest = VARIANTS[variant]
    assert _variant_digest("force-regulation", "controller", updates, tmp_path) == digest
    capsys.readouterr()


@pytest.mark.parametrize("variant", sorted(FMA_VARIANTS))
def test_deburr_variant_trace_is_golden(variant, tmp_path, capsys):
    section, updates, digest = FMA_VARIANTS[variant]
    assert _variant_digest("fma-paper-deburr", section, updates, tmp_path) == digest
    capsys.readouterr()


def test_envelope_csv_is_golden(tmp_path, capsys):
    argv = ["envelope", "--config", "fma-paper-deburr", "--sweep", "0.5,1", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert _sha256(tmp_path / "envelope.csv") == ENVELOPE
    capsys.readouterr()
