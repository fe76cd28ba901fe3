"""Golden sha256 of ``trace.csv`` for the built-in scenarios at their fixed seeds.

Any change to a runner, a law or the CSV writer that moves a single bit
of a trace fails here. ``metrics.txt`` is pinned too for the built-ins
and the force-regulation variants: the raw penalty force is kept in
``aux``, not in the trace, and reaches disk only through the impulse. The two force-regulation variants cover a filter
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
    "fma-paper-deburr": "3b58bcafa472e6b324f466f6caf2367217f042bbdbc6ffd0136a9a3c35bd68da",
    "force-regulation": "17c156654e078b9a6742519f002f3ce4a7fc859129c06d10a6e6544d9d1ad990",
    "compliant-kp03": "1cf73a967e1a8ad6f67e28192508e777581e59a6008e83509d5321a996a58da5",
    "compliant-kp01": "4577bf484be237f6864a8550e30b3d7ab948f0154e90158e2f4207b2805b9f39",
    "force-sine-tracking": "9b124b24ad7b644c826bfdefff498424bac059eb9afdadbefbeb4913ccc5ef8f",
}

VARIANTS = {
    "control_rate=200Hz": (
        {"control_rate": 200.0},
        "7fc7f09f1e9b4056778165fc1e757522a4c1c2a0bfc6adabdc1a37b854286bb8",
    ),
    "deadband=0": (
        {"deadband": 0.0},
        "e1b49f27b3294c8392ca8b90f0e47061190fca5bd3dd2e4232aaa7e0276374b7",
    ),
}

FMA_VARIANTS = {
    "controller_model=fma-paper": (
        "plant",
        {"controller_model": "fma-paper"},
        "79e72045c949267dcfb77edb28347bc13d2f90dee1fbf6d28d82bf58ef162b88",
    ),
    "weighting=none": (
        "plant",
        {"weighting": "none"},
        "e1d2bfb7edf5f4d0a8a200b06ecad198b74fed32dd38c20cbc01e71eece38b6c",
    ),
    "profile=rest": (
        "reference",
        {"profile": "rest"},
        "aeb6fa9736c9d9e4863486a14c6f337ef12fef6729a38167ff6cc16f9e3a1ad2",
    ),
    "control_period=5ms": (
        "run",
        {"control_period": 5.0e-3},
        "7f0bc156ae246457b741b4674b1cf928c5e8801344f47c98226f6cd349b2e17e",
    ),
    "noise_sigma=0": (
        "disturbance",
        {"noise_sigma": 0.0},
        "7a01cbaf67c7d4c4a3ae9db7cba1e464e8cc253550c86024b05656d75e0c9291",
    ),
}

METRICS = {
    "fma-paper-deburr": "16a52b118d81fc5174c434301467663a95551ecfffb30eb7e6efbf02e710c88a",
    "force-regulation": "2bd5448e010fe238c155ee3d28604a6b9551a1339c2c9b4e5ac0d26377b8c621",
    "compliant-kp03": "ed0cb140897f128807dc88169839c07b674134477cfc321bcd7cf08df4523868",
    "compliant-kp01": "ebb870e3bf22fdeaf4cf8a53da634f74aa639f8d214ba20b790dd10aa8506cf1",
    "force-sine-tracking": "d64e73412a49421e5bd687308ea499278392b225d1b6886b9b312aeafaa24e12",
}

VARIANT_METRICS = {
    "control_rate=200Hz": "d9008aa9358c668a83af2b67de850f1c198a54ab0e7883fa1df9096d42c4b557",
    "deadband=0": "fe832d00d4ebedb619583e821bb89c70598d3bba891dca5fa8bc1a4ac25f770d",
}

ENVELOPE = "6a5cf567c0299be607523c2617dd216182474a744568586c73e6b5eeb4335154"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trace_digest(config: str, out, file="trace.csv") -> str:
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    return _sha256(out / file)


def _variant_digest(scenario, section, updates, tmp_path, file="trace.csv") -> str:
    cfg = replace_values(load_scenario(scenario), section, **updates)
    path = tmp_path / "variant.ini"
    path.write_text(serialize_config(cfg), encoding="ascii")
    return _trace_digest(str(path), tmp_path / "out", file)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_trace_is_golden(name, tmp_path, capsys):
    assert _trace_digest(name, tmp_path) == GOLDEN[name]
    capsys.readouterr()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_force_regulation_variant_trace_is_golden(variant, tmp_path, capsys):
    updates, digest = VARIANTS[variant]
    assert _variant_digest("force-regulation", "controller", updates, tmp_path) == digest
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(METRICS))
def test_builtin_metrics_are_golden(name, tmp_path, capsys):
    assert _trace_digest(name, tmp_path, "metrics.txt") == METRICS[name]
    capsys.readouterr()


@pytest.mark.parametrize("variant", sorted(VARIANT_METRICS))
def test_force_regulation_variant_metrics_are_golden(variant, tmp_path, capsys):
    updates, _ = VARIANTS[variant]
    digest = _variant_digest("force-regulation", "controller", updates, tmp_path, "metrics.txt")
    assert digest == VARIANT_METRICS[variant]
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
