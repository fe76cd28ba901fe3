"""Golden sha256 of ``trace.csv`` for the built-in scenarios at their fixed seeds.

Any change to a runner, a law or the CSV writer that moves a single bit
of a trace fails here. The two force-regulation variants cover a filter
window that spans ticks (200 Hz control, 5 substeps per tick against a
16-sample window) and a zero deadband, where signed zeros reach the file.
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


def _trace_digest(config: str, out) -> str:
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    return hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_trace_is_golden(name, tmp_path, capsys):
    assert _trace_digest(name, tmp_path) == GOLDEN[name]
    capsys.readouterr()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_force_regulation_variant_trace_is_golden(variant, tmp_path, capsys):
    updates, digest = VARIANTS[variant]
    cfg = replace_values(load_scenario("force-regulation"), "controller", **updates)
    path = tmp_path / "variant.ini"
    path.write_text(serialize_config(cfg), encoding="ascii")
    assert _trace_digest(str(path), tmp_path / "out") == digest
    capsys.readouterr()
