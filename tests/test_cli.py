import json
from importlib import resources

import numpy as np
import pytest

from fmasim import cli
from fmasim.cli import main

REST_INI = """
[plant]
kind = fma
actuator = fma-paper
controller_model = fma-paper

[controller]
kp = 900
kv = 60

[reference]
profile = rest
duration = 0.5 s

[run]
name = rest-hold
"""


@pytest.fixture()
def rest_config(tmp_path):
    path = tmp_path / "rest.ini"
    path.write_text(REST_INI)
    return str(path)


def test_fixtures_listing(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "powercube6" in out
    assert "fma-paper" in out
    assert "compliant-scale" in out
    assert "fma-paper-deburr" in out


def test_fixtures_json(capsys):
    assert main(["fixtures", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert "powercube6" in listing["chains"]
    assert "force-regulation" in listing["scenarios"]


def test_fk_output(capsys):
    assert main(["fk", "powercube6", "0", "0", "0", "0", "0", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("position =")
    assert "euler =" in out


def test_fk_json_round_trip(capsys):
    args = ["fk", "powercube6", "0.1", "-0.4", "0.9", "0.2", "-0.7", "0.3", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["position"]) == 3
    assert len(payload["euler"]) == 3
    assert all(np.isfinite(payload["position"]))


def test_fk_wrong_joint_count(capsys):
    assert main(["fk", "powercube6", "0", "0"]) == 2
    assert "6 joints" in capsys.readouterr().err


def test_unknown_chain_fixture(capsys):
    assert main(["fk", "hexapod", "0", "0", "0", "0", "0", "0"]) == 2
    err = capsys.readouterr().err
    assert "hexapod" in err


def test_jacobian_output(capsys):
    assert main(["jacobian", "powercube6", "0", "0", "0", "0", "0", "0"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 6
    assert main(["jacobian", "powercube6", "0", "0", "0", "0", "0", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.asarray(payload["jacobian"]).shape == (6, 6)


def test_simulate_writes_outputs(rest_config, tmp_path, capsys):
    out = tmp_path / "run1"
    assert main(["simulate", "--config", rest_config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "rest-hold" in stdout
    assert (out / "trace.csv").exists()
    assert (out / "metrics.txt").exists()
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("t,q,q_ref")


def test_simulate_is_deterministic(rest_config, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", rest_config, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", rest_config, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "metrics.txt").read_bytes() == (out2 / "metrics.txt").read_bytes()


def test_simulate_seed_override_changes_noisy_run(tmp_path, capsys):
    noisy = REST_INI + "\n[disturbance]\nkind = burr\nnoise_sigma = 2 N*m\n"
    path = tmp_path / "noisy.ini"
    path.write_text(noisy)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(path), "--out", str(out1), "--seed", "1"]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out2), "--seed", "2"]) == 0
    capsys.readouterr()
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_simulate_json_summary(rest_config, tmp_path, capsys):
    out = tmp_path / "runj"
    assert main(["simulate", "--config", rest_config, "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "fma"
    assert payload["samples"] == 501
    assert payload["metrics"]["max_position_error"] < 2.0e-4
    assert str(out / "trace.csv") in payload["files"]


def test_simulate_svg(rest_config, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", rest_config, "--out", str(out), "--svg"]) == 0
    capsys.readouterr()
    text = (out / "trace.svg").read_text()
    assert text.startswith("<svg")
    assert "</svg>" in text


def test_simulate_unknown_scenario(capsys):
    assert main(["simulate", "--config", "not-a-scenario"]) == 2
    err = capsys.readouterr().err
    assert "not-a-scenario" in err
    assert "fma-paper-deburr" in err


def test_envelope_outputs(rest_config, tmp_path, capsys):
    out = tmp_path / "env"
    args = ["envelope", "--config", rest_config, "--out", str(out), "--sweep", "0.5,1"]
    assert main(args) == 0
    capsys.readouterr()
    lines = (out / "envelope.csv").read_text().splitlines()
    assert lines[0] == "torque,speed,tag"
    tags = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert tags == {"rest-hold@x0.5", "rest-hold@x1"}


def test_envelope_parallel_matches_serial(rest_config, tmp_path, capsys):
    serial, parallel = tmp_path / "ser", tmp_path / "par"
    base = ["envelope", "--config", rest_config, "--sweep", "0.5,1"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(parallel), "--parallel", "2"]) == 0
    capsys.readouterr()
    assert (serial / "envelope.csv").read_bytes() == (parallel / "envelope.csv").read_bytes()


def test_envelope_rejects_force_scenarios(capsys):
    assert main(["envelope", "--config", "force-regulation", "--out", "/tmp/na"]) == 2
    assert "fma" in capsys.readouterr().err


def test_envelope_sweep_validation(rest_config, capsys):
    assert main(["envelope", "--config", rest_config, "--sweep", "a,b"]) == 2
    assert "sweep" in capsys.readouterr().err
    assert main(["envelope", "--config", rest_config, "--sweep", "-1"]) == 2
    assert "positive" in capsys.readouterr().err


def test_usage_errors_return_2(capsys):
    assert main([]) == 2
    assert main(["simulate"]) == 2
    capsys.readouterr()


def test_fixture_dir_override(tmp_path, monkeypatch, capsys):
    override = tmp_path / "fx"
    override.mkdir()
    (override / "mini.ini").write_text(REST_INI)
    monkeypatch.setenv("FMA_SIM_FIXTURES", str(override))
    out = tmp_path / "runo"
    assert main(["simulate", "--config", "mini", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "trace.csv").exists()


def test_simulate_out_names_a_file(rest_config, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["simulate", "--config", rest_config, "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "afile" in err
    assert len(err.splitlines()) == 1


def test_envelope_out_names_a_file(rest_config, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    args = ["envelope", "--config", rest_config, "--out", str(afile), "--sweep", "1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "afile" in err
    assert len(err.splitlines()) == 1


def test_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"# caf\xe9 scenario\n" + REST_INI.encode("ascii"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err
    assert len(err.splitlines()) == 1


def test_wrist_singularity_exits_3(tmp_path, capsys):
    text = resources.files("fmasim").joinpath("scenarios", "force-regulation.ini").read_text()
    text = text.replace("[plant]\n", "[plant]\nhome = 0 0 0 0 0 0 rad\n", 1)
    path = tmp_path / "wrist.ini"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "singular" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "run, diverged_at",
    [
        ("", "0.0050"),
        # twenty RK4 substeps per control tick
        ("timestep = 0.02 s\ncontrol_period = 1 s\n", "3.0000"),
    ],
)
def test_fma_divergence_exits_3(run, diverged_at, tmp_path, capsys):
    text = resources.files("fmasim").joinpath("scenarios", "fma-paper-deburr.ini").read_text()
    text = text.replace("kp = 900\nkv = 60\n", "kp = 1e9\nkv = 1e6\n", 1)
    text = text.replace("[run]\n", "[run]\n" + run, 1)
    path = tmp_path / "stiff.ini"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: fma-paper-deburr: state diverged at t={diverged_at} s\n"
    assert "Traceback" not in err


# Warnings are errors here: pytest would otherwise capture a numpy
# RuntimeWarning that a user would see on stderr.
@pytest.mark.filterwarnings("error")
def test_non_finite_joint_command_exits_3(tmp_path, capsys):
    # The gain overflows the compliant law, so the command turns infinite
    # and the lagging arm's update gives nan.
    text = resources.files("fmasim").joinpath("scenarios", "compliant-kp03.ini").read_text()
    text = text.replace("kp = 0.03 mm/lbf\n", "kp = 1e307 m/N\n", 1)
    path = tmp_path / "huge-gain.ini"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == "error: compliant-kp03: joint state diverged at t=3.8667 s\n"


@pytest.mark.parametrize("command", ["fk", "jacobian"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_joint_angles_exit_2(command, bad, capsys):
    assert main([command, "powercube6", "0", bad, "0", "0", "0", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("sweep", ["inf", "1,nan"])
def test_envelope_rejects_non_finite_sweep(rest_config, sweep, tmp_path, capsys):
    args = ["envelope", "--config", rest_config, "--sweep", sweep, "--out", str(tmp_path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "envelope.csv").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "sweep, parallel, workers", [("0.5,1", "8", [2]), ("1", "4", []), ("0.5,0.75,1", "2", [2])]
)
def test_envelope_parallel_is_capped_at_the_runs(
    rest_config, sweep, parallel, workers, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    args = ["envelope", "--config", rest_config, "--sweep", sweep, "--parallel", parallel]
    assert main(args + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _RecordingPool.created == workers


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_envelope_parallel_below_one_exits_2(rest_config, parallel, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    args = ["envelope", "--config", rest_config, "--parallel", parallel, "--out", str(tmp_path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--parallel" in err
    assert len(err.splitlines()) == 1
    assert _RecordingPool.created == []
    assert not (tmp_path / "envelope.csv").exists()
