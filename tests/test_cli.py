import concurrent.futures
import csv
import json
from importlib import resources
from xml.etree import ElementTree

import numpy as np
import pytest

from fmasim import cli, fixtures
from fmasim.cli import main
from fmasim.config import build_scenario, load_scenario
from fmasim.simulation import run_fma_scenario, trapezoidal_profile, write_trace_csv

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


def _builtin_variant(tmp_path, name, *edits):
    """A copy of a built-in scenario file with pieces of its text replaced:
    edits alternate old, new."""
    text = resources.files("fmasim").joinpath("scenarios", f"{name}.ini").read_text(encoding="utf-8")
    for old, new in zip(edits[::2], edits[1::2]):
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / f"{name}-variant.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_unknown_surface_fixture(tmp_path, capsys):
    cfg = _builtin_variant(tmp_path, "force-regulation", "surface = compliant-scale", "surface = nosuch")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    known = sorted(fixtures.SURFACE_FIXTURES)
    assert capsys.readouterr().err == f"error: unknown surface fixture 'nosuch'; known: {known}\n"


@pytest.mark.parametrize(
    "name, old, new, figure",
    [
        ("fma-paper-deburr", "duration = 10 s", "duration = 1e15 s", "the trace would take 8e+19 bytes"),
        (
            "fma-paper-deburr",
            "kv = 60",
            "kv = 60\ntau_filter_window = 300000000",
            "tau_filter_window = 300000000 samples",
        ),
        (
            "force-regulation",
            "deadband = 0.25 lbf",
            "deadband = 0.25 lbf\nfilter_window = 300000000",
            "filter_window = 300000000 samples",
        ),
        ("force-regulation", "duration = 20 s", "duration = 1e15 s", "the trace would take 1.32e+18 bytes"),
        (
            "fma-paper-deburr",
            "seed = 20040815",
            "seed = 20040815\ntimestep = 1e-9 s\ncontrol_period = 1 s",
            "1e+10 integration steps (10 ticks x 1000000000 substeps)",
        ),
        (
            "fma-paper-deburr",
            "kv = 60",
            "kv = 60\ntau_filter_window = 1048576",
            "1.05e+10 filter reads (10000 ticks x 1048576 samples)",
        ),
        # Substeps whose product with the ticks passes the floats, or that
        # have 300 digits: each count is a float in the message.
        (
            "fma-paper-deburr",
            "seed = 20040815",
            "seed = 20040815\ntimestep = 1e-310 s",
            "inf integration steps (10000 ticks x 1e+307 substeps)",
        ),
        (
            "force-regulation",
            "seed = 0",
            "seed = 0\nphysics_timestep = 1e-308 s",
            "inf integration steps (300 ticks x 6.666666667e+306 substeps)",
        ),
        (
            "force-regulation",
            "seed = 0",
            "seed = 0\nphysics_timestep = 1e-306 s",
            "2e+307 integration steps (300 ticks x 6.666666667e+304 substeps)",
        ),
    ],
)
def test_oversized_run_exits_2_before_it_starts(tmp_path, monkeypatch, capsys, name, old, new, figure):
    def unreachable(scenario):
        raise AssertionError("an oversized run reached its runner")

    monkeypatch.setattr(cli, "run_fma_scenario", unreachable)
    monkeypatch.setattr(cli, "run_force_control_scenario", unreachable)
    cfg = _builtin_variant(tmp_path, name, old, new)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert figure in err and "the limit is" in err


@pytest.mark.parametrize(
    "name, old, new, where",
    [
        (
            "force-regulation",
            "surface = compliant-scale",
            "surface = compliant-scale\nhome = 0 nan 0.9 0 0.7 0 rad",
            "[plant] home",
        ),
        ("fma-paper-deburr", "noise_sigma = 2 N*m", "noise_sigma = nan N*m", "[disturbance] noise_sigma"),
        ("fma-paper-deburr", "kp = 900", "kp = nan", "[controller] kp"),
        ("fma-paper-deburr", "duration = 10 s", "duration = 10 s\nq0 = nan rad", "[reference] q0"),
        (
            "fma-paper-deburr",
            "duration = 10 s",
            "duration = 10 s\nomega_peak = inf rad/s",
            "[reference] omega_peak",
        ),
        ("fma-paper-deburr", "seed = 20040815", "seed = 20040815\ntimestep = nan s", "[run] timestep"),
        ("force-regulation", "kp = 0.1 mm/lbf", "kp = nan mm/lbf", "[controller] kp"),
    ],
)
def test_non_finite_config_value_exits_2_naming_the_key(
    tmp_path, monkeypatch, capsys, name, old, new, where
):
    def unreachable(scenario):
        raise AssertionError("a non-finite config reached its runner")

    monkeypatch.setattr(cli, "run_fma_scenario", unreachable)
    monkeypatch.setattr(cli, "run_force_control_scenario", unreachable)
    cfg = _builtin_variant(tmp_path, name, old, new)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: expected a finite number") and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("force-regulation", "duration = 20 s", "duration = 20 lbf", "[reference] duration: expected s or ms"),
        (
            "force-regulation",
            "control_rate = 15 Hz",
            "control_rate = 15 rpm",
            "[controller] control_rate: expected Hz",
        ),
        ("fma-paper-deburr", "kp = 900", "kp = 900 deg", "[controller] kp: expected a bare number"),
        ("fma-paper-deburr", "3:4:25 rad", "3:4:25 rpm", "[disturbance] bands: expected rad or deg"),
    ],
)
def test_unit_of_the_wrong_dimension_exits_2_naming_the_key(
    tmp_path, monkeypatch, capsys, name, old, new, message
):
    # Read by its factor alone, 20 lbf would run as 88.96 s and 15 rpm as 1.571 Hz.
    def unreachable(scenario):
        raise AssertionError("a unit of the wrong dimension reached its runner")

    monkeypatch.setattr(cli, "run_fma_scenario", unreachable)
    monkeypatch.setattr(cli, "run_force_control_scenario", unreachable)
    cfg = _builtin_variant(tmp_path, name, old, new)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    unit = new.split()[-1]
    assert capsys.readouterr().err == f"error: {message}, got unit {unit!r}\n"


@pytest.mark.parametrize(
    "name, edits, args, rule",
    [
        ("fma-paper-deburr", ("duration = 10 s", "duration = 0 s"), [], "duration must be positive"),
        ("force-regulation", ("deadband = 0.25 lbf", "deadband = -1 N"), [], "deadband must be nonnegative, got -1.0"),
        ("force-sine-tracking", ("period = 50 s", "period = 0 s"), [], "sine_period must be positive"),
        (
            "force-regulation",
            ("control_rate = 15 Hz", "control_rate = 1e-300 Hz"),
            [],
            "control_rate = 1e-300 Hz: its period squared or in steps overflows",
        ),
        ("fma-paper-deburr", (), ["--seed", "-1"], "seed must be nonnegative"),
        (
            "force-regulation",
            (
                "control_rate = 15 Hz",
                "control_rate = 1e-150 Hz",
                "seed = 0",
                "seed = 0\nphysics_timestep = 1e-200 s",
            ),
            [],
            "physics_timestep = 1e-200 s is too small: the control period in steps overflows at control_rate = 1e-150 Hz",
        ),
        (
            "fma-paper-deburr",
            ("seed = 20040815", "seed = 20040815\ntimestep = 1e-10 s\ncontrol_period = 1e300 s"),
            [],
            "control_period must be an integer multiple of timestep",
        ),
        (
            "compliant-kp03",
            ("kp = 0.03 mm/lbf", "kp = 0.03 mm/lbf\nkv = 5 m/N"),
            [],
            "kv must be 0 under law = compliant, got 5.0",
        ),
        (
            "compliant-kp03",
            ("kp = 0.03 mm/lbf", "kp = 0.03 mm/lbf\nki = 5 m/N"),
            [],
            "ki must be 0 under law = compliant, got 5.0",
        ),
    ],
)
def test_out_of_range_scenario_exits_2_when_built(tmp_path, monkeypatch, capsys, name, edits, args, rule):
    # Each rule is the scenario's, checked when it is built. Without it the
    # runner fails inside its loop, the build divides by 0 or rounds inf, or
    # the compliant law ignores a gain it does not read.
    def unreachable(scenario):
        raise AssertionError("an out-of-range scenario reached its runner")

    monkeypatch.setattr(cli, "run_fma_scenario", unreachable)
    monkeypatch.setattr(cli, "run_force_control_scenario", unreachable)
    cfg = _builtin_variant(tmp_path, name, *edits)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: inconsistent scenario: ") and err.count("\n") == 1
    assert rule in err


@pytest.mark.parametrize("name", ["fma-paper-deburr", "force-regulation"])
def test_negative_seed_names_the_seed_alone(tmp_path, capsys, name):
    # Each field is checked on its own, so the message names only the one refused.
    assert main(["simulate", "--config", name, "--seed=-1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: inconsistent scenario: seed must be nonnegative, got -1\n"
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_key_error_inside_a_run_propagates(rest_config, tmp_path, monkeypatch):
    # Only an unknown chain name is a usage error; any other KeyError is a bug.
    def broken(trace):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "compute_metrics", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["simulate", "--config", rest_config, "--out", str(tmp_path / "out")])


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


def test_force_run_seed_moves_no_byte(tmp_path, capsys):
    # a force run draws no random numbers
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", "compliant-kp01", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", "compliant-kp01", "--out", str(out2), "--seed", "7"]) == 0
    capsys.readouterr()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_successive_calls_share_the_parser_and_leak_no_state(tmp_path, capsys):
    noisy = REST_INI + "\n[disturbance]\nkind = burr\nnoise_sigma = 2 N*m\n"
    path = tmp_path / "noisy.ini"
    path.write_text(noisy)
    seeded, plain = tmp_path / "seeded", tmp_path / "plain"
    assert main(["simulate", "--config", str(path), "--seed", "1", "--json", "--out", str(seeded)]) == 0
    assert json.loads(capsys.readouterr().out)["files"][0] == str(seeded / "trace.csv")
    assert main(["simulate", "--config", str(path), "--out", str(plain)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("rest-hold: 501 samples") and f"wrote {plain / 'trace.csv'}" in text
    assert cli._build_parser() is cli._build_parser()
    # the second run takes the file's seed, not the first call's --seed
    reference = tmp_path / "reference.csv"
    write_trace_csv(run_fma_scenario(build_scenario(load_scenario(str(path)))), reference)
    assert (plain / "trace.csv").read_bytes() == reference.read_bytes()
    assert (seeded / "trace.csv").read_bytes() != reference.read_bytes()


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


@pytest.mark.parametrize("name", ["reg <A&B>", "</text><script>alert(1)</script>"])
def test_svg_text_is_escaped(name, tmp_path, capsys):
    path = tmp_path / "named.ini"
    path.write_text(REST_INI.replace("name = rest-hold", f"name = {name}"))
    out = str(tmp_path / "runs")
    assert main(["simulate", "--config", str(path), "--out", out, "--svg"]) == 0
    assert main(["envelope", "--config", str(path), "--out", out, "--sweep", "1", "--svg"]) == 0
    capsys.readouterr()
    svg_ns = "{http://www.w3.org/2000/svg}"
    for plot in ("trace.svg", "envelope.svg"):
        root = ElementTree.parse(tmp_path / "runs" / plot).getroot()
        assert any(name in el.text for el in root.iter(f"{svg_ns}text")), plot
        assert not list(root.iter(f"{svg_ns}script")), plot


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


@pytest.mark.parametrize("name", ["deburr, pass 2", 'd\u00e9burr "2"'])
def test_envelope_csv_quotes_a_tag_that_needs_it(name, tmp_path, capsys):
    path = tmp_path / "named.ini"
    path.write_text(REST_INI.replace("name = rest-hold", f"name = {name}"), encoding="utf-8")
    assert main(["envelope", "--config", str(path), "--out", str(tmp_path), "--sweep", "0.5,1"]) == 0
    capsys.readouterr()
    with open(tmp_path / "envelope.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["torque", "speed", "tag"]
    assert {len(row) for row in rows} == {3}
    assert {row[2] for row in rows[1:]} == {f"{name}@x0.5", f"{name}@x1"}


def test_band_unit_key_exits_2_in_one_line(tmp_path, capsys):
    cfg = _builtin_variant(tmp_path, "fma-paper-deburr", "3:4:25 rad", "3:4:25\nband_unit = deg")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: unknown key(s) in [disturbance]: ['band_unit']\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["fk", "powercube6", "0", "x", "0", "0", "0", "0"],
        ["envelope", "--config", "fma-paper-deburr", "--sweep", "--"],
        ["jacobian", "powercube6", "0", "-x", "0", "0", "0", "0"],
    ],
)
def test_usage_error_exits_2_in_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# argparse reads only -N and -N.N as negative numbers; any other token
# that starts with "-" it takes for an unknown option.
@pytest.mark.parametrize("command", ["fk", "jacobian"])
@pytest.mark.parametrize("angle, decimal", [("-1e-05", "-0.00001"), ("-1.", "-1.0"), ("-1E+1", "-10")])
def test_negative_angle_is_read_as_a_number(command, angle, decimal, capsys):
    assert main([command, "powercube6", "0", angle, "0", "0", "0", "0", "--json"]) == 0
    out = capsys.readouterr().out
    assert main([command, "powercube6", "0", decimal, "0", "0", "0", "0", "--json"]) == 0
    assert capsys.readouterr().out == out


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


@pytest.mark.parametrize(
    "command, blocked",
    [("simulate", "trace.csv"), ("simulate", "metrics.txt"), ("envelope", "envelope.csv")],
)
def test_output_file_that_is_a_directory_exits_2(rest_config, tmp_path, capsys, command, blocked):
    (tmp_path / "out" / blocked).mkdir(parents=True)
    args = [command, "--config", rest_config, "--out", str(tmp_path / "out")]
    assert main(args + (["--sweep", "1"] if command == "envelope" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / "out" / blocked) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "args, blocked",
    [
        (["simulate", "--config", "compliant-kp01"], "trace.csv"),
        (["simulate", "--config", "fma-paper-deburr", "--svg"], "trace.svg"),
        (["envelope", "--config", "fma-paper-deburr", "--sweep", "1"], "envelope.csv"),
        (["envelope", "--config", "fma-paper-deburr", "--sweep", "1", "--svg"], "envelope.svg"),
    ],
)
def test_unwritable_output_exits_2_before_the_run(tmp_path, monkeypatch, capsys, args, blocked):
    def unreachable(scenario):
        raise AssertionError("a run started with an output it cannot write")

    monkeypatch.setattr(cli, "run_fma_scenario", unreachable)
    monkeypatch.setattr(cli, "run_force_control_scenario", unreachable)
    (tmp_path / "out" / blocked).mkdir(parents=True)
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / "out" / blocked) in err
    assert len(err.splitlines()) == 1
    # the check created no file next to the blocked one
    assert [p.name for p in (tmp_path / "out").iterdir()] == [blocked]


def test_failed_run_leaves_no_new_or_truncated_output(tmp_path, capsys):
    text = resources.files("fmasim").joinpath("scenarios", "force-regulation.ini").read_text()
    path = tmp_path / "wrist.ini"
    path.write_text(text.replace("[plant]\n", "[plant]\nhome = 0 0 0 0 0 0 rad\n", 1))
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "trace.csv").write_text("an earlier trace\n")
    for out in (tmp_path / "fresh", kept):
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    capsys.readouterr()
    assert list((tmp_path / "fresh").iterdir()) == []
    assert [p.name for p in kept.iterdir()] == ["trace.csv"]
    assert (kept / "trace.csv").read_text() == "an earlier trace\n"


def test_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"# caf\xe9 scenario\n" + REST_INI.encode("ascii"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err
    assert len(err.splitlines()) == 1


def test_trapezoid_run_ending_past_its_duration_exits_0(tmp_path, capsys):
    # Three 0.1 s ticks end at 0.30000000000000004 s, past the 0.3 s sweep,
    # where the reference holds its end.
    text = REST_INI.replace("profile = rest\nduration = 0.5 s", "profile = trapezoid\nduration = 0.3 s")
    path = tmp_path / "sweep.ini"
    path.write_text(text + "timestep = 0.1 s\ncontrol_period = 0.1 s\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rows = np.loadtxt(tmp_path / "out" / "trace.csv", delimiter=",", skiprows=1)
    assert rows[-1, 0] > 0.3
    assert tuple(rows[-1, 2:5:2]) == trapezoidal_profile(0.3, 0.3, 2.0 * np.pi / 0.3)[:2]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[plant\nkind = fma\n", "line 1: '[plant' is not a key = value line under a [section] header"),
        ("[plant]\nkind\n", "line 2: 'kind' is not a key = value line under a [section] header"),
        ("[plant]\nkind = fma\n\n[plant]\n", "While reading from '<string>' [line  4]: section 'plant' already exists"),
    ],
)
def test_malformed_file_exits_2_in_one_line(text, message, tmp_path, capsys):
    # configparser's own message for the first two runs over several lines.
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: malformed scenario file: {message}\n"


def test_seed_past_the_floats_runs(tmp_path, capsys):
    # The seed's rule compares it with 0, which holds for an int of any size,
    # where math.isfinite would raise OverflowError.
    cfg = _builtin_variant(tmp_path, "fma-paper-deburr", "seed = 20040815", "seed = 1" + "0" * 400)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "metrics.txt").exists()


def test_voltage_past_the_floats_in_the_last_row_exits_3(tmp_path, capsys):
    # A run shorter than half a tick has one row, which no RK4 step checks:
    # kv times the initial speed error overflows there. Unchecked, the run
    # exits 0 with infinite voltages in its trace and metrics.
    edits = ("kv = 60", "kv = 1e308", "duration = 10 s", "duration = 1e-4 s\nqd0 = 10 rad/s")
    cfg = _builtin_variant(tmp_path, "fma-paper-deburr", *edits)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: fma-paper-deburr: non-finite voltage or torque at t=0.0000 s\n"
    assert not (tmp_path / "o" / "metrics.txt").exists()


def test_wrist_singularity_exits_3(tmp_path, capsys):
    text = resources.files("fmasim").joinpath("scenarios", "force-regulation.ini").read_text()
    text = text.replace("[plant]\n", "[plant]\nhome = 0 0 0 0 0 0 rad\n", 1)
    path = tmp_path / "wrist.ini"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "singular" in err
    assert len(err.splitlines()) == 1


# The shoulder and elbow at 0 stretch the arm out: the first approach solve
# commands a joint step of about 9e12 rad.
@pytest.mark.parametrize("home", ["0 0 0 0 0.7 0", "0 1e-10 0 0 0.7 0"])
def test_joint_step_past_a_quarter_turn_exits_3(home, tmp_path, capsys):
    cfg = _builtin_variant(tmp_path, "force-regulation", "[plant]\n", f"[plant]\nhome = {home} rad\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: force-regulation: joint step of ")
    assert err.endswith(" rad at t=0.0000 s passes the bound of 1.571 rad per tick\n")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o" / "metrics.txt").exists()


def test_near_singular_wrist_runs_as_the_built_in(tmp_path, capsys):
    # cond(G) reaches about 4e9, yet every joint step is the built-in's.
    cfg = _builtin_variant(tmp_path, "force-regulation", "[plant]\n", "[plant]\nhome = 0 -0.6 0.9 0 1e-9 0 rad\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "wrist")]) == 0
    assert main(["simulate", "--config", "force-regulation", "--out", str(tmp_path / "built-in")]) == 0
    capsys.readouterr()
    metrics = (tmp_path / "wrist" / "metrics.txt").read_bytes()
    assert metrics == (tmp_path / "built-in" / "metrics.txt").read_bytes()


# The elbow moved from 0.9 rad toward the stretched-out arm. Every joint
# step stays far within MAX_JOINT_STEP, but the commanded tool height moves
# by more than a tenth off its Jacobian prediction. Unchecked, these runs
# exit 0 with a force that never settles or never reaches contact.
@pytest.mark.parametrize(
    "elbow, failure",
    [
        ("0.001", "at t=0.0000 s moved the commanded tool height 0.00957 m where its Jacobian predicted -0.00015 m"),
        ("0.01", "at t=0.0000 s moved the commanded tool height -6.09e-05 m where its Jacobian predicted -0.00015 m"),
        ("0.1", "at t=1.6667 s moved the commanded tool height -0.000127 m where its Jacobian predicted -0.00015 m"),
    ],
)
def test_jacobian_step_that_does_not_land_exits_3(elbow, failure, tmp_path, capsys):
    home = f"[plant]\nhome = 0 -0.6 {elbow} 0 0.7 0 rad\n"
    cfg = _builtin_variant(tmp_path, "force-regulation", "[plant]\n", home, "duration = 20 s", "duration = 10 s")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: force-regulation: the joint step {failure}\n"
    assert not (tmp_path / "o" / "metrics.txt").exists()


@pytest.mark.parametrize(
    "controller, run, initial, failure",
    [
        # A stiff servo: the error passes half a turn a tick before the state overflows.
        ("kp = 1e9\nkv = 1e6\n", "", "", "tracking error of 3.46e+03 rad at t=0.0040 s passes the bound of 3.142 rad"),
        # twenty RK4 substeps per control tick
        (
            "kp = 1e9\nkv = 1e6\n",
            "timestep = 0.02 s\ncontrol_period = 1 s\n",
            "",
            "tracking error of 5.17e+06 rad at t=2.0000 s passes the bound of 3.142 rad",
        ),
        # The built-in gains with voltages held past the sampled loop's edge, 2/kv = 33 ms.
        ("", "timestep = 40 ms\ncontrol_period = 40 ms\n", "", "tracking error of 3.32 rad at t=4.0000 s passes the bound of 3.142 rad"),
        ("", "timestep = 1 ms\ncontrol_period = 40 ms\n", "", "tracking error of 3.54 rad at t=4.0000 s passes the bound of 3.142 rad"),
        # A speed past 1e9 rad/s with the error still inside the bound.
        ("", "", "qd0 = 1e10 rad/s\n", "state diverged at t=0.0000 s"),
        # The state guard's edge: |q| and |qd| up to 1e9 pass it, and the
        # next float past 1e9, of either sign, stops the run at once.
        ("", "", "qd0 = 1e9 rad/s\n", "tracking error of 9.72e+05 rad at t=0.0010 s passes the bound of 3.142 rad"),
        ("", "", "qd0 = 1000000000.0000001 rad/s\n", "state diverged at t=0.0000 s"),
        ("", "", "qd0 = -1000000000.0000001 rad/s\n", "state diverged at t=0.0000 s"),
        ("", "", "q0 = 1000000000.0000001 rad\n", "state diverged at t=0.0000 s"),
    ],
    ids=[
        "stiff",
        "stiff-substeps",
        "held-40ms",
        "held-40ms-substeps",
        "overspeed",
        "qd0-at-bound",
        "qd0-past-bound",
        "qd0-past-negative-bound",
        "q0-past-bound",
    ],
)
def test_fma_divergence_exits_3(controller, run, initial, failure, tmp_path, capsys):
    text = resources.files("fmasim").joinpath("scenarios", "fma-paper-deburr.ini").read_text()
    if controller:
        text = text.replace("kp = 900\nkv = 60\n", controller, 1)
    text = text.replace("[reference]\n", "[reference]\n" + initial, 1)
    text = text.replace("[run]\n", "[run]\n" + run, 1)
    path = tmp_path / "diverging.ini"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: fma-paper-deburr: {failure}\n"
    assert not (tmp_path / "o" / "metrics.txt").exists()


# One key of a built-in whose derived quantity overflows: each is refused
# when the scenario is built, by the key's name, where the run would end in
# a traceback (a subnormal duration's 2π/duration, or its zero ramp with a
# set peak speed; a peak speed whose sweep ends past the floats; the sine's
# phase at contact; a PID gain over dt or dt**2).
@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("fma-paper-deburr", "duration = 10 s", "duration = 4.9e-324 s", "duration = 5e-324 s is too short: "),
        (
            "fma-paper-deburr",
            "duration = 10 s",
            "duration = 4.9e-324 s\nomega_peak = 1 rad/s",
            "duration = 5e-324 s is too short: ",
        ),
        ("force-sine-tracking", "period = 50 s", "period = 4.9e-324 s", "sine_period = 5e-324 s is too short: "),
        ("force-sine-tracking", "period = 50 s", "period = 1e-310 s", "sine_period = 1e-310 s is too short: "),
        ("force-regulation", "ki = 0.01 mm/lbf", "ki = 1.7e308 m/N", "ki = 1.7e+308 m/N is too large: "),
        (
            "force-regulation",
            "kp = 0.1 mm/lbf\n",
            "kp = 1e308 m/N\n",
            "kp = 1e+308 m/N is too large: its rate-law gain kp/dt overflows at control_rate = 15.0 Hz",
        ),
        (
            "fma-paper-deburr",
            "duration = 10 s",
            "duration = 10 s\nomega_peak = 1.7e308 rad/s",
            "omega_peak = 1.7e+308 rad/s is too large: the sweep's end position ",
        ),
        (
            "force-regulation",
            "seed = 0",
            "seed = 0\nphysics_timestep = 4.9e-324 s",
            "physics_timestep = 5e-324 s is too small: the control period in steps overflows at control_rate = 15 Hz",
        ),
        (
            "force-regulation",
            "seed = 0",
            "seed = 0\nphysics_timestep = 1e-310 s",
            "physics_timestep = 1e-310 s is too small: the control period in steps overflows at control_rate = 15 Hz",
        ),
        (
            "force-regulation",
            "control_rate = 15 Hz",
            "control_rate = 1e-160 Hz",
            "control_rate = 1e-160 Hz: its period squared or in steps overflows",
        ),
    ],
    ids=[
        "duration",
        "duration-with-omega_peak",
        "sine_period-subnormal",
        "sine_period",
        "ki",
        "kp",
        "omega_peak",
        "physics_timestep-subnormal",
        "physics_timestep",
        "control_rate",
    ],
)
@pytest.mark.filterwarnings("error")
def test_overflowing_key_exits_2_in_one_line(name, old, new, message, tmp_path, monkeypatch, capsys):
    def unreachable(scenario):
        raise AssertionError("an overflowing key reached its runner")

    monkeypatch.setattr(cli, "run_fma_scenario", unreachable)
    monkeypatch.setattr(cli, "run_force_control_scenario", unreachable)
    cfg = _builtin_variant(tmp_path, name, old, new)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: inconsistent scenario: {message}")
    assert len(err.splitlines()) == 1


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
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    args = ["envelope", "--config", rest_config, "--sweep", sweep, "--parallel", parallel]
    assert main(args + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _RecordingPool.created == workers


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_envelope_parallel_below_one_exits_2(rest_config, parallel, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    args = ["envelope", "--config", rest_config, "--parallel", parallel, "--out", str(tmp_path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--parallel" in err
    assert len(err.splitlines()) == 1
    assert _RecordingPool.created == []
    assert not (tmp_path / "envelope.csv").exists()
