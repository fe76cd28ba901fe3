"""Command line front end.

Subcommands: simulate (run one scenario, write trace.csv/metrics.txt),
envelope (sweep a motion scenario across peak speeds and pool the
torque/speed samples), fk and jacobian (query a chain fixture), and
fixtures (list everything runnable by name).

Exit codes: 0 on success, 2 for configuration or usage errors and for
an output file that cannot be written (found before the run starts), 3
when the run cannot continue (the integrator blows up, the chain reaches
a singular configuration, or a joint steps past pi/2 rad in one tick).
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import fixtures
from .errors import ConfigError, DegenerateConfigurationError, SimulationBlowUpError
from .kinematics import forward_kinematics, g_function
from .scenario import ForceControlScenario
from .simulation import (
    SimulationTrace,
    compute_metrics,
    envelope_points,
    metrics_text,
    run_fma_scenario,
    run_force_control_scenario,
    write_metrics,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BLOWUP = 3


def _run_config(cfg: config_mod.ScenarioConfig) -> SimulationTrace:
    scenario = config_mod.build_scenario(cfg)
    if cfg.kind == "fma":
        return run_fma_scenario(scenario)
    return run_force_control_scenario(scenario)


def _load(args) -> config_mod.ScenarioConfig:
    cfg = config_mod.load_scenario(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = config_mod.replace_values(cfg, "run", seed=args.seed)
    return cfg


def _out_files(path: str, *names: str) -> list[Path]:
    """The named files in the output directory, created if missing, each checked writable.

    A missing file is created and removed again; an existing one is opened
    for append, which does not truncate it. Either raises, before the run
    starts, the OSError that writing the file after it would.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    files = [out / name for name in names]
    for file in files:
        try:
            file.open("x").close()
        except FileExistsError:
            file.open("a").close()
        else:
            file.unlink()
    return files


def _trace_plot(trace: SimulationTrace):
    t = trace.t
    if isinstance(trace.scenario, ForceControlScenario):
        return [
            ("measured", t, trace.column("tau_ext")),
            ("reference", t, trace.column("f_ref")),
        ], "force [N]"
    return [
        ("q", t, trace.column("q")),
        ("q_ref", t, trace.column("q_ref")),
    ], "position [rad]"


def _report(args, summary: dict, text: str, written: list) -> int:
    """Print the summary and the files written as JSON, or the text and the files."""
    if args.json:
        print(json.dumps({**summary, "files": written}, indent=2, default=asdict))
    else:
        print(text, end="")
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    trace_path, metrics_path, *svg_path = _out_files(
        args.out, "trace.csv", "metrics.txt", *(["trace.svg"] if args.svg else [])
    )
    trace = _run_config(cfg)
    metrics = compute_metrics(trace)
    write_trace_csv(trace, trace_path)
    write_metrics(metrics, metrics_path)
    written = [str(trace_path), str(metrics_path)]
    if args.svg:
        from . import svg

        series, ylabel = _trace_plot(trace)
        svg.write_plot(svg_path[0], series, title=trace.scenario.name, xlabel="t [s]", ylabel=ylabel)
        written.append(str(svg_path[0]))
    name, samples = trace.scenario.name, trace.n_samples
    summary = {"name": name, "kind": metrics.kind, "samples": samples, "metrics": metrics}
    return _report(args, summary, f"{name}: {samples} samples\n{metrics_text(metrics)}", written)


def cmd_envelope(args) -> int:
    cfg = _load(args)
    if cfg.kind != "fma":
        raise ConfigError("envelope sweeps need an fma scenario (kind = fma)")
    try:
        multipliers = [float(tok) for tok in args.sweep.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad sweep spec {args.sweep!r}; expected comma-separated numbers") from None
    if not multipliers or not all(math.isfinite(m) and m > 0 for m in multipliers):
        raise ConfigError("sweep multipliers must be finite positive numbers")
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be at least 1, got {args.parallel}")

    base_name = cfg.run["name"]
    base_peak = config_mod.build_scenario(cfg).peak_speed
    variants = []
    for mult in multipliers:
        variant = config_mod.replace_values(cfg, "reference", omega_peak=base_peak * mult)
        variants.append(config_mod.replace_values(variant, "run", name=f"{base_name}@x{mult:g}"))

    csv_path, *svg_path = _out_files(args.out, "envelope.csv", *(["envelope.svg"] if args.svg else []))
    # A pool starts all its workers at the first submit; never more than runs.
    workers = min(args.parallel, len(variants))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_run_config, variants))
    else:
        traces = [_run_config(v) for v in variants]
    points = envelope_points(traces)

    with csv_path.open("w", encoding="utf-8", newline="") as f:  # a tag is quoted if it needs it
        rows = [("torque", "speed", "tag")] + [(f"{p.torque:.17g}", f"{p.speed:.17g}", p.tag) for p in points]
        csv.writer(f, lineterminator="\n").writerows(rows)
    written = [str(csv_path)]
    if args.svg:
        from . import svg

        speeds = [p.speed for p in points]
        torques = [p.torque for p in points]
        svg.write_plot(
            svg_path[0],
            [("samples", speeds, torques, "dot")],
            title=f"{base_name} envelope",
            xlabel="speed [rad/s]",
            ylabel="torque [N*m]",
        )
        written.append(str(svg_path[0]))
    summary = {"name": base_name, "runs": len(variants), "points": points}
    return _report(args, summary, f"{len(points)} envelope points from {len(variants)} runs\n", written)


def _chain_and_angles(args):
    chain = fixtures.chain_fixture(args.chain)
    theta = np.asarray(args.theta, dtype=float)
    if theta.shape[0] != chain.dof:
        raise ConfigError(f"{args.chain!r} has {chain.dof} joints, got {theta.shape[0]} angles")
    if not np.all(np.isfinite(theta)):
        raise ConfigError(f"joint angles must be finite, got {' '.join(map(str, args.theta))}")
    return chain, theta


def cmd_fk(args) -> int:
    chain, theta = _chain_and_angles(args)
    pose = forward_kinematics(chain, theta)
    if args.json:
        print(json.dumps({"position": pose.position.tolist(), "euler": pose.euler.tolist()}))
    else:
        print("position =", " ".join(f"{v:.9g}" for v in pose.position))
        print("euler =", " ".join(f"{v:.9g}" for v in pose.euler))
    return EXIT_OK


def cmd_jacobian(args) -> int:
    chain, theta = _chain_and_angles(args)
    g = g_function(chain, theta)
    if args.json:
        print(json.dumps({"jacobian": g.tolist()}))
    else:
        for row in g:
            print(" ".join(f"{v:.9g}" for v in row))
    return EXIT_OK


def cmd_fixtures(args) -> int:
    listing = {
        "chains": sorted(fixtures.CHAIN_FIXTURES),
        "actuators": sorted(fixtures.ACTUATOR_FIXTURES),
        "surfaces": sorted(fixtures.SURFACE_FIXTURES),
        "weightings": sorted(fixtures.WEIGHTING_FIXTURES),
        "scenarios": config_mod.builtin_scenario_names(),
    }
    if args.json:
        print(json.dumps(listing, indent=2))
    else:
        for group, names in listing.items():
            print(f"{group}: {', '.join(names) if names else '(none)'}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 in one `error:` line; -1e-05 and -inf are values, not options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -N and -N.N as numbers, and any other "-..." as an option.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # parse_args keeps no state on the parser, so one tree serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fmasim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and write its trace")
    sim.add_argument("--config", required=True, help="scenario file path or built-in name")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--svg", action="store_true", help="also write a trace plot")
    sim.add_argument("--json", action="store_true", help="print a JSON summary")
    sim.set_defaults(handler=cmd_simulate)

    env = sub.add_parser("envelope", help="sweep peak speed and pool torque/speed samples")
    env.add_argument("--config", required=True, help="fma scenario file path or built-in name")
    env.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    env.add_argument(
        "--sweep",
        default="0.25,0.5,0.75,1,1.25,1.5",
        help="comma-separated peak-speed multipliers",
    )
    env.add_argument("--parallel", type=int, default=1, metavar="N", help="worker processes")
    env.add_argument("--out", default=".", help="output directory")
    env.add_argument("--svg", action="store_true", help="also write an envelope plot")
    env.add_argument("--json", action="store_true", help="print the points as JSON")
    env.set_defaults(handler=cmd_envelope)

    fk = sub.add_parser("fk", help="forward kinematics of a chain fixture")
    fk.add_argument("chain", help="chain fixture name")
    fk.add_argument("theta", nargs="+", type=float, help="joint angles [rad]")
    fk.add_argument("--json", action="store_true")
    fk.set_defaults(handler=cmd_fk)

    jac = sub.add_parser("jacobian", help="tool-point jacobian of a chain fixture")
    jac.add_argument("chain", help="chain fixture name")
    jac.add_argument("theta", nargs="+", type=float, help="joint angles [rad]")
    jac.add_argument("--json", action="store_true")
    jac.set_defaults(handler=cmd_jacobian)

    fix = sub.add_parser("fixtures", help="list built-in fixtures and scenarios")
    fix.add_argument("--json", action="store_true")
    fix.set_defaults(handler=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except OSError as exc:  # e.g. --out, or an output file in it, cannot be written
        path = "" if exc.filename is None else f": {exc.filename!r}"
        print(f"error: {exc.strerror or exc}{path}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, SimulationBlowUpError, DegenerateConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
