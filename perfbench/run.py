"""fmasim benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload deburr --seed 1 --seconds 30 --trace 0

Run from a source checkout; fmasim is imported from ``src/`` next to
this directory. A run sets the workload up, runs one untimed warm-up
pass, then timed passes until ``--seconds`` have passed and at least
three passes are done. Every pass is checked after it ends (see
workloads.py); a pass that raises, exits non-zero or fails a check
counts as failed.

``--trace 0`` reports the end-to-end metrics:

- ``wall_rel``: median over passes of the pass time divided by the mean
  of the reference kernel's times just before and just after it;
- ``setup_s``: median seconds to import fmasim and set the workload up.
  The first sample runs from interpreter start, so it also covers numpy
  and scipy; one more is taken after every timed pass, re-importing
  fmasim from a clean module table, so the samples span the whole run;
- ``peak_rss_mb``: peak resident memory of the process.

The median pass time in seconds is logged to standard error but not
reported: the host's speed drifts between runs by more than any bound
the benchmark could hold it to (see README.md).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones and the tracing overhead (traced
over untraced pass time); the last traced pass's spans are written to
``perfbench/out/<workload>/spans.npz``.

The last line of standard output is the JSON result; progress goes to
standard error.
"""
from __future__ import annotations

import time

INTERPRETER_READY = time.perf_counter()

import argparse
import functools
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import tracing
from refkernel import timed_reference
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _purge_fmasim() -> dict:
    """Remove fmasim from the module table; return what was removed."""
    names = [n for n in sys.modules if n == "fmasim" or n.startswith("fmasim.")]
    return {n: sys.modules.pop(n) for n in names}


def import_fmasim():
    """Import the fmasim modules the workloads use, afresh."""
    _purge_fmasim()
    names = ("cli", "config", "dynamics", "fixtures", "fma", "kinematics", "simulation")
    return SimpleNamespace(**{n: importlib.import_module(f"fmasim.{n}") for n in names})


def timed_setup(workload_cls, seed: int, out_dir: Path) -> float:
    """Seconds to import fmasim afresh and set a workload up.

    The workload built is thrown away and the modules the benchmark runs
    on are put back, so later passes and the tracer see the same objects.
    """
    saved = _purge_fmasim()
    start = time.perf_counter()
    workload_cls(import_fmasim(), seed, out_dir)
    elapsed = time.perf_counter() - start
    _purge_fmasim()
    sys.modules.update(saved)
    return elapsed


class PassRunner:
    """Runs and checks passes, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.check_failed = False

    def execute(self):
        """Run one pass; return (seconds, result), or (None, None) if it raised."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = self.workload.run_pass()
        except Exception as exc:  # a pass that raises is a failed operation
            log(f"pass {self.attempted} raised {type(exc).__name__}: {exc}")
            self.failed += 1
            return None, None
        return time.perf_counter() - start, result

    def verify(self, result) -> bool:
        """Check one pass's outputs; a failed check fails the pass."""
        failures = self.workload.check(result)
        for f in failures:
            log(f"pass {self.attempted} check failed: {f}")
        if failures:
            self.failed += 1
            self.check_failed = True
        return not failures

    def run(self) -> float | None:
        """Run and check one untraced pass; return its seconds if it passed."""
        wall, result = self.execute()
        return wall if wall is not None and self.verify(result) else None

    def gave_up(self, successes: list) -> bool:
        return not successes and self.attempted > 4 * MIN_PASSES


def measure(runner: PassRunner, seconds: float, first_setup: float, resetup) -> dict:
    runner.run()  # warm-up: caches, lazy imports, first-pass hash
    walls, rels, setups = [], [], [first_setup]
    begin = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - begin < seconds:
        before = timed_reference()
        wall, result = runner.execute()
        after = timed_reference()
        if wall is not None and runner.verify(result):
            walls.append(wall)
            rels.append(wall / (0.5 * (before + after)))
        elif runner.gave_up(walls):
            break
        setups.append(resetup())
    if not walls:
        return {}
    log(f"{len(walls)} timed passes, median {statistics.median(walls):.4f} s: "
        + " ".join(f"{w:.4f}" for w in walls))
    log("wall_rel per pass: " + " ".join(f"{r:.3f}" for r in rels))
    return {
        "wall_rel": (statistics.median(rels), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def measure_traced(runner: PassRunner, seconds: float, spans_path: Path) -> dict:
    runner.run()  # warm-up, untraced
    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    begin = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - begin < seconds:
        wall = runner.run()
        tracer.reset()
        tracer.install()
        try:
            traced_wall, result = runner.execute()
        finally:
            tracer.uninstall()
        if wall is not None and traced_wall is not None and runner.verify(result):
            plain.append(wall)
            traced.append(traced_wall)
            summaries.append(tracer.summarize())
        elif runner.gave_up(traced):
            break
    if not traced:
        return {}
    tracer.save(spans_path)
    log(f"{len(traced)} traced passes: " + " ".join(f"{w:.4f}" for w in traced))
    counts = [{name: c for name, (c, _) in s.items()} for s in summaries]
    if any(c != counts[0] for c in counts):
        log("warning: call counts differ between traced passes")

    def self_s(select):
        """Median over traced passes of the self time of the spans ``select`` names."""
        return statistics.median(
            sum(s for name, (_, s) in summary.items() if select(name)) for summary in summaries
        )

    def calls(name):
        return counts[-1].get(name, 0)

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    workload = runner.workload
    contact_calls = calls("force_control.contact_wrench")
    return {
        "config.calls": (sum(c for n, c in counts[-1].items() if n.startswith("config.")), "count"),
        "config.self_s": (self_s(layer("config")), "s"),
        "kinematics.frame_transforms.calls": (calls("kinematics.frame_transforms"), "count"),
        "kinematics.g_function.calls": (calls("kinematics.g_function"), "count"),
        "kinematics.compute_gkic.calls": (calls("kinematics.compute_gkic"), "count"),
        "kinematics.self_s": (self_s(layer("kinematics")), "s"),
        "dynamics.forward_dynamics.calls": (calls("dynamics.forward_dynamics"), "count"),
        "dynamics.compute_dynamics.calls": (calls("dynamics.compute_dynamics"), "count"),
        "dynamics.self_s": (self_s(layer("dynamics")), "s"),
        "fma.stribeck_friction.calls": (calls("fma.stribeck_friction"), "count"),
        "fma.reduced_terms.calls": (calls("fma.reduced_terms"), "count"),
        "fma.self_s": (self_s(layer("fma")), "s"),
        "force_control.contact_wrench.calls": (contact_calls, "count"),
        "force_control.conditioner_step.calls": (calls("force_control.SignalConditioner.step"), "count"),
        "force_control.self_s": (self_s(layer("force_control")), "s"),
        "force_control.sensor_useful_ratio": (
            workload.sensor_samples / contact_calls if contact_calls else 0.0, "ratio"
        ),
        "spatial.wrench.calls": (calls("spatial.Wrench.__post_init__"), "count"),
        "spatial.self_s": (self_s(layer("spatial")), "s"),
        "simulation.rk4_step.calls": (calls("simulation.rk4_step"), "count"),
        "simulation.runner.self_s": (self_s(tracing.RUNNERS.__contains__), "s"),
        "simulation.trace_csv_text.self_s": (self_s("simulation.trace_csv_text".__eq__), "s"),
        "simulation.compute_metrics.self_s": (self_s("simulation.compute_metrics".__eq__), "s"),
        "cli.self_s": (self_s(layer("cli")), "s"),
        "cli.bytes_written": (workload.output_bytes(), "bytes"),
        "tracing_overhead": (statistics.median(traced) / statistics.median(plain), "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fmasim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fmasim" / "__init__.py").is_file():
        log(f"error: no fmasim source tree at {src}; run from a source checkout")
        return 2
    sys.path.insert(0, str(src))
    out_dir = BENCH_DIR / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(import_fmasim(), args.seed, out_dir)
    first_setup = time.perf_counter() - INTERPRETER_READY
    runner = PassRunner(workload)
    if args.trace:
        metrics = measure_traced(runner, args.seconds, out_dir / "spans.npz")
    else:
        resetup = functools.partial(timed_setup, workload_cls, args.seed, out_dir)
        metrics = measure(runner, args.seconds, first_setup, resetup)
    if not metrics:
        log("error: every pass failed")
        return 1
    result = {
        "correct": not runner.check_failed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
