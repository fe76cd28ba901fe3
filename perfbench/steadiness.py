"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 30
    python3 perfbench/steadiness.py --seeds 11-20 --seconds 30 --reverse

For every seed it runs each workload once, one process at a time, in
BENCHMARK.json order (or reversed), then prints per workload and metric
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(interquartile distance over median), plus the share of failed passes.
The median pass time in seconds, which run.py logs but does not report,
is summarized as ``wall_s (logged)``.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reverse", action="store_true", help="reverse the workload order")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.reverse:
        workloads.reverse()
    seconds = args.seconds or bench["run_seconds"]

    values: dict = {}
    counts: dict = {}
    for seed in args.seeds:
        for name in workloads:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(json.dumps({"workload": name, "seed": seed, **result}), flush=True)
            attempted, failed = counts.get(name, (0, 0))
            counts[name] = (attempted + result["attempted"], failed + result["failed"])
            for metric, v in result["metrics"].items():
                values.setdefault((name, metric), []).append(v["value"])
            # run.py logs the median pass time in seconds but does not report it.
            wall = re.search(r"timed passes, median ([0-9.]+) s", proc.stderr)
            if wall:
                values.setdefault((name, "wall_s (logged)"), []).append(float(wall.group(1)))

    print(f"{'workload':16} {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for (name, metric), vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:16} {metric:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.4f}")
    for name, (attempted, failed) in counts.items():
        print(f"{name}: {failed} of {attempted} passes failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
