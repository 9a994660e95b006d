#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per end-to-end metric,
the median and the spread (distance between the first and third quartile
of the values, as a share of their median), next to the metric's bound
from BENCHMARK.json. A metric whose spread is not below a third of its
bound is marked.

    python3 perfbench/spread.py --workload stored_scan --runs 5 [--first-seed 1]

Run from the repository root. Each run is a full `perfbench/run.py` run
of BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """(median, IQR / median) exactly as the acceptance check computes it."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: run not correct", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds),
            file=sys.stderr)

    worst = True
    for name, vals in values.items():
        med, sp = spread(vals)
        ok = sp < bounds[name] / 3
        worst = worst and ok
        print(f"{args.workload:15s} {name:16s} median={med:<12.5g} "
              f"spread={sp:7.4f} bound={bounds[name]:.3f}"
              f"{'' if ok else '  <-- not below bound/3'}")
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
