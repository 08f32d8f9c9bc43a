#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads exact-window,budget-plan --seeds 1-5

For each workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  Every run lasts BENCHMARK.json's
``run_seconds``.  ``--save FILE`` keeps every run's values, and
``--against FILE`` also prints how far each median moved from a saved set,
as a share of the saved median (positive is worse).  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--save", type=Path, help="write every run's values here")
    parser.add_argument("--against", type=Path, help="a file written by --save")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    saved = {}
    worst = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} queries failed", flush=True)
                worst = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = values
        for name, runs in values.items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median
            line = (f"{workload:15} {name:16} median {median:10.4g}  spread {spread:6.3f}  "
                    f"bound {bounds[name]:.2f}")
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                worse = (median - before) / before * (1 if lower[name] else -1)
                line += f"  moved {worse:+.3f}"
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1))
    return worst


if __name__ == "__main__":
    sys.exit(main())
