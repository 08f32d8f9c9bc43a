#!/usr/bin/env python3
"""Benchmark of mcmc-certify: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload exact-window --seed 1 --seconds 15 --trace 0

The run draws the workload's query list from ``--seed`` and executes it in
whole passes, one query at a time, until ``--seconds`` of query time have
been measured and at least ``MIN_PASSES`` passes have run.  Whole passes
keep every query of the list equally represented.  Every answer is checked;
checks run outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each query
once plain and once traced, in alternating order, and reports the per-layer
metrics derived from the spans plus the tracing overhead.  The last line of
standard output is one JSON object; the lines before it repeat the metrics
for people, with the environment and any failing queries.  A JSON record of
the run (and the spans, when traced) goes to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("exact-window", "large-state", "budget-plan", "simulate-check")

# One BLAS thread: on two cores, two threads doubled large-state query time
# and widened its spread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The tail percentile is fixed, so a faster commit is compared with a
# slower one at the same percentile.  MIN_PASSES times the smallest list
# (40 queries) puts at least ten executions beyond it in every run.
TAIL_PCT = 90
MIN_PASSES = 3

# Setup probes: fresh interpreters that import the package; setup_s is
# their median.  They are spread evenly over the timed part of the run, so
# one busy or quiet spell of a shared host does not set setup_s alone.  The
# run's own import has warmed the file cache and bytecode before the first.
SETUP_PROBES = 7
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import mcmc_certify; print(repr(time.monotonic()))"
)


# The process's own C library; under glibc it has malloc_trim.
_LIBC = ctypes.CDLL(None)


def release_free_memory() -> None:
    """Give the heap's free memory back to the system (glibc only).

    Called after each query, so that peak_rss_mb is the largest query's own
    peak.  Without it glibc keeps freed blocks by a threshold that moves
    with the order of earlier queries: simulate-check's peak read 113-142 MB
    across seeds, and 113 MB with it.  The next query re-faults those pages,
    which costs it 1-4% of its latency, as a fresh CLI process would pay.
    """
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter to the end of its
    ``import mcmc_certify``."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip()) - start


def environment() -> dict:
    import mpmath
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
    }


class Run:
    """Executes one workload's query list and keeps what the metrics need.

    The first execution of each query is checked and becomes its reference
    answer; every later execution must reproduce it bit for bit.
    """

    def __init__(self, workload, queries):
        self.workload = workload
        self.queries = queries
        self.reference = [None] * len(queries)
        self.failed_queries = {}
        self.attempted = 0
        self.failed = 0

    def execute(self, i, tracer=None):
        """Run query i once and check it.  Returns the latency in seconds and
        whether the query returned an answer.  A wrong answer still counts
        as returned; it is counted in ``failed``."""
        query = self.queries[i]
        error = None
        out = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run(query)
            else:
                with tracer.installed(), tracer.span("bench.query", query=i):
                    out = self.workload.run(query)
        except Exception:  # a failing query is a result, not a crash
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        latency = time.perf_counter() - start
        release_free_memory()
        self.attempted += 1
        if error is None:
            error = self.verify(i, out)
        if error is not None:
            self.failed += 1
            self.failed_queries.setdefault(i, error)
        return latency, out is not None

    def verify(self, i, out):
        if self.reference[i] is None:
            problems = self.workload.check(self.queries[i], out)
            if problems:
                self.reference[i] = ("failed", "; ".join(problems))
            else:
                self.reference[i] = ("ok", out.values)
        status, value = self.reference[i]
        if status == "failed":
            return value
        if out.values != value:
            return f"replay differs from first execution: {out.values!r} != {value!r}"
        return None


def run_passes(run, seconds, body):
    """Call ``body(i, pass_index)`` for every query, in whole passes, until
    about ``seconds`` of timed work are done and MIN_PASSES passes ran.
    Each pass takes the queries in a fresh order, so a query's executions
    fall at unrelated moments of the run.  ``body`` returns the timed
    seconds it used.  Returns (passes, timed)."""
    order = list(range(len(run.queries)))
    shuffle = random.Random(0).shuffle
    timed = 0.0
    passes = 0
    while True:
        shuffle(order)
        for i in order:
            timed += body(i, passes)
        passes += 1
        if passes >= MIN_PASSES and timed + timed / passes / 2 >= seconds:
            return passes, timed


def end_to_end(run, seconds):
    """Time every query; take setup probe k once k/SETUP_PROBES of the
    run's seconds are timed (the probes themselves are not timed)."""
    latencies, setup = [], []
    timed = 0.0

    def body(i, _):
        nonlocal timed
        if len(setup) < SETUP_PROBES and timed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe())
        latency, returned = run.execute(i)
        if returned:
            latencies.append(latency)
        timed += latency
        return latency

    passes, timed = run_passes(run, seconds, body)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    return latencies, setup, passes, timed


def traced(run, seconds, tracer):
    """Run every query plain and traced, back to back in alternating order.
    Returns the passes and the tracing overhead over the pairs."""
    plain, spanned = [], []

    def body(i, pass_index):
        pair = {}
        first_traced = (i + pass_index) % 2 == 1
        for with_trace in (first_traced, not first_traced):
            pair[with_trace] = run.execute(i, tracer if with_trace else None)
        if pair[False][1] and pair[True][1]:
            plain.append(pair[False][0])
            spanned.append(pair[True][0])
        return pair[False][0] + pair[True][0]

    passes, _ = run_passes(run, seconds, body)
    overhead = sum(spanned) / sum(plain) - 1.0 if plain else 0.0
    return passes, overhead


def write_record(name, record, spans=None):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    if spans is not None:
        with open(OUT_DIR / f"{name}.spans.jsonl", "w", encoding="utf-8") as handle:
            origin = spans[0].start if spans else 0.0
            for index, s in enumerate(spans):
                handle.write(json.dumps({
                    "id": index, "name": s.name, "start": s.start - origin,
                    "end": s.end - origin, "parent": s.parent, "query": s.query,
                    "failed": s.failed,
                }) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcmc_certify" / "__init__.py").is_file():
        print(f"error: no mcmc_certify package under {SRC}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads, so pin it first; the
    # setup probes inherit it.
    os.environ.update(THREAD_ENV)

    sys.path.insert(0, str(SRC))
    import mcmc_certify
    if Path(mcmc_certify.__file__).resolve().parent != SRC / "mcmc_certify":
        print(f"error: imported mcmc_certify from {mcmc_certify.__file__}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    queries = workloads.make_queries(workload, args.seed)
    run = Run(workload, queries)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# perfbench {tag}: {len(queries)} queries per pass, "
          f"list hash {workloads.query_hash(queries)}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")

    # Warm-up: lazy imports and first-call set-up inside numpy and LAPACK.
    # It is query 0's first execution, so it is checked but not timed.
    run.execute(0)
    run.attempted = run.failed = 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "query_hash": workloads.query_hash(queries), "environment": env}
    spans = None
    if args.trace == 0:
        latencies, setup, passes, timed = end_to_end(run, args.seconds)
        if not latencies:
            print("error: every query raised", file=sys.stderr)
            for i, error in sorted(run.failed_queries.items()):
                print(f"  query {i}: {error}", file=sys.stderr)
            return 1
        metrics = {
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (float(np.percentile(latencies, TAIL_PCT)) * 1e3, "ms"),
            "throughput_qps": (len(latencies) / timed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        beyond = len(latencies) - int(np.ceil(len(latencies) * TAIL_PCT / 100))
        record.update(latency_tail_pct=TAIL_PCT, latency_samples=len(latencies),
                      passes=passes, timed_s=timed, setup_samples_s=setup)
        print(f"# {passes} passes, {len(latencies)} timed queries in {timed:.4g} s; "
              f"tail is p{TAIL_PCT} with {beyond} samples beyond it")
    else:
        tracer = tracing.Tracer()
        passes, overhead = traced(run, args.seconds, tracer)
        spans = tracer.spans
        layer = tracing.layer_metrics(spans, tracer.counts, passes, workload.dominant)
        layer["trace_overhead_frac"] = overhead
        metrics = {
            name: (layer[name], _unit(name)) for name in tracing.per_layer_names()
        }
        share = layer["dominant.share_frac"]
        verdict = "met" if share >= workload.dominant_floor else "NOT MET"
        print(f"# {passes} passes; per-layer values are per pass of the query list")
        print(f"# dominant layer {workload.dominant}: {share:.3f} of query time "
              f"(expected >= {workload.dominant_floor}) {verdict}")
        record["dominant"] = {"layer": workload.dominant, "share": share,
                              "floor": workload.dominant_floor}

    failed_frac = run.failed / run.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed_frac:.6g} ({run.failed}/{run.attempted})")
    for i, error in sorted(run.failed_queries.items()):
        print(f"#   failed query {i} ({workloads.describe(queries[i])}): {error}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result, failed_frac=failed_frac,
                  failed_queries={str(i): e for i, e in run.failed_queries.items()})
    write_record(tag, record, spans)
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("flops_computed"):
        return "flops"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
