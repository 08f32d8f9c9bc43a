"""In-memory spans around library calls, installed from the benchmark's side.

While installed, the tracer replaces selected functions of the
``mcmc_certify`` modules by wrappers in every module namespace that binds
them (``bounds`` imports ``stationary_error`` by name, for instance), and it
puts the originals back afterwards.  No source module changes, and with the
tracer not installed the library runs untouched.

A span records its name, start, end, parent span and query index.  Work
counters are recorded at the same boundaries; the ones named ``*_computed``
and ``direct_terms`` are computed from the call's arguments, not measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

import numpy as np

PACKAGE = "mcmc_certify"
ROOT = "bench.query"
LAYERS = ("chain", "exact_error", "bounds", "burnin", "simulate")

# (module, function) pairs that get a span.  cli, chainfile, suite and
# errors are thin or off the hot path; convergence runs only as O(d)
# helpers inside bounds.
SPANNED = (
    ("chain", "build_chain"),
    ("chain", "_solve_stationary"),
    ("chain", "spectral_decompose"),
    ("exact_error", "exact_error"),
    ("exact_error", "stationary_error"),
    ("exact_error", "asymptotic_constant"),
    ("bounds", "bound_theorem"),
    ("bounds", "bound_general_start"),
    ("bounds", "v_aggregate"),
    ("bounds", "u_aggregate"),
    ("burnin", "optimize_burnin"),
    ("burnin", "suggested_plan"),
    ("burnin", "half_budget_plan"),
    ("burnin", "suggested_burnin_detail"),
    ("simulate", "estimate_error"),
)

# Eigenvalues at least this large in magnitude take the O(n) direct sum in
# w_factor (for n up to 2e6, which every workload stays below).
DIRECT_SUM_THRESHOLD = 0.9


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    query: int | None
    failed: bool


def _exact_counts(arguments, originals):
    steps = arguments["spec"].total
    return {"steps": steps, "flops_computed": steps * arguments["chain"].size ** 2}


def _stationary_counts(arguments, originals):
    lam = originals["chain.spectral_decompose"](arguments["chain"]).eigenvalues[1:]
    big = int(np.count_nonzero(np.abs(lam) >= DIRECT_SUM_THRESHOLD))
    return {"direct_terms": int(arguments["n"]) * big}


def _optimize_counts(arguments, originals):
    return {"budget_sum": arguments["query"].N}


def _estimate_counts(arguments, originals):
    config = arguments["config"]
    cells = config.replications * config.spec.total
    return {"transitions": cells, "block_bytes_computed": 8 * cells}


COUNTERS = {
    "exact_error.exact_error": (_exact_counts, ("steps", "flops_computed")),
    "exact_error.stationary_error": (_stationary_counts, ("direct_terms",)),
    "burnin.optimize_burnin": (_optimize_counts, ("budget_sum",)),
    "simulate.estimate_error": (_estimate_counts, ("transitions", "block_bytes_computed")),
}
# Counters that keep the largest value seen instead of a sum.
PEAK_COUNTERS = {"simulate.estimate_error.block_bytes_computed"}


def per_layer_names() -> list:
    """Every per-layer metric name, in report order."""
    return [*layer_metrics([], {}, 1, LAYERS[0]), "trace_overhead_frac"]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._query: int | None = None
        self._originals = {}
        self._targets = []
        for module, func in SPANNED:
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            name = f"{module}.{func}"
            self._originals[name] = fn
            self._targets.append((name, func, fn, self._wrap(name, fn)))

    def _record_counts(self, name, fn, args, kwargs):
        counter, _ = COUNTERS[name]
        arguments = inspect.signature(fn).bind(*args, **kwargs).arguments
        for key, value in counter(arguments, self._originals).items():
            metric = f"{name}.{key}"
            if metric in PEAK_COUNTERS:
                self.counts[metric] = max(self.counts[metric], value)
            else:
                self.counts[metric] += value

    def _wrap(self, name, fn):
        counted = name in COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counted:
                self._record_counts(name, fn, args, kwargs)
            return result

        return traced

    @contextmanager
    def span(self, name, query=None):
        """Record one span; ``query`` starts a new query's root span."""
        if query is not None:
            self._query = query
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        failed = True
        start = perf_counter()
        try:
            yield
            failed = False
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._query, failed)

    @contextmanager
    def installed(self):
        """Swap the wrappers into every loaded package module, then restore."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        patched = []
        try:
            for _, attr, fn, wrapper in self._targets:
                for module in modules:
                    if getattr(module, attr, None) is fn:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)


def layer_metrics(spans, counts, passes, dominant) -> dict:
    """Per-layer metrics per pass over the query list.

    ``busy_s`` is a function's inclusive time, ``self_s`` a layer's time
    outside its child spans, and ``share_frac`` that self time over the
    summed root query spans.  ``dominant`` names a layer or a single
    function whose self-time share is reported as ``dominant.share_frac``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    calls, busy, failed, self_by_name = (defaultdict(float) for _ in range(4))
    for s, inner in zip(spans, child):
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        failed[s.name] += s.failed
        self_by_name[s.name] += s.end - s.start - inner

    def module_self(prefix):
        return sum(v for k, v in self_by_name.items() if k.split(".")[0] == prefix)

    query_busy = busy[ROOT]
    out = {}
    for module, func in SPANNED:
        name = f"{module}.{func}"
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.busy_s"] = busy[name] / passes
        out[f"{name}.failed"] = failed[name] / passes
        for key in COUNTERS.get(name, (None, ()))[1]:
            metric = f"{name}.{key}"
            value = counts.get(metric, 0.0)
            out[metric] = value if metric in PEAK_COUNTERS else value / passes
    for layer in LAYERS:
        out[f"{layer}.self_s"] = module_self(layer) / passes
        out[f"{layer}.share_frac"] = module_self(layer) / query_busy if query_busy else 0.0
    out["bench.self_s"] = module_self("bench") / passes
    out["query.calls"] = calls[ROOT] / passes
    out["query.busy_s"] = query_busy / passes
    share = self_by_name[dominant] if "." in dominant else module_self(dominant)
    out["dominant.share_frac"] = share / query_busy if query_busy else 0.0
    return out
