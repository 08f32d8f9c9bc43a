"""The four benchmark workloads: seeded query lists, the queries and their checks.

A query is the sequence of public library calls that one CLI verb makes in
``mcmc_certify.cli``, with the chain passed as arrays instead of a chain
file.  Queries call the library through module attributes
(``mc_chain.build_chain``), so the tracer can put spans around them.

The parameters that set a query's cost come from one Latin hypercube
sample, fixed by ``DESIGN_SEED``: each gets one draw from each of ``size``
equal strata.  The seed draws everything else: the chains, targets, starts,
functions, the burn-in share, the simulation seeds and the order, and C's
position inside its stratum (the plans have no other input).  So every seed
runs nearly the same mix of query costs, and its medians and tails differ
from another seed's only as much as the host and the chains' contents make
them.

Checks use routes that do not share the answer's code path wherever the
library offers one, and run outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import numpy as np

# import_module, because the package re-exports a function named
# ``exact_error`` that shadows the submodule of that name.
mc_bounds = import_module("mcmc_certify.bounds")
mc_burnin = import_module("mcmc_certify.burnin")
mc_chain = import_module("mcmc_certify.chain")
mc_exact = import_module("mcmc_certify.exact_error")
mc_sim = import_module("mcmc_certify.simulate")
mc_suite = import_module("mcmc_certify.suite")

NORMS = mc_bounds.NORM_KINDS

# Relative slack for inequalities between two floating-point routes.
REL_ORDER = 1e-12
# Agreement required between exact_error and exact_error_naive.
REL_ORACLE = 1e-10
# Largest eigenpair residual accepted, max_k ||P u_k - lambda_k u_k||_pi:
# each residual in the l2(pi) norm in which the eigenfunctions have norm 1.
EIG_RESIDUAL = 1e-9
# Statistical tolerance of the simulation checks, in standard errors.
Z_MAX = 5.0


@dataclass(frozen=True)
class Outcome:
    """What one query returns: the numbers compared across replays, plus
    objects the check needs (kept only for the first execution)."""

    values: tuple
    context: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    dominant: str
    dominant_floor: float
    make: Callable[[np.random.Generator, np.random.Generator, int], list]
    run: Callable[[dict], Outcome]
    check: Callable[[dict, Outcome], list]


# Seed of the sample of cost parameters; changing it changes every workload.
DESIGN_SEED = 20261017


def query_hash(queries: list) -> str:
    """Digest of a query list: parameter names, dtypes, shapes and bytes."""
    h = hashlib.sha256()
    for q in queries:
        for key in sorted(q):
            value = q[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray):
                h.update(f"{value.dtype}{value.shape}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()[:16]


def describe(query: dict) -> str:
    """The scalar parameters of a query and its chain size, for reports."""
    parts = [f"d={query['P'].shape[0]}"] if "P" in query else []
    parts += [f"{k}={v!r}" for k, v in query.items() if not isinstance(v, np.ndarray)]
    return " ".join(parts)


def _strata(design, k, lo, hi, log=False, rng=None) -> np.ndarray:
    """One uniform draw in each of k equal strata of [lo, hi], in the
    order ``design`` permutes the strata to.  ``rng``, when given, draws the
    position inside each stratum; otherwise ``design`` does."""
    u = (design.permutation(k) + (design if rng is None else rng).random(k)) / k
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _int_strata(design, k, lo, hi, log=False) -> np.ndarray:
    """Integer version of :func:`_strata` on the closed range [lo, hi]."""
    if log:
        return np.minimum(np.rint(_strata(design, k, lo, hi, log=True)), hi).astype(np.int64)
    return np.minimum(np.floor(_strata(design, k, lo, hi + 1)), hi).astype(np.int64)


def _birth_death(rng, d):
    """Random birth-death transition matrix and its stationary law.

    Rates in [0.1, 0.4] keep every row's holding probability at least 0.2;
    pi follows from detailed balance along the path, not from the library.
    """
    up, down = rng.uniform(0.1, 0.4, size=(2, d - 1))
    P = mc_suite.birth_death_matrix(up, down)
    log_pi = np.concatenate([[0.0], np.cumsum(np.log(up) - np.log(down))])
    pi = np.exp(log_pi - log_pi.max())
    return P, pi / pi.sum()


def _ramp(d):
    return np.arange(d, dtype=np.float64) / (d - 1)


def _point_mass(d, state):
    nu = np.zeros(d)
    nu[state] = 1.0
    return nu


def _at_least(a, b, rel=REL_ORDER) -> bool:
    return a >= b - rel * abs(b)


def _bound_order(bounds, floor, floor_name) -> list:
    """``bound_theorem >= bound_general_start >= floor`` for every norm;
    ``bounds`` holds (theorem, general) pairs in NORMS order, flattened."""
    problems = []
    for i, kind in enumerate(NORMS):
        theorem, general = bounds[2 * i], bounds[2 * i + 1]
        if not _at_least(theorem, general):
            problems.append(f"{kind}: bound_theorem {theorem!r} < bound_general_start {general!r}")
        if not _at_least(general, floor):
            problems.append(f"{kind}: bound_general_start {general!r} < {floor_name} {floor!r}")
    return problems


# ---------------------------------------------------------------------------
# exact-window: `error --exact` on small birth-death chains
# ---------------------------------------------------------------------------

def make_exact_window(design, rng, k):
    d = _int_strata(design, k, 2, 32)
    n = _int_strata(design, k, 1_000, 30_000, log=True)
    n0 = _int_strata(design, k, 0, 5_000)
    queries = []
    for i in range(k):
        P, pi = _birth_death(rng, int(d[i]))
        queries.append(
            dict(
                P=P,
                pi=pi,
                nu=_point_mass(d[i], int(np.argmin(pi))),
                f=_ramp(int(d[i])),
                n=int(n[i]),
                n0=int(n0[i]),
            )
        )
    return queries


def run_exact_window(q) -> Outcome:
    chain = mc_chain.build_chain(q["P"], q["pi"])
    dec = mc_chain.spectral_decompose(chain)
    spec = mc_exact.EstimatorSpec(n=q["n"], n0=q["n0"])
    report = mc_exact.exact_error(chain, q["nu"], q["f"], spec)
    bounds = []
    for kind in NORMS:
        bounds.append(mc_bounds.bound_theorem(chain, q["nu"], q["f"], spec, kind).total)
        bounds.append(mc_bounds.bound_general_start(chain, q["nu"], q["f"], spec, kind).total)
    values = (report.mse, report.stationary_mse, report.correction, dec.beta, *bounds)
    return Outcome(values, (chain,))


def check_exact_window(q, out: Outcome) -> list:
    problems = _bound_order(out.values[4:], out.values[0], "mse")
    # The naive route costs O(n (n + n0) d^2) in Python, so the copy also
    # cuts the burn-in; the point-mass start still dominates the deviation.
    (chain,) = out.context
    cut = mc_exact.EstimatorSpec(n=min(q["n"], 50), n0=min(q["n0"], 500))
    fast = mc_exact.exact_error(chain, q["nu"], q["f"], cut).mse
    naive = mc_exact.exact_error_naive(chain, q["nu"], q["f"], cut)
    if not abs(fast - naive) <= REL_ORACLE * abs(naive):
        problems.append(f"exact_error {fast!r} vs exact_error_naive {naive!r} at {cut}")
    return problems


# ---------------------------------------------------------------------------
# large-state: `error` (bounds only) on big random Metropolis chains
# ---------------------------------------------------------------------------

def _ring_metropolis(target, width):
    """Metropolis kernel for ``target`` with a uniform proposal on the
    ``2*width + 1`` nearest ring positions (the current one included, so
    every row holds at least ``1/(2*width+1)`` on the diagonal)."""
    d = target.size
    idx = np.arange(d)
    P = np.zeros((d, d))
    for m in range(-width, width + 1):
        if m:
            j = (idx + m) % d
            P[idx, j] += np.minimum(1.0, target[j] / target) / (2 * width + 1)
    P[idx, idx] = 1.0 - P.sum(axis=1)
    return P


def make_large_state(design, rng, k):
    d = _int_strata(design, k, 200, 600)
    width = _int_strata(design, k, 1, 6)
    n = _int_strata(design, k, 1_000, 20_000, log=True)
    n0 = _int_strata(design, k, 0, 1_000)
    # Pin the corner where the least-squares pi solve is least accurate, the
    # largest chain with the narrowest proposal, so every seed measures it.
    top, narrow = int(np.argmax(d)), int(np.argmin(width))
    width[top], width[narrow] = width[narrow], width[top]
    queries = []
    for i in range(k):
        target = np.exp(rng.normal(0.0, 1.0, int(d[i])))
        queries.append(
            dict(
                P=_ring_metropolis(target / target.sum(), int(width[i])),
                nu=_point_mass(d[i], int(rng.integers(d[i]))),
                f=rng.random(int(d[i])),
                n=int(n[i]),
                n0=int(n0[i]),
            )
        )
    return queries


def run_large_state(q) -> Outcome:
    chain = mc_chain.build_chain(q["P"])
    dec = mc_chain.spectral_decompose(chain)
    spec = mc_exact.EstimatorSpec(n=q["n"], n0=q["n0"])
    bounds = []
    for kind in NORMS:
        bounds.append(mc_bounds.bound_theorem(chain, q["nu"], q["f"], spec, kind).total)
        bounds.append(mc_bounds.bound_general_start(chain, q["nu"], q["f"], spec, kind).total)
    constant = mc_exact.asymptotic_constant(chain, q["f"])
    return Outcome((dec.beta1, dec.beta, constant, *bounds), (chain, dec))


def check_large_state(q, out: Outcome) -> list:
    problems = []
    chain, dec = out.context
    U, lam = dec.eigenfunctions, dec.eigenvalues
    # Relative to each eigenfunction's own norm.  The sup norm of an
    # eigenfunction reaches 1/sqrt(min pi), so a bare max|PU - U Lambda|
    # would demand more digits the more pi is spread.
    residual = float(np.max(np.sqrt(chain.pi @ (chain.P @ U - U * lam) ** 2)))
    if not residual <= EIG_RESIDUAL:
        problems.append(f"l2(pi) eigenpair residual {residual:.3e} > {EIG_RESIDUAL}")
    stationary = mc_exact.stationary_error(chain, q["f"], q["n"])
    return problems + _bound_order(out.values[3:], stationary, "stationary_error")


# ---------------------------------------------------------------------------
# budget-plan: `burnin`, all three strategies for both bound kinds
# ---------------------------------------------------------------------------

def make_budget_plan(design, rng, k):
    N = _int_strata(design, k, 100_000, 2_000_000, log=True)
    gap = 10.0 ** _strata(design, k, -4.0, -1.0)
    u = _strata(design, k, 0.0, 1.0, rng=rng)
    queries = []
    for i in range(k):
        beta = 1.0 - float(gap[i])
        # C = 10^U(0,40), capped where the suggested burn-in would reach
        # N/2: beyond that suggested_plan refuses the query by design.  C
        # and beta set how many candidates' corrections fall in exp's slow
        # subnormal range, which moves a scan's time severalfold, so C is
        # stratified too.
        log10_cap = min(40.0, 0.5 * int(N[i]) * -math.log(beta) / math.log(10.0))
        queries.append(dict(N=int(N[i]), beta=beta, C=10.0 ** (float(u[i]) * log10_cap)))
    return queries


def run_budget_plan(q) -> Outcome:
    query = mc_burnin.BudgetQuery(N=q["N"], beta=q["beta"], C=q["C"])
    values = []
    for kind in mc_burnin.BOUND_KINDS:
        for plan in (
            mc_burnin.optimize_burnin(query, kind),
            mc_burnin.suggested_plan(query, kind),
            mc_burnin.half_budget_plan(query, kind),
        ):
            values += [plan.n0, plan.bound_value]
    detail = mc_burnin.suggested_burnin_detail(q["beta"], q["C"])
    return Outcome((*values, detail.n0, detail.borderline))


def check_budget_plan(q, out: Outcome) -> list:
    problems = []
    query = mc_burnin.BudgetQuery(N=q["N"], beta=q["beta"], C=q["C"])
    for i, kind in enumerate(mc_burnin.BOUND_KINDS):
        opt_n0, opt, _, suggested, _, half = out.values[6 * i: 6 * i + 6]
        if not _at_least(suggested, opt):
            problems.append(f"{kind}: optimized {opt!r} > suggested {suggested!r}")
        if not _at_least(half, opt):
            problems.append(f"{kind}: optimized {opt!r} > half-budget {half!r}")
        for n0 in (opt_n0 - 1, opt_n0 + 1):
            if 0 <= n0 < q["N"]:
                value = mc_burnin.bound_function(query, q["N"] - n0, n0, kind)
                if not _at_least(value, opt):
                    problems.append(f"{kind}: bound at n0={n0} is {value!r} < optimum {opt!r}")
    return problems


# ---------------------------------------------------------------------------
# simulate-check: seeded simulation against exact error and bounds
# ---------------------------------------------------------------------------

def make_simulate_check(design, rng, k):
    suite = [
        (np.array(c.P), np.array(c.pi)) for c in mc_suite.validation_suite().values()
    ]
    R = _int_strata(design, k, 10_000, 50_000)
    L = _int_strata(design, k, 10, 100)
    burn = rng.uniform(0.0, 0.5, k)
    size = _int_strata(design, k, 3, 16)
    queries = []
    for i in range(k):
        if i % 2 == 0:
            P, pi = suite[(i // 2) % len(suite)]
        else:
            P, pi = _birth_death(rng, int(size[i]))
        d = P.shape[0]
        n0 = int(L[i] * burn[i])
        queries.append(
            dict(
                P=P,
                pi=pi,
                nu=_point_mass(d, 0),
                f=_ramp(d),
                n=int(L[i]) - n0,
                n0=n0,
                R=int(R[i]),
                seed=int(rng.integers(2**31)),
            )
        )
    return queries


def run_simulate_check(q) -> Outcome:
    chain = mc_chain.build_chain(q["P"], q["pi"])
    spec = mc_exact.EstimatorSpec(n=q["n"], n0=q["n0"])
    config = mc_sim.SimulationConfig(replications=q["R"], seed=q["seed"], spec=spec)
    emp = mc_sim.estimate_error(chain, q["nu"], q["f"], config)
    exact = mc_exact.exact_error(chain, q["nu"], q["f"], spec).mse
    floor = min(mc_bounds.bound_theorem(chain, q["nu"], q["f"], spec, k).total for k in NORMS)
    return Outcome((emp.mse_hat, emp.std_error, exact, floor))


def check_simulate_check(q, out: Outcome) -> list:
    problems = []
    mse_hat, std_error, exact, floor = out.values
    if not abs(mse_hat - exact) <= Z_MAX * std_error:
        problems.append(f"|mse_hat - exact| = {abs(mse_hat - exact)!r} > {Z_MAX} * {std_error!r}")
    if not floor >= mse_hat - Z_MAX * std_error:
        problems.append(f"tightest bound {floor!r} < mse_hat - {Z_MAX} sigma")
    return problems


# Sizes give each pass about five seconds on one core, so a run holds
# several whole passes, and at least 40 queries put ten beyond the tail
# percentile.  The dominant layer and its floor are the acceptance
# criteria for where each workload's time should go.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-window", 40, "exact_error", 0.5,
                 make_exact_window, run_exact_window, check_exact_window),
        Workload("large-state", 48, "chain", 0.5,
                 make_large_state, run_large_state, check_large_state),
        Workload("budget-plan", 48, "burnin.optimize_burnin", 0.8,
                 make_budget_plan, run_budget_plan, check_budget_plan),
        Workload("simulate-check", 40, "simulate.estimate_error", 0.8,
                 make_simulate_check, run_simulate_check, check_simulate_check),
    )
}


def make_queries(workload: Workload, seed: int, size: int | None = None) -> list:
    """The seeded query list, in the seed's random order."""
    k = size or workload.size
    # The workload's name keeps the lists of different workloads independent.
    salt = zlib.crc32(workload.name.encode())
    design = np.random.default_rng([DESIGN_SEED, salt])
    rng = np.random.default_rng([int(seed), salt])
    queries = workload.make(design, rng, k)
    return [queries[j] for j in rng.permutation(k)]
