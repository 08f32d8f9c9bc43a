"""Burn-in planning under a fixed budget of chain steps.

Setting: ``N = n + n0`` total steps are affordable; every step spent on
burn-in (``n0``) is a step not spent averaging (``n``).  All planning here
works on the normalized worst-case bound family parameterized by the spectral
bound ``beta`` and a start-quality constant ``C``::

    binf(n, n0)^2 = 2/(n(1-beta)) + 2 C beta^n0 / (n^2 (1-beta)^2)
    b4(n, n0)^2   = 2/(n(1-beta)) +   C beta^n0 / (n^2 (1-beta)(1-sqrt(beta)))

i.e. the closed-form theorem bounds with the norm factors scaled out ("binf"
covers both the l2 and sup-norm routes, which share this shape; "b4" is the
fourth-moment route).  The correction decays one power of n faster than the
leading term, matching the closed-form error bounds.

Three strategies are provided: a closed-form *suggested* burn-in
``ceil(log C / log(1/beta))`` (which makes ``C beta^n0 <= 1``), the exact
integer *optimized* argmin over all feasible splits, and the estimate-free
*half budget* rule ``n0 = N//2`` whose asymptotic price is a factor sqrt(2).
Both squared bounds are convex in ``n0`` for fixed ``N``, so the optimized
split is found by a ternary search in O(log N) bound evaluations, finished
by an exact pass over a window of at most 257 splits.  The search runs on
Python floats with ``math`` (each round is two scalar evaluations, where
numpy would pay its per-call overhead on 2-element arrays); only the final
window is evaluated as an array.

The suggested burn-in is settled in float64 wherever float64 can settle it:
the ratio ``log C / log(1/beta)`` is within a few ulp of its exact value,
so its ceiling is final when the ratio lies more than ``1e-12`` (relative)
from both neighbouring integers.  Only near an integer does
``suggested_burnin`` fall back to the 50-digit evaluation of
``suggested_burnin_detail``, the one use of mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import POWER_FLOOR
from .exact_error import worst_case_mse

__all__ = [
    "BOUND_KINDS",
    "BudgetQuery",
    "BurninPlan",
    "BurninSuggestion",
    "FigureRow",
    "suggested_burnin",
    "suggested_burnin_detail",
    "bound_function",
    "optimize_burnin",
    "suggested_plan",
    "half_budget_plan",
    "figure_series",
]

BOUND_KINDS = ("b4", "binf")

_LOG_FLOOR = math.log(POWER_FLOOR)
_LOG2 = math.log(2.0)
_EXP_OVERFLOW = 709.0
# float64 holds every integer up to 2**53 exactly; beyond it the window
# lengths float(N - n0) of neighbouring splits can coincide.
_MAX_BUDGET = 2**53
# optimize_burnin: the ternary search stops at a bracket of _BRACKET splits,
# and the exact window adds _MARGIN splits on each side of it.
_BRACKET = 128
_MARGIN = 64
# suggested_burnin: a float64 ratio further than this (relative) from every
# integer has a settled ceiling; nearer ones take the 50-digit route.
_CEIL_MARGIN = 1e-12


@dataclass(frozen=True)
class BudgetQuery:
    """A planning instance: total budget ``N``, spectral bound, start constant.

    ``N`` is at most 2**53, the range in which float64 holds every integer.
    """

    N: int
    beta: float
    C: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or not 2 <= self.N <= _MAX_BUDGET:
            raise ValueError(
                f"budget N must be an integer in [2, 2**53], got {self.N!r}"
            )
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta!r}")
        if not (isinstance(self.C, (int, float)) and math.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be a positive finite number, got {self.C!r}")


@dataclass(frozen=True)
class BurninPlan:
    """A chosen split of the budget, with the certified bound it achieves.

    ``penalty_vs_stationary`` is only set by the half-budget strategy: the
    ratio of the achieved bound to the stationary yardstick
    ``sqrt(2 / (N (1-beta)))``.
    """

    n0: int
    n: int
    bound_value: float
    strategy: str
    penalty_vs_stationary: float | None = None


@dataclass(frozen=True)
class BurninSuggestion:
    """Closed-form suggestion with its raw ratio and a borderline flag.

    ``borderline`` is set when ``log C / log(1/beta)`` sits within 1e-9 of an
    integer — the ceiling is then sensitive to the precision of the inputs
    and neighbouring integers should be considered equivalent.
    """

    n0: int
    ratio: float
    borderline: bool


def _check_suggestion_args(beta: float, C: float) -> None:
    if not (isinstance(beta, (int, float)) and 0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    if not (isinstance(C, (int, float)) and math.isfinite(C) and C > 0):
        raise ValueError(f"C must be a positive finite number, got {C!r}")


def suggested_burnin_detail(beta: float, C: float) -> BurninSuggestion:
    """Evaluate ``max(ceil(log C / log(1/beta)), 0)`` at 50-digit precision.

    The float64 ratio is a few ulp off, which cannot settle the ceiling
    when the exact ratio is an integer or within a few ulp of one, and
    ``ratio`` is reported correctly rounded; hence the high-precision
    evaluation.  For ``C <= 1`` the ratio is not positive, so the clamp at
    0 settles the outcome and ``borderline`` stays False.
    """
    _check_suggestion_args(beta, C)
    # Imported here, its only runtime use, to keep mpmath off the import path.
    import mpmath as mp

    with mp.workdps(50):
        ratio = mp.log(mp.mpf(C)) / -mp.log(mp.mpf(beta))
        n0 = max(int(mp.ceil(ratio)), 0)
        borderline = C > 1.0 and bool(abs(ratio - mp.nint(ratio)) < mp.mpf("1e-9"))
    return BurninSuggestion(n0=n0, ratio=float(ratio), borderline=borderline)


def suggested_burnin(beta: float, C: float) -> int:
    """Closed-form burn-in ``max(ceil(log C / log(1/beta)), 0)``.

    Equal to ``suggested_burnin_detail(beta, C).n0``.  libm's ``log`` is
    within 1 ulp, so the float64 ratio is within a few ulp of the exact one;
    its ceiling is returned unless the ratio lies within ``_CEIL_MARGIN``
    (relative) of an integer, where the 50-digit route decides.
    """
    _check_suggestion_args(beta, C)
    if C <= 1.0:
        return 0
    ratio = math.log(C) / -math.log(beta)
    n0 = math.ceil(ratio)
    slack = _CEIL_MARGIN * ratio
    if n0 - ratio > slack and ratio - (n0 - 1) > slack:
        return n0
    return suggested_burnin_detail(beta, C).n0


def _log_k(beta: float, kind: str) -> float:
    """Log of the correction's constant factor (``C``, ``beta^n0``, ``n^2`` aside)."""
    one_minus = 1.0 - beta
    if kind == "binf":
        return _LOG2 - 2.0 * math.log(one_minus)
    # 1 - sqrt(beta) computed as (1-beta)/(1+sqrt(beta)) to avoid cancellation
    one_minus_root = one_minus / (1.0 + math.sqrt(beta))
    return -math.log(one_minus) - math.log(one_minus_root)


def _bound_terms(
    n: np.ndarray, n0: np.ndarray, beta: float, C: float, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """The leading term and the log of the correction term, before any clamp."""
    lead = 2.0 / (n * (1.0 - beta))
    if beta > 0.0:
        damp = np.maximum(n0 * math.log(beta), _LOG_FLOOR)
    else:
        damp = np.where(n0 == 0, 0.0, _LOG_FLOOR)
    return lead, math.log(C) + damp + _log_k(beta, kind) - 2 * np.log(n)


def _squared_bounds(
    n: np.ndarray, n0: np.ndarray, beta: float, C: float, kind: str
) -> np.ndarray:
    """Squared bound values, evaluated in log space to dodge under/overflow."""
    lead, log_corr = _bound_terms(n, n0, beta, C, kind)
    corr = np.where(
        log_corr > _EXP_OVERFLOW,
        np.inf,
        np.exp(np.minimum(log_corr, _EXP_OVERFLOW)),
    )
    return lead + corr


def _check_kind(kind: str) -> None:
    if kind not in BOUND_KINDS:
        raise ValueError(f"kind must be one of {BOUND_KINDS}, got {kind!r}")


def bound_function(query: BudgetQuery, n: int, n0: int, kind: str) -> float:
    """Evaluate the worst-case bound (not squared) at an explicit split.

    This 1/n^2-correction family reproduces the published burn-in choices
    and is what all planners here minimize.
    """
    _check_kind(kind)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"window length n must be a positive integer, got {n!r}")
    if not isinstance(n0, (int, np.integer)) or n0 < 0:
        raise ValueError(f"burn-in n0 must be a nonnegative integer, got {n0!r}")
    n_arr, n0_arr = np.array([float(n)]), np.array([int(n0)], dtype=np.int64)
    return float(np.sqrt(_squared_bounds(n_arr, n0_arr, query.beta, query.C, kind)[0]))


def optimize_burnin(query: BudgetQuery, kind: str) -> BurninPlan:
    """Exact integer argmin of the bound over all splits ``n0 in [0, N-1]``.

    The squared bound is convex in ``n0``: ``1/(N-n0)`` is convex and
    ``max(beta^n0, floor)/(N-n0)^2`` is log-convex.  A ternary search
    (Kiefer, Proc. AMS 4, 1953) narrows ``[0, N-1]`` to a bracket of at most
    ``_BRACKET`` splits.  It compares the finite surrogate
    ``logaddexp(log lead, log corr)``; the squared values would not do, as
    they saturate to ``inf`` at one or both ends, where no comparison can
    tell the sides apart.  The squared bounds are then evaluated on the
    bracket widened by ``_MARGIN`` splits on each side.  Rounding lets
    splits near the minimum tie with it, over a band that widens like
    ``sqrt(n / |log beta|)`` (about 20 splits at N = 2e8); while the window
    holds that band, the result is the full scan's, bit for bit.  The tests
    check that equality for N up to 1e7 (random queries up to 2e5).  From
    about N = 1e11 the splits that tie with the minimum can spread over
    more than the window, so the split returned is one whose bound is
    within rounding of the minimum (within 1.1e-15 relative of the minimum
    over 2e6 splits either side, measured up to N = 1e15), not necessarily
    the scan's.  Ties resolve to the smallest burn-in in the window, and an
    all-``inf`` window gives ``n0 = 0``.  O(log N) work.
    """
    _check_kind(kind)
    N, beta, C = query.N, query.beta, query.C
    one_minus = 1.0 - beta
    log_beta = math.log(beta) if beta > 0.0 else 0.0
    log_c, log_k = math.log(C), _log_k(beta, kind)

    def surrogate(n0: int) -> float:
        # _bound_terms' operations in its order, then np.logaddexp's formula.
        n = float(N - n0)
        x = math.log(2.0 / (n * one_minus))
        if beta > 0.0:
            damp = max(n0 * log_beta, _LOG_FLOOR)
        else:
            damp = 0.0 if n0 == 0 else _LOG_FLOOR
        y = log_c + damp + log_k - 2 * math.log(n)
        if x == y:
            return x + _LOG2
        return max(x, y) + math.log1p(math.exp(-abs(x - y)))

    lo, hi = 0, N - 1
    while hi - lo > _BRACKET:
        third = (hi - lo) // 3
        left, right = lo + third, hi - third
        if surrogate(left) <= surrogate(right):
            hi = right
        else:
            lo = left
    start = max(lo - _MARGIN, 0)
    n0s = np.arange(start, min(hi + _MARGIN, N - 1) + 1, dtype=np.int64)
    sq = _squared_bounds((N - n0s).astype(np.float64), n0s, beta, C, kind)
    i = int(np.argmin(sq))
    best_n0 = start + i if math.isfinite(sq[i]) else 0
    return BurninPlan(
        n0=best_n0,
        n=N - best_n0,
        bound_value=math.sqrt(float(sq[i])),
        strategy="optimized",
    )


def suggested_plan(query: BudgetQuery, kind: str) -> BurninPlan:
    """Plan using the closed-form suggestion; rejects an all-burn-in split."""
    _check_kind(kind)
    n0 = suggested_burnin(query.beta, query.C) if query.beta > 0.0 else 0
    if n0 >= query.N:
        raise ValueError(
            f"suggested burn-in {n0} consumes the whole budget N={query.N}; "
            "no steps would remain for averaging"
        )
    return BurninPlan(
        n0=n0,
        n=query.N - n0,
        bound_value=bound_function(query, query.N - n0, n0, kind),
        strategy="suggested",
    )


def half_budget_plan(query: BudgetQuery, kind: str) -> BurninPlan:
    """The estimate-free split ``n0 = N//2``.

    Needs no knowledge of ``C`` (the correction dies geometrically in N); the
    reported ``penalty_vs_stationary`` converges to sqrt(2) as N grows — the
    documented price of spending half the budget on burn-in forever.
    """
    _check_kind(kind)
    n0 = query.N // 2
    n = query.N - n0
    value = bound_function(query, n, n0, kind)
    yardstick = math.sqrt(2.0 / (query.N * (1.0 - query.beta)))
    return BurninPlan(
        n0=n0,
        n=n,
        bound_value=value,
        strategy="half_budget",
        penalty_vs_stationary=value / yardstick,
    )


@dataclass(frozen=True)
class FigureRow:
    """One CSV row of a bound-vs-budget curve family.

    ``kind`` carries the curve label (e.g. ``b4[n0=6000]``, ``b4[half]``,
    ``stationary``), so one list of rows holds a whole figure.
    """

    N: int
    n0: int
    kind: str
    value: float


def _budget_grid(n_max: int, points: int = 41) -> list[int]:
    lo = max(10, min(1000, n_max // 10))
    if lo >= n_max:
        return [n_max]
    raw = np.logspace(math.log10(lo), math.log10(n_max), points)
    return sorted({int(round(x)) for x in raw if round(x) >= 2})


def figure_series(query: BudgetQuery, n0_choices, kind: str) -> list[FigureRow]:
    """Bound-vs-budget curves over a log-spaced grid of budgets up to ``query.N``.

    Emits one curve per fixed burn-in in ``n0_choices`` (rows appear once the
    budget exceeds the choice), plus the suggested, half-budget and optimized
    strategies and the stationary worst-case reference
    ``sqrt(W(N, beta)/N^2)``.  Fixed choices below the suggested level stay
    visibly above the optimized curve until the leading term drowns the
    start penalty; oversized choices waste averaging steps instead, shifting
    their curve to larger budgets.
    """
    _check_kind(kind)
    choices = []
    for c in n0_choices:
        if not isinstance(c, (int, np.integer)) or c < 0:
            raise ValueError(f"burn-in choices must be nonnegative integers, got {c!r}")
        choices.append(int(c))

    suggested = suggested_burnin(query.beta, query.C) if query.beta > 0.0 else 0
    rows: list[FigureRow] = []
    for N in _budget_grid(query.N):
        sub = BudgetQuery(N=N, beta=query.beta, C=query.C)
        for c in choices:
            if c < N:
                rows.append(
                    FigureRow(N, c, f"{kind}[n0={c}]", bound_function(sub, N - c, c, kind))
                )
        if suggested < N:
            rows.append(
                FigureRow(
                    N,
                    suggested,
                    f"{kind}[suggested]",
                    bound_function(sub, N - suggested, suggested, kind),
                )
            )
        half = half_budget_plan(sub, kind)
        rows.append(FigureRow(N, half.n0, f"{kind}[half]", half.bound_value))
        opt = optimize_burnin(sub, kind)
        rows.append(FigureRow(N, opt.n0, f"{kind}[optimized]", opt.bound_value))
        rows.append(FigureRow(N, 0, "stationary", math.sqrt(worst_case_mse(N, query.beta))))
    return rows
