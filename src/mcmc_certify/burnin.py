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
``ceil(log C / log(1/beta))`` (the smallest ``n0`` with ``C beta^n0 <= 1``;
float64 settles it away from integer ratios, integer arithmetic near them),
the *optimized* integer argmin over all feasible splits (the full scan's
while rounding ties fit its window, see ``optimize_burnin``), and the
estimate-free *half budget* rule ``n0 = N//2`` whose asymptotic price is a
factor sqrt(2).  Both squared bounds are convex in ``n0`` for fixed ``N``, so
the optimized split sits beside the continuous bound's stationary point,
which a few Newton steps on one scalar equation find in O(1); an exact pass
over the 257 splits around it settles the integer argmin, on one scratch
array beside the result.  The Newton steps and single-split bounds run on
Python floats, where numpy would pay its per-call overhead on 1-element
arrays.

``BudgetQuery`` is the one input gate: it checks ``N``, ``beta`` and ``C``
(type included), so the planners check only ``kind`` and evaluate bounds
and suggestions on the query's values without checking them again.  The
public ``bound_function``, ``suggested_burnin`` and
``suggested_burnin_detail`` check their own arguments.  The suggestion's
fixed-point logs reduce their argument by the nearest ``1 + j/64`` from a
table built at import, so each atanh series is about 13 terms long.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import POWER_FLOOR, _one_minus_root
from .errors import _ABOVE_ZERO, _BELOW_ONE, _check_count, _check_name, _check_real
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
# optimize_burnin: the exact window reaches this many splits either side of
# the stationary point.
_HALF_WINDOW = 128
# suggested_burnin: a float64 ratio further than this (relative) from every
# integer settles n0.  _log_fixed: fraction bits, and log 2 rounded down.
_CEIL_MARGIN = 1e-12
_FIXED_BITS = 192
_LOG2_FIXED = 0xB17217F7D1CF79ABC9E3B39803F2F6AF40F343267298B62D
# _check_real's domains of the start constant C (a chained comparison, not
# math.isfinite, which overflows on huge ints) and of the suggestion's beta.
_C_RULE = (_ABOVE_ZERO, sys.float_info.max, "C must be a positive finite number")
_BETA_RULE = (_ABOVE_ZERO, _BELOW_ONE, "beta must lie in (0, 1)")


@dataclass(frozen=True)
class BudgetQuery:
    """A planning instance: total budget ``N``, spectral bound, start constant.

    ``N`` is at most 2**53, the range in which float64 holds every integer.
    """

    N: int
    beta: float
    C: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _check_count(self.N, 2, "budget N"))
        beta = _check_real(self.beta, 0.0, _BELOW_ONE, "beta must lie in [0, 1)")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "C", _check_real(self.C, *_C_RULE))


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


def _log_near_one(num: int, den: int) -> int:
    """``log(num/den)`` in fixed point, as ``2 atanh((num-den)/(num+den))``.
    Each truncated term of the atanh series adds under a unit of error."""
    t = (abs(num - den) << _FIXED_BITS) // (num + den)
    t2, term, total, k = (t * t) >> _FIXED_BITS, t, t, 3
    while term:
        term = (term * t2) >> _FIXED_BITS
        total += term // k
        k += 2
    return 2 * total if num >= den else -2 * total


# log(1 + j/64) in fixed point for every j that _log_fixed meets: its
# mantissa lies within 2^(+-1/2) of 1, so j = round(64 (m - 1)) in [-19, 27].
_LOG_TABLE = {j: _log_near_one(64 + j, 64) for j in range(-19, 28)}


def _log_fixed(x: float) -> int:
    """``log x`` in fixed point, after Tang's table-driven logarithm (ACM
    TOMS 16, 1990): ``x = 2^e m`` with ``m`` within ``2^(+-1/2)`` of 1, and
    ``log m = log(1 + j/64) + log(m / (1 + j/64))`` for the nearest ``j``.
    The quotient is an exact rational within 1/90 of 1, so its atanh series
    runs on ``|t| < 1/180`` (about 13 terms); ``log(1 + j/64)`` comes from
    ``_LOG_TABLE``.  For ``x = 2^e``, ``m = 1`` and ``j = 0``, so the log is
    exactly ``e _LOG2_FIXED``."""
    num, den = x.as_integer_ratio()
    e = round(math.log2(x))
    num, den = (num, den << e) if e >= 0 else (num << -e, den)
    j = round(64.0 * math.ldexp(x, -e)) - 64
    return _log_near_one(num << 6, den * (64 + j)) + _LOG_TABLE[j] + e * _LOG2_FIXED


def suggested_burnin_detail(beta: float, C: float) -> BurninSuggestion:
    """Evaluate ``max(ceil(log C / log(1/beta)), 0)`` beyond float64.

    Both logs are taken in fixed point, each within ``2^-170``, so the ratio
    is within about ``1e-35`` (relative); ``_log_fixed`` divides each
    mantissa by the nearest ``1 + j/64`` and adds that factor's log from a
    table, so its atanh series runs on ``|t| < 1/180``.  The rest is exact
    in integers, and ``ratio`` is the correctly rounded quotient.  For
    ``beta = 2^-a`` and ``C = 2^b`` the logs are ``-a`` and ``b`` times
    ``_LOG2_FIXED``, so the outcome is exact; by unique factorisation these
    are the only floats whose ratio is rational.  For ``C <= 1``, ``n0 = 0``
    and not borderline.
    The planners call the same code on a ``BudgetQuery``'s checked values.
    """
    return _suggestion(_check_real(beta, *_BETA_RULE), _check_real(C, *_C_RULE))


def _suggestion(beta: float, C: float) -> BurninSuggestion:
    """``suggested_burnin_detail`` on checked arguments."""
    log_c, log_inv_beta = _log_fixed(C), -_log_fixed(beta)
    nearest = (2 * log_c + log_inv_beta) // (2 * log_inv_beta)
    borderline = C > 1 and abs(log_c - nearest * log_inv_beta) * 10**9 < log_inv_beta
    n0 = max(-(-log_c // log_inv_beta), 0)
    return BurninSuggestion(n0=n0, ratio=log_c / log_inv_beta, borderline=borderline)


def suggested_burnin(beta: float, C: float) -> int:
    """Closed-form burn-in ``max(ceil(log C / log(1/beta)), 0)``.

    libm's ``log`` is within 1 ulp, so the float64 ratio, a few ulp off,
    settles ``n0`` unless it lies within ``_CEIL_MARGIN`` (relative) of an
    integer, where ``suggested_burnin_detail`` does.
    """
    return _suggested_n0(_check_real(beta, *_BETA_RULE), _check_real(C, *_C_RULE))


def _suggested_n0(beta: float, C: float) -> int:
    """``suggested_burnin`` on checked arguments."""
    ratio = math.log(C) / -math.log(beta)
    if abs(ratio - round(ratio)) > _CEIL_MARGIN * abs(ratio):
        return max(math.ceil(ratio), 0)
    return _suggestion(beta, C).n0


def _log_k(beta: float, kind: str) -> float:
    """Log of the correction's constant factor (``C``, ``beta^n0``, ``n^2`` aside)."""
    one_minus = 1.0 - beta
    if kind == "binf":
        return _LOG2 - 2.0 * math.log(one_minus)
    return -math.log(one_minus) - math.log(_one_minus_root(beta))


def _squared_bounds(
    n: np.ndarray, n0: np.ndarray, beta: float, C: float, kind: str
) -> np.ndarray:
    """Squared bound values, evaluated in log space to dodge under/overflow.

    ``lead + exp(log C + damp + log K - 2 log n)``, with ``damp`` the log of
    ``beta^n0`` on its floor and ``exp`` taken as ``inf`` past
    ``_EXP_OVERFLOW``: computed in place on the result and one scratch array.
    """
    if beta > 0.0:
        out = np.multiply(n0, math.log(beta))
        np.maximum(out, _LOG_FLOOR, out=out)
    else:
        out = np.where(n0 == 0, 0.0, _LOG_FLOOR)
    out += math.log(C)
    out += _log_k(beta, kind)
    scratch = np.log(n)
    scratch *= 2
    out -= scratch
    overflow = out > _EXP_OVERFLOW
    np.minimum(out, _EXP_OVERFLOW, out=out)
    np.exp(out, out=out)
    out[overflow] = np.inf
    np.multiply(n, 1.0 - beta, out=scratch)
    np.divide(2.0, scratch, out=scratch)
    out += scratch
    return out


def _bound(beta: float, C: float, n: int, n0: int, kind: str) -> float:
    """The bound (not squared) at one checked split: ``_squared_bounds``'
    steps on Python floats.  log n and exp stay numpy's, as libm's can
    differ by an ulp; the other steps round alike in both."""
    n = float(n)
    if beta > 0.0:
        damp = max(n0 * math.log(beta), _LOG_FLOOR)
    else:
        damp = 0.0 if n0 == 0 else _LOG_FLOOR
    log_corr = math.log(C) + damp + _log_k(beta, kind) - 2 * float(np.log(n))
    corr = math.inf if log_corr > _EXP_OVERFLOW else float(np.exp(log_corr))
    return math.sqrt(2.0 / (n * (1.0 - beta)) + corr)


def bound_function(query: BudgetQuery, n: int, n0: int, kind: str) -> float:
    """Evaluate the worst-case bound (not squared) at an explicit split.

    This 1/n^2-correction family reproduces the published burn-in choices
    and is what all planners here minimize.
    """
    kind = _check_name(kind, BOUND_KINDS, "kind")
    n = _check_count(n, 1, "window length n")
    n0 = _check_count(n0, 0, "burn-in n0")
    return _bound(query.beta, query.C, n, n0, kind)


def optimize_burnin(query: BudgetQuery, kind: str) -> BurninPlan:
    """Argmin of the bound over splits ``n0 in [0, N-1]``, up to rounding ties.

    The squared bound is convex in ``n0``: ``1/(N-n0)`` is convex and
    ``max(beta^n0, floor)/(N-n0)^2`` is log-convex.  Without the floor it
    has one stationary point.  With ``lb = -log beta``,
    ``a = log C + log K + log(1-beta) - log 2`` (``K`` the correction's
    constant) and ``u = (N-n0) lb - 2``, the derivative vanishes where
    ``u + log(u/(u+2)) = Q = N lb - a - 2 - log lb``.  The left side is
    increasing and concave, so Newton's method from ``u = max(Q, 1)``
    (``Q > 0``) or ``e^Q``, both left of the root, climbs to it without
    overshoot.  The slope is at least 1, so the root lies at most the
    residual ``Q - u - log(u/(u+2))`` past ``u``; the steps stop after the
    one taken at a residual under ``lb`` (one split), or once ``u`` moves no
    more (at most 7 steps, 2.0 on average, on 80,000 random queries; a stop
    on the step size instead ends near ``u = 0`` for small ``Q > 0``, about
    ``1/lb`` splits short).  ``n0* = N - (u+2)/lb``
    is clamped to ``[0, N-1]`` and to the floor's reach
    ``log(POWER_FLOOR)/log beta``, past which the bound only grows
    (``n0* = 0`` for ``beta = 0``).  The squared bounds are then evaluated
    on the ``2 _HALF_WINDOW + 1`` splits nearest ``n0*`` inside ``[0, N-1]``.
    Rounding lets splits near the minimum tie with it, over a band that
    widens like ``sqrt(n / |log beta|)``; while the window holds that band,
    the result is the full scan's, bit for bit (tested for N up to 1e7).
    Beyond, on 12,000 random plans with N from 1e7 to 8e15, the bound
    returned was within 2.7e-15 relative of the minimum over 2e4 splits
    either side, or where a large ``|log C|`` quantizes the float bound,
    within a step of it (2.8e-14 at ``C = 3.5e224``, as for a search).
    Ties resolve to the smallest burn-in in the window, and
    an all-``inf`` window gives ``n0 = 0``.  O(1) work.
    """
    kind = _check_name(kind, BOUND_KINDS, "kind")
    n0, value = _optimal_split(query.N, query.beta, query.C, kind)
    return BurninPlan(n0=n0, n=query.N - n0, bound_value=value, strategy="optimized")


def _optimal_split(N: int, beta: float, C: float, kind: str) -> tuple[int, float]:
    """``optimize_burnin``'s ``(n0, bound_value)`` on checked arguments."""
    center = 0
    if beta > 0.0:
        lb = -math.log(beta)
        a = math.log(C) + _log_k(beta, kind) + math.log(1.0 - beta) - _LOG2
        q = N * lb - a - 2.0 - math.log(lb)
        u = max(q, 1.0) if q > 0.0 else math.exp(q)
        while True:
            residual = q - u - math.log(u / (u + 2.0))
            w = u * (u + 2.0)
            last, u = u, u + residual * w / (w + 2.0)
            if residual < lb or u == last:
                break
        n0 = min(max(N - (u + 2.0) / lb, 0.0), N - 1, -_LOG_FLOOR / lb)
        center = round(n0)
    lo = max(0, min(center - _HALF_WINDOW, N - 1 - 2 * _HALF_WINDOW))
    n0s = np.arange(lo, min(lo + 2 * _HALF_WINDOW, N - 1) + 1, dtype=np.int64)
    sq = _squared_bounds((N - n0s).astype(np.float64), n0s, beta, C, kind)
    i = int(np.argmin(sq))
    return lo + i if math.isfinite(sq[i]) else 0, math.sqrt(float(sq[i]))


def suggested_plan(query: BudgetQuery, kind: str) -> BurninPlan:
    """Plan using the closed-form suggestion; rejects an all-burn-in split."""
    kind = _check_name(kind, BOUND_KINDS, "kind")
    n0 = _suggested_n0(query.beta, query.C) if query.beta > 0.0 else 0
    if n0 >= query.N:
        raise ValueError(
            f"suggested burn-in {n0} consumes the whole budget N={query.N}; "
            "no steps would remain for averaging"
        )
    return BurninPlan(
        n0=n0,
        n=query.N - n0,
        bound_value=_bound(query.beta, query.C, query.N - n0, n0, kind),
        strategy="suggested",
    )


def half_budget_plan(query: BudgetQuery, kind: str) -> BurninPlan:
    """The estimate-free split ``n0 = N//2``.

    Needs no knowledge of ``C`` (the correction dies geometrically in N); the
    reported ``penalty_vs_stationary`` converges to sqrt(2) as N grows — the
    documented price of spending half the budget on burn-in forever.
    """
    kind = _check_name(kind, BOUND_KINDS, "kind")
    n0 = query.N // 2
    n = query.N - n0
    value = _bound(query.beta, query.C, n, n0, kind)
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


def _budget_grid(n_max: int) -> list[int]:
    lo = max(10, min(1000, n_max // 10))
    if lo >= n_max:
        return [n_max]
    raw = np.logspace(math.log10(lo), math.log10(n_max), 41)
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
    kind = _check_name(kind, BOUND_KINDS, "kind")
    beta, C = query.beta, query.C
    fixed = []
    for c in n0_choices:
        c = _check_count(c, 0, "each burn-in choice")
        fixed.append((c, f"{kind}[n0={c}]"))
    suggested = _suggested_n0(beta, C) if beta > 0.0 else 0
    fixed.append((suggested, f"{kind}[suggested]"))

    rows: list[FigureRow] = []
    for N in _budget_grid(query.N):
        for n0, label in fixed:
            if n0 < N:
                rows.append(FigureRow(N, n0, label, _bound(beta, C, N - n0, n0, kind)))
        half = N // 2
        rows.append(FigureRow(N, half, f"{kind}[half]", _bound(beta, C, N - half, half, kind)))
        opt_n0, opt = _optimal_split(N, beta, C, kind)
        rows.append(FigureRow(N, opt_n0, f"{kind}[optimized]", opt))
        rows.append(FigureRow(N, 0, "stationary", math.sqrt(worst_case_mse(N, beta))))
    return rows
