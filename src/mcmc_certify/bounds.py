"""Certified upper bounds for the MSE of burn-in time averages.

Two bound families are provided, both sound (never below the exact MSE) and
both reported with their leading/correction split:

* :func:`bound_general_start` — the sharp finite-n form: exact stationary MSE
  plus a start-penalty correction assembled from the geometric aggregates
  :func:`v_aggregate` / :func:`u_aggregate`.
* :func:`bound_theorem` — the closed-form relaxation with explicit constants;
  always at least as large as the general form, and cheap to evaluate for any
  window because the aggregates are replaced by their geometric-series caps
  ``V <= 2/(1-b)^2`` and ``U <= 4*sqrt(2)/((1-b)(1-sqrt(b)))``.

Index convention.  The first averaged state sits ``n0`` transitions after the
start, so the correction series begins with the *raw* start deviation: the
aggregate factors here are applied divided by one power of ``b`` (their sums
start at exponent zero).  This is what makes the general bound actually
dominate the exact MSE — the variant whose series starts at exponent one is
not an upper bound (it can undershoot at n0 = 0).  The shifted sums satisfy
the same caps, so the closed-form constants of :func:`bound_theorem` are
unaffected.

Both families take their start constants from here: :func:`density_ratio_bound`
(``C_density``) and :func:`mass_floor_bound` (``C_pi``); :func:`chi2_contrast`
of the start against ``pi`` is reported beside them.

A function whose squared norms overflow float64 gets the bound ``inf``,
which is still an upper bound, and no floating-point warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._geometric import u_sum, v_sum
from .chain import (
    _MASS_FLOOR,
    ReversibleChain,
    _check_length,
    as_distribution,
    mean_value,
    spectral_decompose,
    weighted_norm,
)
from .errors import ZeroMass, _check_count, _shown
from .exact_error import EstimatorSpec, stationary_error

__all__ = [
    "POWER_FLOOR",
    "NORM_KINDS",
    "damped_power",
    "v_aggregate",
    "u_aggregate",
    "chi2_contrast",
    "density_ratio_bound",
    "mass_floor_bound",
    "BoundConstants",
    "BoundReport",
    "bound_general_start",
    "bound_theorem",
]

# Smallest value damped_power may return: keeps the start penalty strictly
# positive in reports instead of silently vanishing into 0.0.
POWER_FLOOR = 1e-320

NORM_KINDS = ("l2", "l4", "linf")

_SQRT2 = math.sqrt(2.0)


def damped_power(b: float, k: int) -> float:
    """``b ** k`` for ``b in [0,1)``, floored at :data:`POWER_FLOOR`.

    ``k = 0`` returns exactly 1 (also for ``b = 0``).
    """
    k = _check_count(k, 0, "exponent k")
    if not (0.0 <= b < 1.0):
        raise ValueError(f"base b must lie in [0, 1), got {_shown(b)}")
    if k == 0:
        return 1.0
    return max(math.pow(b, float(k)), POWER_FLOOR)


def _validate_bn(b, n) -> tuple[float, int]:
    n = _check_count(n, 1, "n")
    if not (0.0 <= b < 1.0):
        raise ValueError(f"b must lie in [0, 1), got {_shown(b)}")
    return float(b), n


def v_aggregate(b: float, n: int) -> float:
    """Geometric double-sum aggregate ``sum_{k=1..n} (2k - 1) b^k``.

    Equals ``sum_j b^j + 2 sum_{j<k<=n} b^k`` (the nested form collapses by
    counting how many j precede each k).  Monotone in both arguments and
    capped by ``2 / (1-b)^2`` for every n.  Evaluated in O(1), to a few ulp
    for every n, by the float64 kernel of :mod:`mcmc_certify._geometric`.
    """
    b, n = _validate_bn(b, n)
    return float(v_sum(n, b))


def u_aggregate(b: float, n: int) -> float:
    """Half-exponent aggregate ``sum_k b^k + 4*sqrt(2) sum_{j<k<=n} b^{(j+k)/2}``.

    The cross terms decay in ``sqrt(b)``, which is what the fourth-moment
    route pays for its weaker norm; capped by ``4*sqrt(2)/((1-b)(1-sqrt(b)))``.
    Evaluated in O(1) by the same kernel as :func:`v_aggregate`.
    """
    b, n = _validate_bn(b, n)
    return float(u_sum(n, b))


def _one_minus_root(b: float) -> float:
    """``1 - sqrt(b)`` as ``(1-b)/(1+sqrt(b))``, which does not cancel as ``b -> 1``."""
    return (1.0 - b) / (1.0 + math.sqrt(b))


def _squared(x: float) -> float:
    """``x ** 2``, or ``inf`` where the Python float power raises on overflow
    (numpy's products overflow to ``inf`` on the other routes)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _from_start(aggregate, b: float, n: int) -> float:
    """An aggregate with exponents shifted to start at zero: ``aggregate(b, n)/b``."""
    return aggregate(b, n) / b if b > 0.0 else 1.0


def _ratio_safe(mu: np.ndarray, what: str) -> None:
    if np.any(mu < _MASS_FLOOR):
        i = int(np.argmin(mu))
        raise ZeroMass(f"{what} has vanishing mass at state {i} ({mu[i]!r})")


def chi2_contrast(nu, mu) -> float:
    """Chi-square contrast ``sum_x (nu[x] - mu[x])^2 / mu[x]``.

    Zero iff the distributions coincide; requires ``mu > 0`` everywhere.
    """
    nu = np.asarray(as_distribution(nu))
    mu = np.asarray(as_distribution(mu))
    if nu.shape != mu.shape:
        raise ValueError("distributions must have equal length")
    _ratio_safe(mu, "reference distribution")
    diff = nu - mu
    return float(np.sum(diff * diff / mu))


def density_ratio_bound(nu, pi) -> float:
    """Start-quality constant ``||nu/pi - 1||_inf`` (0 iff started at pi)."""
    nu = np.asarray(as_distribution(nu))
    pi = np.asarray(pi, dtype=np.float64)
    if nu.shape != pi.shape:
        raise ValueError("distributions must have equal length")
    _ratio_safe(pi, "stationary distribution")
    return float(np.max(np.abs(nu / pi - 1.0)))


def mass_floor_bound(pi) -> float:
    """Worst-case density constant ``||1/pi||_inf = 1 / min_x pi[x]``."""
    pi = np.asarray(pi, dtype=np.float64)
    _ratio_safe(pi, "stationary distribution")
    return float(1.0 / np.min(pi))


@dataclass(frozen=True)
class BoundConstants:
    """Chain/start constants entering the bounds."""

    beta1: float
    beta: float
    C_density: float
    C_pi: float


@dataclass(frozen=True, eq=False)
class BoundReport:
    """An MSE upper bound split into leading and start-correction terms."""

    norm_kind: str
    leading_term: float
    correction_term: float
    total: float
    constants: BoundConstants


def _bound_inputs(chain: ReversibleChain, nu, f, spec: EstimatorSpec, norm_kind: str):
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")
    nu = _check_length(chain, nu, "start distribution", as_distribution)
    f = _check_length(chain, f, "function")
    dec = spectral_decompose(chain)
    constants = BoundConstants(
        beta1=dec.beta1,
        beta=dec.beta,
        C_density=density_ratio_bound(nu, chain.pi),
        C_pi=mass_floor_bound(chain.pi),
    )
    return nu, f, dec, constants


@np.errstate(over="ignore")  # an overflow's inf is the bound
def bound_general_start(
    chain: ReversibleChain, nu, f, spec: EstimatorSpec, norm_kind: str
) -> BoundReport:
    """Sharp finite-window MSE bound: exact stationary part + start penalty.

    The leading term is the *exact* stationary MSE, so for ``nu = pi`` the
    bound collapses to the truth.  The correction multiplies the shifted
    aggregate, ``beta^{n0}`` and the start constant by the norm factor of the
    chosen route:

    * ``"l2"``   — ``sqrt(C_pi) * sqrt(C_density) * ||g||_2^2`` with the v aggregate,
    * ``"l4"``   — ``sqrt(C_density) * ||g||_4^2`` with the u aggregate,
    * ``"linf"`` — ``sqrt(C_density) * ||g||_inf * ||g||_2`` with the v aggregate,

    where ``g`` is the centered function.  (The sup-norm route uses
    ``||g||_inf * ||g||_2`` rather than ``||g||_inf^2`` — valid since
    ``||g^2||_2 <= ||g||_inf ||g||_2`` — which keeps it below the closed-form
    variant's constant.)
    """
    nu, f, dec, constants = _bound_inputs(chain, nu, f, spec, norm_kind)
    n, n0 = int(spec.n), int(spec.n0)

    leading = stationary_error(chain, f, n)
    g = f - mean_value(f, chain.pi)
    beta = dec.beta
    penalty = damped_power(beta, n0)

    if norm_kind == "l2":
        aggregate = _from_start(v_aggregate, beta, n)
        factor = math.sqrt(constants.C_pi) * math.sqrt(constants.C_density)
        norms = weighted_norm(g, chain.pi, 2) ** 2
    elif norm_kind == "l4":
        aggregate = _from_start(u_aggregate, beta, n)
        factor = math.sqrt(constants.C_density)
        norms = weighted_norm(g, chain.pi, 4) ** 2
    else:
        aggregate = _from_start(v_aggregate, beta, n)
        factor = math.sqrt(constants.C_density)
        norms = weighted_norm(g, chain.pi, np.inf) * weighted_norm(g, chain.pi, 2)

    # A start at pi carries no penalty, also where the norms overflow to inf.
    correction = (
        aggregate * penalty * factor * norms / (float(n) * float(n)) if factor else 0.0
    )
    return BoundReport(
        norm_kind=norm_kind,
        leading_term=leading,
        correction_term=correction,
        total=leading + correction,
        constants=constants,
    )


@np.errstate(over="ignore")  # an overflow's inf is the bound
def bound_theorem(
    chain: ReversibleChain, nu, f, spec: EstimatorSpec, norm_kind: str
) -> BoundReport:
    """Closed-form MSE bound with explicit constants (uncentered norms).

    For window n, burn-in n0, gap constants ``beta1``/``beta`` and start
    constant ``C = C_density``::

        l2  :  2 ||f||_2^2 / (n (1-beta1))
               + 2 sqrt(C_pi) sqrt(C) beta^n0 ||f||_2^2 / (n^2 (1-beta)^2)
        l4  :  2 ||f||_4^2 / (n (1-beta1))
               + 16 sqrt(2) sqrt(C) beta^n0 ||f||_4^2 / (n^2 (1-beta) (1-sqrt(beta)))
        linf:  2 ||f||_inf^2 / (n (1-beta1))
               + 4 sqrt(C) beta^n0 ||f||_inf^2 / (n^2 (1-beta)^2)

    Dominates :func:`bound_general_start` term by term: the aggregates are
    replaced by their caps and the centered norms by uncentered ones
    (``||g||_2 <= ||f||_2``, ``||g||_p <= 2 ||f||_p`` otherwise).
    """
    nu, f, dec, constants = _bound_inputs(chain, nu, f, spec, norm_kind)
    n, n0 = int(spec.n), int(spec.n0)

    beta1, beta = dec.beta1, dec.beta
    penalty = damped_power(beta, n0)
    root_c = math.sqrt(constants.C_density)
    n_f = float(n)

    if norm_kind == "l2":
        norm_sq = weighted_norm(f, chain.pi, 2) ** 2
        corr_const = 2.0 * math.sqrt(constants.C_pi) * root_c / (1.0 - beta) ** 2
    elif norm_kind == "l4":
        norm_sq = weighted_norm(f, chain.pi, 4) ** 2
        corr_const = 16.0 * _SQRT2 * root_c / ((1.0 - beta) * _one_minus_root(beta))
    else:
        norm_sq = _squared(weighted_norm(f, chain.pi, np.inf))
        corr_const = 4.0 * root_c / (1.0 - beta) ** 2

    leading = 2.0 * norm_sq / (n_f * (1.0 - beta1))
    correction = corr_const * penalty * norm_sq / (n_f * n_f) if root_c else 0.0
    return BoundReport(
        norm_kind=norm_kind,
        leading_term=leading,
        correction_term=correction,
        total=leading + correction,
        constants=constants,
    )
