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

Both families take the start constants of :func:`density_ratio_bound`
(``C_density``) and :func:`mass_floor_bound` (``C_pi``) from the gate's checked
nu and the checked ``chain.pi``, without checking them again; :func:`chi2_contrast`
of the start against ``pi`` is reported beside them.

Both families check their inputs in :func:`~mcmc_certify.exact_error._inputs`,
work on its ``_scaled`` f and multiply by ``s * s`` once, so a bound beyond
float64 is ``inf``, which is still an upper bound, and no floating-point warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._geometric import u_sum, v_sum
from .chain import ReversibleChain, _check_mass, as_distribution, spectral_decompose, weighted_norm
from .errors import _BELOW_ONE, _check_count, _check_name, _check_real
from .exact_error import EstimatorSpec, _inputs, stationary_error

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
    b = _check_real(b, 0.0, _BELOW_ONE, "base b must lie in [0, 1)")
    return max(math.pow(b, float(k)), POWER_FLOOR)


def v_aggregate(b: float, n: int) -> float:
    """Geometric double-sum aggregate ``sum_{k=1..n} (2k - 1) b^k``.

    Equals ``sum_j b^j + 2 sum_{j<k<=n} b^k`` (the nested form collapses by
    counting how many j precede each k).  Monotone in both arguments and
    capped by ``2 / (1-b)^2`` for every n.  Evaluated in O(1), to a few ulp
    for every n, by the float64 kernel of :mod:`mcmc_certify._geometric`.
    """
    n = _check_count(n, 1, "n")
    return float(v_sum(n, _check_real(b, 0.0, _BELOW_ONE, "b must lie in [0, 1)")))


def u_aggregate(b: float, n: int) -> float:
    """Half-exponent aggregate ``sum_k b^k + 4*sqrt(2) sum_{j<k<=n} b^{(j+k)/2}``.

    The cross terms decay in ``sqrt(b)``, which is what the fourth-moment
    route pays for its weaker norm; capped by ``4*sqrt(2)/((1-b)(1-sqrt(b)))``.
    Evaluated in O(1) by the same kernel as :func:`v_aggregate`.
    """
    n = _check_count(n, 1, "n")
    return float(u_sum(n, _check_real(b, 0.0, _BELOW_ONE, "b must lie in [0, 1)")))


def _one_minus_root(b: float) -> float:
    """``1 - sqrt(b)`` as ``(1-b)/(1+sqrt(b))``, which does not cancel as ``b -> 1``."""
    return (1.0 - b) / (1.0 + math.sqrt(b))


def _from_start(aggregate, b: float, n: int) -> float:
    """An aggregate with exponents shifted to start at zero: ``aggregate(b, n)/b``."""
    return aggregate(b, n) / b if b > 0.0 else 1.0


def chi2_contrast(nu, mu) -> float:
    """Chi-square contrast ``sum_x (nu[x] - mu[x])^2 / mu[x]``.

    Zero iff the distributions coincide; requires ``mu > 0`` everywhere.
    """
    nu, mu = as_distribution(nu), as_distribution(mu)
    if nu.shape != mu.shape:
        raise ValueError("distributions must have equal length")
    _check_mass(mu, "reference distribution")
    diff = nu - mu
    return float(np.sum(diff * diff / mu))


def density_ratio_bound(nu, pi) -> float:
    """Start-quality constant ``||nu/pi - 1||_inf`` (0 iff started at pi)."""
    nu, pi = as_distribution(nu), np.asarray(pi, dtype=np.float64)
    if nu.shape != pi.shape:
        raise ValueError("distributions must have equal length")
    _check_mass(pi, "stationary distribution")
    return float(np.max(np.abs(nu / pi - 1.0)))


def mass_floor_bound(pi) -> float:
    """Worst-case density constant ``||1/pi||_inf = 1 / min_x pi[x]``."""
    pi = np.asarray(pi, dtype=np.float64)
    _check_mass(pi, "stationary distribution")
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
    norm_kind = _check_name(norm_kind, NORM_KINDS, "norm_kind")
    nu, f, s, g = _inputs(chain, f, nu, spec)
    dec = spectral_decompose(chain)
    constants = BoundConstants(
        beta1=dec.beta1,
        beta=dec.beta,
        C_density=float(np.max(np.abs(nu / chain.pi - 1.0))),
        C_pi=float(1.0 / np.min(chain.pi)),
    )
    return norm_kind, s, f, g, dec, constants


def _report(norm_kind, leading, correction, s, constants) -> BoundReport:
    """The report of terms computed on ``f / s``, each multiplied by ``s * s``."""
    leading, correction = leading * s * s, correction * s * s
    return BoundReport(norm_kind, leading, correction, leading + correction, constants)


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

    where ``g`` is the gate's centred f.  (The sup-norm route uses
    ``||g||_inf * ||g||_2`` rather than ``||g||_inf^2`` — valid since
    ``||g^2||_2 <= ||g||_inf ||g||_2`` — which keeps it below the closed-form
    variant's constant.)
    """
    norm_kind, s, f, g, dec, constants = _bound_inputs(chain, nu, f, spec, norm_kind)
    n, n0 = spec.n, spec.n0

    leading = stationary_error(chain, f, n)
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

    # A start at pi or a zero norm carries no penalty, even where the other factor is inf.
    correction = (
        aggregate * penalty * factor * norms / (float(n) * float(n)) if factor and norms else 0.0
    )
    return _report(norm_kind, leading, correction, s, constants)


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
    norm_kind, s, f, _, dec, constants = _bound_inputs(chain, nu, f, spec, norm_kind)
    n, n0 = spec.n, spec.n0

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
        norm_sq = weighted_norm(f, chain.pi, np.inf) ** 2
        corr_const = 4.0 * root_c / (1.0 - beta) ** 2

    leading = 2.0 * norm_sq / (n_f * (1.0 - beta1))
    correction = corr_const * penalty * norm_sq / (n_f * n_f) if root_c and norm_sq else 0.0
    return _report(norm_kind, leading, correction, s, constants)
