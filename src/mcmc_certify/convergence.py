"""Distances from stationarity and the deviation functionals they control.

For a start distribution ``nu`` evolved ``k`` steps, the central object is the
deviation density

    d_k = (nu P^k) / pi - 1,

a mean-zero function whose weighted norms measure how far the chain still is
from stationarity:  ``||d_k||_2^2`` is the chi-square contrast of ``nu P^k``
against ``pi``, and ``||d_k||_1`` is twice the total-variation distance.  The
linear functionals ``L_k(h) = <d_k, h>_pi`` are exactly the terms that the
burn-in correction of the exact error formula is built from, and they decay
geometrically at rate ``beta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    ReversibleChain,
    apply_to_distribution,
    as_distribution,
    weighted_norm,
)
from .errors import ZeroMass

__all__ = [
    "chi2_contrast",
    "density_ratio_bound",
    "mass_floor_bound",
    "DeviationFunction",
    "deviation_function",
]

# Reference measures with mass this small make density ratios meaningless.
_MASS_FLOOR = 1e-300


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


@dataclass(frozen=True, eq=False)
class DeviationFunction:
    """The deviation density ``d_k = (nu P^k)/pi - 1`` with its norms.

    ``norm_l2**2`` equals ``chi2_contrast(nu P^k, pi)`` and ``norm_l1`` equals
    twice the total-variation distance — both identities are enforced by the
    test suite rather than recomputed here.
    """

    k: int
    values: np.ndarray
    norm_l1: float
    norm_l2: float
    norm_linf: float


def deviation_function(chain: ReversibleChain, nu, k: int) -> DeviationFunction:
    """Compute ``d_k`` for the given start ``nu`` and step count ``k >= 0``."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"step count k must be a nonnegative integer, got {k!r}")
    _ratio_safe(chain.pi, "stationary distribution")
    marginal = apply_to_distribution(chain, nu, k)
    values = marginal / chain.pi - 1.0
    values.setflags(write=False)
    return DeviationFunction(
        k=int(k),
        values=values,
        norm_l1=weighted_norm(values, chain.pi, 1),
        norm_l2=weighted_norm(values, chain.pi, 2),
        norm_linf=weighted_norm(values, chain.pi, np.inf),
    )
