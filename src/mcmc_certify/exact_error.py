"""Exact mean-square error of time averages, decomposed and cross-checkable.

For the estimator that averages ``f`` over ``n`` states after discarding a
burn-in of ``n0`` transitions,

    S = (1/n) * sum_{j=1..n} f(X_{n0+j}),    X_1 ~ nu,

the squared error against the stationary mean splits into a part that only
depends on the chain's spectrum (what the error would be had we started at
``pi``) plus a start-dependent correction built from the deviation
functionals ``L_m``:

    mse  =  stationary_mse(n)
          + (1/n^2) * sum_{j=1..n}   L_{n0+j-1}(g^2)
          + (2/n^2) * sum_{j<k<=n}   L_{n0+j-1}(g * P^{k-j} g),

with ``g = f - <f,1>_pi`` the centered function.  Note the functional index:
the j-th averaged state X_{n0+j} sits ``n0+j-1`` transitions after X_1, so
the correction for j = 1, n0 = 0 uses L_0 (the raw start deviation), not L_1.

The main entry point evaluates this in O((n+n0) d^2) time by iterating the
start distribution forward once and accumulating prefix sums of P^m g.  A
deliberately naive O(n^2 d^2) evaluation and a brute-force path enumeration
oracle are kept alongside it so every optimized number can be cross-checked
by two independent routes.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._geometric import window_weight
from .chain import (
    ReversibleChain,
    as_distribution,
    as_state_function,
    mean_value,
    spectral_coefficients,
    spectral_decompose,
    weighted_inner,
)
from .convergence import deviation_function
from .errors import BudgetOverflow, TooLarge

__all__ = [
    "WORK_CAP_ENV",
    "DEFAULT_WORK_CAP",
    "EstimatorSpec",
    "ExactErrorReport",
    "w_factor",
    "worst_case_mse",
    "stationary_error",
    "worst_case_stationary",
    "asymptotic_constant",
    "exact_error",
    "exact_error_naive",
    "path_enumeration_oracle",
]

WORK_CAP_ENV = "MCMC_CERTIFY_WORK_CAP"
DEFAULT_WORK_CAP = 1e9

# Hard cap on path enumeration: d ** (n + n0) many paths.
_ENUMERATION_CAP = 10**7
# Memory guard for the prefix-sum table of exact_error (elements, ~1 GiB).
_PREFIX_ELEMS_CAP = 1 << 27


def _work_cap() -> float:
    raw = os.environ.get(WORK_CAP_ENV)
    if raw is None:
        return DEFAULT_WORK_CAP
    try:
        cap = float(raw)
    except ValueError:
        raise ValueError(f"{WORK_CAP_ENV} must be numeric, got {raw!r}") from None
    if not cap > 0:
        raise ValueError(f"{WORK_CAP_ENV} must be positive, got {raw!r}")
    return cap


@dataclass(frozen=True)
class EstimatorSpec:
    """Averaging window: ``n`` averaged states after ``n0`` burn-in steps."""

    n: int
    n0: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"window length n must be a positive integer, got {self.n!r}")
        if not isinstance(self.n0, (int, np.integer)) or self.n0 < 0:
            raise ValueError(f"burn-in n0 must be a nonnegative integer, got {self.n0!r}")

    @property
    def total(self) -> int:
        """Total trajectory length ``n + n0`` consumed by the estimator."""
        return int(self.n) + int(self.n0)


@dataclass(frozen=True, eq=False)
class ExactErrorReport:
    """Exact MSE with its additive decomposition.

    ``mse == stationary_mse + correction`` holds to floating-point accuracy,
    and ``correction == correction_diagonal + correction_cross``.  The
    asymptotic constant is ``lim n * mse`` as the window grows (burn-in
    effects wash out at rate 1/n^2, so it is start-independent).
    """

    mse: float
    stationary_mse: float
    correction: float
    correction_diagonal: float
    correction_cross: float
    asymptotic_constant: float


def w_factor(n: int, b: float) -> float:
    """Spectral window weight ``W(n, b) = n + 2 * sum_{k<n} (n-k) b^k``.

    This is the exact factor multiplying a squared spectral coefficient in
    the stationary MSE, for an eigenvalue ``b``.  Its closed form
    ``(n (1 - b^2) - 2 b (1 - b^n)) / (1 - b)^2`` cancels catastrophically as
    ``b -> 1``; it is evaluated in O(1), to a few ulp for every n, by the
    float64 kernel of :mod:`mcmc_certify._geometric`.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (-1.0 <= b < 1.0):
        raise ValueError(f"b must lie in [-1, 1), got {b!r}")
    if n == 1:
        return 1.0  # the empty sum, exactly
    return float(window_weight(int(n), b))


def worst_case_mse(n: int, beta1: float) -> float:
    """Stationary MSE of the worst unit function: ``W(n, beta1) / n^2``.

    Over all f with ``||f - mean||_2 = 1``, the stationary error is maximized
    by the second eigenfunction, giving exactly this value.
    """
    return w_factor(n, beta1) / (float(n) * float(n))


def stationary_error(chain: ReversibleChain, f, n: int) -> float:
    """Exact stationary-start MSE ``(1/n^2) sum_{k>=1} a_k^2 W(n, lam_k)``."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"window length n must be a positive integer, got {n!r}")
    f = np.asarray(as_state_function(f))
    if f.shape[0] != chain.size:
        raise ValueError(f"function has length {f.shape[0]}, chain has {chain.size} states")
    dec = spectral_decompose(chain)
    a = spectral_coefficients(dec, f, chain.pi)[1:]
    weights = window_weight(int(n), np.maximum(dec.eigenvalues[1:], -1.0))
    return float(np.dot(a * a, weights)) / (float(n) * float(n))


def worst_case_stationary(chain: ReversibleChain, n: int) -> float:
    """Worst stationary MSE over unit-norm functions; see :func:`worst_case_mse`."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"window length n must be a positive integer, got {n!r}")
    if chain.size == 1:
        return 0.0
    dec = spectral_decompose(chain)
    return worst_case_mse(int(n), dec.beta1)


def asymptotic_constant(chain: ReversibleChain, f) -> float:
    """Limit of ``n * mse``: ``sum_{k>=1} a_k^2 (1 + lam_k) / (1 - lam_k)``.

    Returns ``inf`` if the spectral gap is below 1e-12 (no finite constant
    can be certified at that resolution).
    """
    f = np.asarray(as_state_function(f))
    if f.shape[0] != chain.size:
        raise ValueError(f"function has length {f.shape[0]}, chain has {chain.size} states")
    dec = spectral_decompose(chain)
    if chain.size > 1 and 1.0 - dec.beta1 < 1e-12:
        return math.inf
    coeffs = spectral_coefficients(dec, f, chain.pi)
    total = 0.0
    for k in range(1, chain.size):
        a = coeffs[k]
        lam = float(dec.eigenvalues[k])
        total += a * a * (1.0 + lam) / (1.0 - lam)
    return total


def _validate_triplet(chain: ReversibleChain, nu, f):
    nu = np.asarray(as_distribution(nu))
    f = np.asarray(as_state_function(f))
    if nu.shape[0] != chain.size:
        raise ValueError(f"start distribution has length {nu.shape[0]}, chain has {chain.size} states")
    if f.shape[0] != chain.size:
        raise ValueError(f"function has length {f.shape[0]}, chain has {chain.size} states")
    return nu, f


def exact_error(chain: ReversibleChain, nu, f, spec: EstimatorSpec) -> ExactErrorReport:
    """Exact MSE of the burn-in estimator, with its decomposition.

    Runs in O((n + n0) d^2) time: one forward pass of ``nu`` through the
    chain interleaved with prefix sums of the iterates ``P^m g``.  The work
    estimate ``(n + n0) * d^2`` is checked against the cap from the
    ``MCMC_CERTIFY_WORK_CAP`` environment variable (default 1e9), and the
    (n-1) x d prefix table is capped at ~1 GiB; either limit raises
    :class:`BudgetOverflow`.
    """
    nu, f = _validate_triplet(chain, nu, f)
    n, n0 = int(spec.n), int(spec.n0)
    d = chain.size

    work = float(spec.total) * d * d
    cap = _work_cap()
    if work > cap:
        raise BudgetOverflow(
            f"exact error needs ~{work:.3e} scalar ops, cap is {cap:.3e} "
            f"(set {WORK_CAP_ENV} to raise it)"
        )
    if n * d > _PREFIX_ELEMS_CAP:
        raise BudgetOverflow(
            f"prefix table would hold {n * d} floats, cap is {_PREFIX_ELEMS_CAP}"
        )

    mean = mean_value(f, chain.pi)
    g = f - mean
    stationary = stationary_error(chain, f, n)

    # Prefix sums: prefix[i] = sum_{m=1..i+1} P^m g, needed for the cross term.
    if n > 1:
        prefix = np.empty((n - 1, d))
        v = g
        for m in range(n - 1):
            v = chain.P @ v
            prefix[m] = v
        np.cumsum(prefix, axis=0, out=prefix)

    pi = chain.pi
    pi_g = pi * g
    pi_g2 = pi_g * g

    q = nu.copy()
    for _ in range(n0):
        q = q @ chain.P

    diagonal = 0.0
    cross = 0.0
    for j in range(1, n + 1):
        dev = q / pi - 1.0
        diagonal += float(np.dot(dev, pi_g2))
        if j <= n - 1:
            cross += float(np.dot(dev * pi_g, prefix[n - j - 1]))
        if j < n:
            q = q @ chain.P

    n2 = float(n) * float(n)
    corr_diag = diagonal / n2
    corr_cross = 2.0 * cross / n2
    correction = corr_diag + corr_cross
    return ExactErrorReport(
        mse=stationary + correction,
        stationary_mse=stationary,
        correction=correction,
        correction_diagonal=corr_diag,
        correction_cross=corr_cross,
        asymptotic_constant=asymptotic_constant(chain, f),
    )


def exact_error_naive(chain: ReversibleChain, nu, f, spec: EstimatorSpec) -> float:
    """Slow spectral-free evaluation of the same MSE, for cross-checking.

    The stationary part is summed from covariances ``<g, P^m g>_pi`` and the
    correction terms recompute every deviation function from scratch, so the
    route shares no intermediate results with :func:`exact_error`.  Costs
    O(n (n + n0) d^2); restricted to n <= 50.
    """
    nu, f = _validate_triplet(chain, nu, f)
    n, n0 = int(spec.n), int(spec.n0)
    if n > 50:
        raise ValueError("naive cross-check is restricted to n <= 50")

    g = f - mean_value(f, chain.pi)
    g2 = g * g

    stationary = n * weighted_inner(g, g, chain.pi)
    v = g.copy()
    for m in range(1, n):
        v = chain.P @ v
        stationary += 2.0 * (n - m) * weighted_inner(g, v, chain.pi)

    diagonal = 0.0
    cross = 0.0
    for j in range(1, n + 1):
        dev = deviation_function(chain, nu, n0 + j - 1).values
        diagonal += weighted_inner(dev, g2, chain.pi)
        w = g.copy()
        for _ in range(j + 1, n + 1):
            w = chain.P @ w
            cross += weighted_inner(dev, g * w, chain.pi)

    n2 = float(n) * float(n)
    return (stationary + diagonal + 2.0 * cross) / n2


def _index_chunks(d: int, length: int, size: int):
    it = itertools.product(range(d), repeat=length)
    while True:
        block = list(itertools.islice(it, size))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


def path_enumeration_oracle(chain: ReversibleChain, nu, f, spec: EstimatorSpec) -> float:
    """Brute-force MSE: enumerate all ``d ** (n + n0)`` trajectories.

    Sums ``P(path) * (average - stationary mean)^2`` literally, in chunks.
    Only the definition of the estimator enters, so this is the ground truth
    the analytic routes are tested against.  Raises :class:`TooLarge` beyond
    10^7 paths.
    """
    nu, f = _validate_triplet(chain, nu, f)
    n, n0 = int(spec.n), int(spec.n0)
    d = chain.size
    length = n + n0

    n_paths = d**length
    if n_paths > _ENUMERATION_CAP:
        raise TooLarge(
            f"enumeration needs {n_paths} paths, cap is {_ENUMERATION_CAP}"
        )

    mean = mean_value(f, chain.pi)
    P = chain.P
    partial_sums = []
    for idx in _index_chunks(d, length, 200_000):
        weights = nu[idx[:, 0]].copy()
        for t in range(1, length):
            weights *= P[idx[:, t - 1], idx[:, t]]
        averages = f[idx[:, n0:]].mean(axis=1)
        deviations = averages - mean
        partial_sums.append(float(np.dot(weights, deviations * deviations)))
    return math.fsum(partial_sums)
