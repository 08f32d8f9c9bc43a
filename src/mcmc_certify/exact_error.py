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

Reversibility expands the start deviation in the eigenbasis,
``nu P^m / pi - 1 = sum_{k>=1} c_k lam_k^m u_k`` with ``c_k = (nu - pi) . u_k``,
so both correction sums collapse to sums over eigenpairs of one- and two-rate
geometric sums.  The main entry point evaluates them in O(d^3 + d^2 log n)
time, independent of the window.  A deliberately naive O((n0 + n^2) d^2)
evaluation that shares no intermediate result with it is kept alongside, so
every optimized number can be cross-checked by an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._geometric import pair_sums, window_weight
from .chain import (
    ReversibleChain,
    _centred,
    _check_length,
    _scaled,
    _with_balanced_pi,
    as_distribution,
    spectral_coefficients,
    spectral_decompose,
)
from .errors import _BELOW_ONE, BudgetOverflow, _check_count, _check_int, _check_real

__all__ = [
    "EstimatorSpec",
    "ExactErrorReport",
    "w_factor",
    "worst_case_mse",
    "stationary_error",
    "asymptotic_constant",
    "exact_error",
    "exact_error_naive",
]

# Eigenvalue rows per block of the start correction: O(_ROWS d) temporaries.
_ROWS = 256
# Eigenvectors are accurate to about eps in absolute terms, and q . u_k weighs
# them with q_x / sqrt(pi_x).  A start whose sum_x q_x / sqrt(pi_x) exceeds
# _SPREAD times that of pi first takes exact steps q -> q P, at most _STEPS;
# one still above _TRAPPED times it raises BudgetOverflow.
_SPREAD, _TRAPPED, _STEPS = 100.0, 1e5, 4096
# Longest walk of single steps q -> q P, or of a simulated replication: a loop
# that would otherwise never end for a valid but huge window.
_WALK_CAP = 1 << 27


@dataclass(frozen=True)
class EstimatorSpec:
    """Averaging window: ``n`` averaged states after ``n0`` burn-in steps."""

    n: int
    n0: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_count(self.n, 1, "window length n"))
        object.__setattr__(self, "n0", _check_count(self.n0, 0, "burn-in n0"))

    @property
    def total(self) -> int:
        """Total trajectory length ``n + n0`` consumed by the estimator."""
        return self.n + self.n0


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
    n = _check_count(n, 1, "n")
    b = _check_real(b, -1.0, _BELOW_ONE, "b must lie in [-1, 1)")
    if n == 1:
        return 1.0  # the empty sum, exactly
    return float(window_weight(n, b))


def worst_case_mse(n: int, beta1: float) -> float:
    """Stationary MSE of the worst unit function: ``W(n, beta1) / n^2``.

    Over all f with ``||f - mean||_2 = 1``, the stationary error is maximized
    by the second eigenfunction, giving exactly this value.
    """
    return w_factor(n, beta1) / (float(n) * float(n))


def _inputs(chain: ReversibleChain, f, *start):
    """``(nu, f / s, s, g)``, g the ``_centred`` ``_scaled`` f: the input rule of every route.
    ``start`` is ``(nu, spec)`` or empty (nu None); a wrong spec type or length is a ValueError."""
    nu = None
    if start:
        nu, spec = start
        if not isinstance(spec, EstimatorSpec):
            raise ValueError("spec must be an EstimatorSpec")
        nu = _check_length(chain.size, nu, "start distribution", as_distribution)
    f, s = _scaled(_check_length(chain.size, f, "function"))
    return nu, f, s, _centred(f, chain.pi)


def _expansion(chain: ReversibleChain, f):
    """``(a, lam, s)`` of the :func:`_inputs` g and s, ``a_k = <g, u_k>_pi``, k >= 1.
    The coefficients of f itself would lean on ``<u_k, 1>_pi = 0``, true only to rounding."""
    _, _, s, g = _inputs(chain, f)
    dec = spectral_decompose(chain)
    return spectral_coefficients(dec, g, chain.pi)[1:], dec.eigenvalues[1:], s


def stationary_error(chain: ReversibleChain, f, n: int) -> float:
    """Exact stationary-start MSE ``(1/n^2) sum_{k>=1} <g, u_k>_pi^2 W(n, lam_k)``."""
    n = _check_count(n, 1, "window length n")
    a, lam, s = _expansion(chain, f)
    return float(np.dot(a * a, window_weight(n, lam))) / (float(n) * float(n)) * s * s


def asymptotic_constant(chain: ReversibleChain, f) -> float:
    """Limit of ``n * mse``: ``sum_{k>=1} <g, u_k>_pi^2 (1+lam_k)/(1-lam_k)``, inf past float64."""
    a, lam, s = _expansion(chain, f)
    return float(np.dot(a * a, (1.0 + lam) / (1.0 - lam))) * s * s


def exact_error(chain: ReversibleChain, nu, f, spec: EstimatorSpec) -> ExactErrorReport:
    """Exact MSE of the burn-in estimator, with its decomposition.

    With ``g = f - <f, 1>_pi``, ``w_k = ((nu - pi) . u_k) lam_k^n0``,
    ``a_l = <g, u_l>_pi``, ``B_k = <u_k, g^2>_pi`` and ``T = U^T diag(pi g) U``
    over ``k, l >= 1``:

        correction_diagonal = (1/n^2) sum_k w_k B_k G_n(lam_k),
        correction_cross    = (2/n^2) sum_{k,l} w_k T_kl a_l D_n(lam_k, lam_l),

    where ``G_n(x) = E_n(x, 1)`` and ``D_n`` are the geometric sums of
    :func:`~mcmc_certify._geometric.pair_sums`.  Costs O(d^3 + d^2 log n).

    f enters only as g and the start only as ``nu - pi``, and a start is used as
    given once it sums to 1 within ``ROW_TOL``, so ``nu = chain.pi`` carries a
    correction of exactly 0.  The one exception: ``nu . u_k`` loses
    ``eps / sqrt(pi_x)`` on the start's states, so every term uses pi re-derived
    from P by detailed balance, and where that pi is more than 1e-12 off the
    shape of ``chain.pi`` (as a least-squares pi can be), ``nu = chain.pi``
    carries the difference of the two.  A start on states of small pi first
    takes s <= 4096 exact steps ``q -> q P``
    (O(s d^2)) until it has spread; the window states passed on the way are
    summed directly, and the measures ``(q - pi) g`` they leave are carried on.

    nu and f are checked once, by :func:`_inputs` on the chain whose decomposition every
    term uses.  Raises ``ValueError`` from there, and :class:`BudgetOverflow` if the start
    is still on states of small pi after 4096 steps and the window goes on beyond them,
    or if the MSE itself exceeds float64.
    """
    chain = _with_balanced_pi(chain)
    nu, f, s, g = _inputs(chain, f, nu, spec)
    n, n0 = spec.n, spec.n0
    stationary = stationary_error(chain, f, n)  # f is already f / s: its s is 1
    dec, pi = spectral_decompose(chain), chain.pi
    a, lam, pi_g = spectral_coefficients(dec, g, pi)[1:], dec.eigenvalues[1:], pi * g

    q, carried, t = nu, np.zeros_like(pi), 0
    diagonal = cross = 0.0
    spread = 1.0 / np.sqrt(pi)
    base = np.dot(pi, spread)
    while t < min(n0 + n, _STEPS) and np.dot(q, spread) > _SPREAD * base:
        if t >= n0:
            cross += float(np.dot(carried, g))
            diagonal += float(np.dot(q - pi, g * g))
            carried = carried + (q - pi) * g
        q, carried = np.stack((q, carried)) @ chain.P
        t += 1
    rest = n0 + n - max(n0, t)  # window states left to the eigenpair sums
    if rest > 0 and np.dot(q, spread) > _TRAPPED * base:
        raise BudgetOverflow(
            f"after {t} exact steps the start is still on states of small pi "
            f"(sum q/sqrt(pi) is {np.dot(q, spread) / base:.3e} times that of pi)"
        )

    U = dec.eigenfunctions[:, 1:]
    w = ((q - pi) @ U) * np.power(lam, float(max(n0 - t, 0)))
    B = (pi_g * g) @ U
    rates = np.append(lam, 1.0)[None, :]
    geometric = np.empty_like(lam)
    for k in range(0, lam.size, _ROWS):
        rows = slice(k, k + _ROWS)
        e, double = pair_sums(rest, lam[rows, None], rates)
        T = (U[:, rows].T * pi_g) @ U
        geometric[rows] = e[:, -1]
        cross += float(w[rows] @ (T * double[:, :-1]) @ a)
    diagonal += float(np.dot(w * B, geometric))
    cross += float(np.dot((carried @ U) * a, geometric))

    n2 = float(n) * float(n)
    corr_diag = diagonal / n2
    corr_cross = 2.0 * cross / n2
    correction = corr_diag + corr_cross
    mse = (stationary + correction) * s * s
    if not np.isfinite(mse):
        raise BudgetOverflow(f"the exact MSE overflows float64 (it comes out {mse!r})")
    return ExactErrorReport(
        mse=mse,
        stationary_mse=stationary * s * s,
        correction=correction * s * s,
        correction_diagonal=corr_diag * s * s,
        correction_cross=corr_cross * s * s,
        asymptotic_constant=float(np.dot(a * a, (1.0 + lam) / (1.0 - lam))) * s * s,
    )


def exact_error_naive(chain: ReversibleChain, nu, f, spec: EstimatorSpec) -> float:
    """Slow spectral-free evaluation of the same MSE, for cross-checking.

    The stationary part is summed from covariances ``<g, P^m g>_pi`` and the
    correction terms take every deviation ``nu P^m / pi - 1`` from one walk
    ``q -> q P`` of the start.  With :func:`exact_error` it shares only the input
    gate :func:`_inputs` (and ``s * s``), no intermediate result.  Costs
    O((n0 + n^2) d^2); restricted to n <= 50, and raises :class:`BudgetOverflow`
    before its first step if the walk takes over 2**27.
    """
    nu, _, s, g = _inputs(chain, f, nu, spec)
    n, n0 = _check_int(spec.n, 1, "naive cross-check is restricted to n <= 50", 50), spec.n0
    if n0 + n - 1 > _WALK_CAP:
        raise BudgetOverflow(f"the walk takes {n0 + n - 1} steps, cap is {_WALK_CAP}")

    g2 = g * g

    stationary = n * float(np.dot(chain.pi * g, g))
    v = g.copy()
    for m in range(1, n):
        v = chain.P @ v
        stationary += 2.0 * (n - m) * float(np.dot(chain.pi * g, v))

    q = nu
    for _ in range(n0):
        q = q @ chain.P
    diagonal = 0.0
    cross = 0.0
    for j in range(1, n + 1):
        if j > 1:
            q = q @ chain.P
        dev = q / q.sum() / chain.pi - 1.0
        diagonal += float(np.dot(chain.pi * dev, g2))
        w = g.copy()
        for _ in range(j + 1, n + 1):
            w = chain.P @ w
            cross += float(np.dot(chain.pi * dev, g * w))

    n2 = float(n) * float(n)
    return (stationary + diagonal + 2.0 * cross) / n2 * s * s
