"""Validated reversible chains on finite state spaces, and their spectra.

A chain lives on states ``{0, ..., d-1}`` and is described by a row-stochastic
transition matrix ``P`` together with a strictly positive stationary
distribution ``pi`` satisfying detailed balance::

    pi[x] * P[x, y] == pi[y] * P[y, x]   for all x, y.

Reversibility makes ``P`` self-adjoint on the weighted space l2(pi), so the
similarity transform ``A = D^{1/2} P D^{-1/2}`` (``D = diag(pi)``) is a real
symmetric matrix.  Its eigendecomposition yields real eigenvalues

    1 = lam[0] > lam[1] >= ... >= lam[d-1] >= -1

and a pi-orthonormal basis of right eigenfunctions ``u_k = D^{-1/2} v_k``.
Everything downstream (exact error formulas, certified bounds, burn-in
planning) consumes the two spectral-gap summaries

* ``beta1 = lam[1]`` — the second-largest eigenvalue, and
* ``beta = max(lam[1], |lam[d-1]|)`` — the largest magnitude away from 1.

Construction is strict: row sums, reversibility, ergodicity and positivity of
``pi`` are each checked against fixed tolerances, and violations raise typed
errors rather than warnings.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotErgodic,
    NotReversible,
    NotStochastic,
    SpectralFailure,
    ZeroMass,
)

__all__ = [
    "ROW_TOL",
    "REV_TOL",
    "STAT_TOL",
    "SPEC_TOL",
    "ReversibleChain",
    "SpectralDecomposition",
    "as_transition_matrix",
    "as_distribution",
    "as_state_function",
    "build_chain",
    "spectral_decompose",
    "apply_to_function",
    "apply_to_distribution",
    "weighted_norm",
    "weighted_inner",
    "mean_value",
    "spectral_coefficients",
    "operator_norm_on_mean_zero",
]

# Row sums of P may deviate from 1 by at most this much.
ROW_TOL = 1e-12
# Detailed-balance residual max |pi_x P_xy - pi_y P_yx| allowed.
REV_TOL = 1e-10
# Residual allowed when solving for (or checking) the stationary vector.
STAT_TOL = 1e-10
# Spectral sanity: |lam[0] - 1| must stay below this, and beta must stay
# below 1 - SPEC_TOL for the chain to count as ergodic.
SPEC_TOL = 1e-8

_VALID_P = {1, 2, 4, np.inf}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_state_function(values) -> np.ndarray:
    """Coerce *values* to a finite 1-D float64 vector (a copy, read-only)."""
    f = np.array(values, dtype=np.float64, copy=True)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("state function must be a non-empty 1-D vector")
    if not np.all(np.isfinite(f)):
        raise ValueError("state function has non-finite entries")
    return _readonly(f)


def as_distribution(weights) -> np.ndarray:
    """Coerce *weights* to a probability vector.

    Entries must be finite and nonnegative and sum to 1 within ``ROW_TOL``;
    the result is renormalized exactly and returned read-only.
    """
    nu = np.array(weights, dtype=np.float64, copy=True)
    if nu.ndim != 1 or nu.size == 0:
        raise ValueError("distribution must be a non-empty 1-D vector")
    if not np.all(np.isfinite(nu)):
        raise ValueError("distribution has non-finite entries")
    if np.any(nu < 0):
        i = int(np.argmin(nu))
        raise ValueError(f"distribution entry {i} is negative ({float(nu[i])!r})")
    s = float(nu.sum())
    if abs(s - 1.0) > ROW_TOL:
        raise ValueError(f"distribution sums to {s!r}, not 1")
    return _readonly(nu / s)


def as_transition_matrix(entries) -> np.ndarray:
    """Coerce *entries* to a validated row-stochastic float64 matrix.

    Raises
    ------
    NotStochastic
        If the array is not square, has negative or non-finite entries, or a
        row sum deviates from 1 by more than ``ROW_TOL``.
    """
    P = np.array(entries, dtype=np.float64, copy=True)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
        raise NotStochastic(f"transition matrix must be square, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise NotStochastic("transition matrix has non-finite entries")
    if np.any(P < 0):
        x, y = np.unravel_index(int(np.argmin(P)), P.shape)
        raise NotStochastic(f"negative entry P[{x},{y}] = {float(P[x, y])!r}")
    rows = P.sum(axis=1)
    bad = np.abs(rows - 1.0) > ROW_TOL
    if np.any(bad):
        i = int(np.argmax(np.abs(rows - 1.0)))
        raise NotStochastic(f"row {i} sums to {float(rows[i])!r}, not 1 (tol {ROW_TOL})")
    return _readonly(P)


@dataclass(frozen=True, eq=False)
class ReversibleChain:
    """A validated reversible, ergodic chain.

    Attributes
    ----------
    P : np.ndarray
        Row-stochastic transition matrix, read-only.
    pi : np.ndarray
        Strictly positive stationary distribution, read-only.
    reversibility_residual : float
        ``max_{x,y} |pi[x] P[x,y] - pi[y] P[y,x]|`` actually observed.
    """

    P: np.ndarray
    pi: np.ndarray
    reversibility_residual: float

    @property
    def size(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a reversible chain in the pi-weighted geometry.

    Attributes
    ----------
    eigenvalues : np.ndarray
        Sorted in descending order; ``eigenvalues[0] == 1`` up to ``SPEC_TOL``.
    eigenfunctions : np.ndarray
        Column ``k`` is the right eigenfunction ``u_k``, pi-orthonormal;
        column 0 is exactly the constant-one function, and the others are
        projected onto ``<u, 1>_pi = 0``.
    beta1 : float
        Second-largest eigenvalue (may be negative).
    beta : float
        ``max(beta1, |eigenvalues[-1]|)`` — the overall spectral radius on
        the mean-zero subspace.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    beta1: float
    beta: float


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    """Least-squares solve of nu P = nu, sum(nu) = 1."""
    d = P.shape[0]
    A = np.vstack([P.T - np.eye(d), np.ones((1, d))])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    nu, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.max(np.abs(A @ nu - b)))
    if residual > STAT_TOL:
        raise NotErgodic(
            f"could not solve for a stationary distribution (residual {residual:.3e})"
        )
    return nu


def _search_tree(weights: np.ndarray) -> np.ndarray:
    """Breadth-first tree from state 0 along ``weights[x, y] > 0`` (x -> y).

    A state's parent is its heaviest edge from the level before; state 0 is
    its own parent and unreached states get -1.
    """
    parent = np.full(weights.shape[0], -1)
    parent[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        edges = weights[frontier]
        new = np.flatnonzero((edges.max(axis=0) > 0) & (parent < 0))
        parent[new] = frontier[edges[:, new].argmax(axis=0)]
        frontier = new
    return parent


def _with_balanced_pi(chain: ReversibleChain) -> ReversibleChain:
    """``chain`` with pi re-derived by detailed balance along a search tree.

    Each state takes ``pi_y = pi_x P_xy / P_yx`` from its parent on the
    two-way edges, so every entry is accurate to about depth-many ulp of its
    own size; a least-squares solve is accurate to eps absolute.  The chain
    comes back as it is, cached decomposition included, if its pi is already
    within 1e-12 relative or the two-way edges do not connect all states.
    """
    P = chain.P
    parent = _search_tree(np.minimum(P, P.T))
    if np.any(parent < 0):
        return chain
    child = np.arange(1, chain.size)
    ratio = np.concatenate([[1.0], P[parent[child], child] / P[child, parent[child]]])
    up = parent  # pointer jumping: ratio[y] = pi_y / pi_up[y] until up[y] = 0
    while np.any(up):
        ratio, up = ratio * ratio[up], up[up]
    pi = ratio / ratio.max()
    pi /= pi.sum()
    if np.max(np.abs(pi / chain.pi - 1.0)) <= 1e-12:
        return chain
    flux = pi[:, None] * P
    return ReversibleChain(P, _readonly(pi), float(np.abs(flux - flux.T).max()))


def build_chain(P, pi=None) -> ReversibleChain:
    """Validate ``P`` (and optionally ``pi``) into a :class:`ReversibleChain`.

    Parameters
    ----------
    P : array-like
        Square row-stochastic matrix.
    pi : array-like, optional
        Stationary distribution.  When omitted it is recovered by a
        least-squares solve of ``pi P = pi, sum(pi) = 1``.

    Raises
    ------
    NotStochastic
        Bad rows or negative entries.
    NotErgodic
        The directed support graph is not strongly connected, or no
        stationary vector can be recovered, or a supplied ``pi`` is not
        invariant under ``P``.
    ZeroMass
        The stationary distribution has a zero (or denormal) entry.
    NotReversible
        Detailed balance fails; the message reports the worst pair.
    """
    P = as_transition_matrix(P)

    # The support graph is strongly connected iff every state is reachable
    # from state 0 and state 0 is reachable from every state.
    support = P > 0
    forward, backward = _search_tree(support) >= 0, _search_tree(support.T) >= 0
    if not forward.all():
        x = int(np.argmin(forward))
        raise NotErgodic(f"state {x} cannot be reached from state 0")
    if not backward.all():
        x = int(np.argmin(backward))
        raise NotErgodic(f"state 0 cannot be reached from state {x}")

    if pi is None:
        stationary = _solve_stationary(P)
    else:
        stationary = np.asarray(as_distribution(pi))

    if np.any(stationary < 1e-300):
        i = int(np.argmin(stationary))
        raise ZeroMass(f"stationary mass at state {i} is {float(stationary[i])!r}")

    flux = stationary[:, None] * P
    imbalance = np.abs(flux - flux.T)
    residual = float(imbalance.max())
    if residual > REV_TOL:
        x, y = np.unravel_index(int(np.argmax(imbalance)), imbalance.shape)
        raise NotReversible(
            f"detailed balance fails worst at pair ({x},{y}): "
            f"pi[{x}]*P[{x},{y}] = {float(flux[x, y])!r} vs "
            f"pi[{y}]*P[{y},{x}] = {float(flux[y, x])!r} (residual {residual:.3e})"
        )

    # Reversibility w.r.t. pi implies invariance; this only trips when a
    # user-supplied pi sneaks past the balance check on accumulated error.
    stat_residual = float(np.max(np.abs(stationary @ P - stationary)))
    if stat_residual > STAT_TOL:
        raise NotErgodic(
            f"supplied distribution is not invariant (residual {stat_residual:.3e})"
        )

    return ReversibleChain(
        P=P,
        pi=_readonly(stationary.copy()),
        reversibility_residual=residual,
    )


_spectral_cache: "weakref.WeakKeyDictionary[ReversibleChain, SpectralDecomposition]"
_spectral_cache = weakref.WeakKeyDictionary()


def spectral_decompose(chain: ReversibleChain) -> SpectralDecomposition:
    """Eigendecompose a reversible chain (cached per chain object).

    Works through the symmetrization ``A = D^{1/2} P D^{-1/2}`` so the dense
    symmetric solver applies; eigenfunctions are mapped back with
    ``u_k = D^{-1/2} v_k`` and are orthonormal in l2(pi).

    Raises
    ------
    SpectralFailure
        Solver breakdown, or the leading eigenvalue is not 1 within
        ``SPEC_TOL``.
    NotErgodic
        ``beta >= 1 - SPEC_TOL`` — the chain mixes too slowly to certify.
    """
    cached = _spectral_cache.get(chain)
    if cached is not None:
        return cached

    root = np.sqrt(chain.pi)
    A = (root[:, None] * chain.P) / root[None, :]
    A = 0.5 * (A + A.T)  # kill the residual asymmetry before eigh
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to force
        raise SpectralFailure(f"symmetric eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(lam)):
        raise SpectralFailure("eigensolver returned non-finite eigenvalues")

    order = np.argsort(lam)[::-1]
    lam = lam[order]
    U = V[:, order] / root[:, None]

    if abs(lam[0] - 1.0) > SPEC_TOL:
        raise SpectralFailure(
            f"leading eigenvalue is {float(lam[0])!r}, expected 1 within {SPEC_TOL}"
        )
    # u_0 is the constant.  eigh leaves about eps / (1 - lam_1) of it in the
    # other columns, where it would leak into the coefficients of any
    # function or start with nonzero mean.
    U[:, 0] = 1.0
    U[:, 1:] -= chain.pi @ U[:, 1:]

    d = chain.size
    beta1 = float(lam[1]) if d > 1 else 0.0
    beta = max(beta1, abs(float(lam[-1]))) if d > 1 else 0.0
    if beta >= 1.0 - SPEC_TOL:
        raise NotErgodic(
            f"spectral radius on mean-zero functions is {beta!r}; "
            "the chain is numerically non-ergodic"
        )

    dec = SpectralDecomposition(
        eigenvalues=_readonly(lam),
        eigenfunctions=_readonly(U),
        beta1=beta1,
        beta=beta,
    )
    _spectral_cache[chain] = dec
    return dec


def _check_length(chain: ReversibleChain, v: np.ndarray, what: str) -> None:
    if v.shape[0] != chain.size:
        raise ValueError(
            f"{what} has length {v.shape[0]}, chain has {chain.size} states"
        )


def apply_to_function(chain: ReversibleChain, f, k: int) -> np.ndarray:
    """Return ``P^k f`` by repeated matrix-vector products.

    ``P^k`` is never materialized, so the cost is O(k d^2) and large ``k``
    stays cheap in memory.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"power k must be a nonnegative integer, got {k!r}")
    v = np.asarray(as_state_function(f)).copy()
    _check_length(chain, v, "function")
    for _ in range(int(k)):
        v = chain.P @ v
    return v


def apply_to_distribution(chain: ReversibleChain, nu, k: int) -> np.ndarray:
    """Return ``nu P^k`` as a valid distribution (renormalized against drift)."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"power k must be a nonnegative integer, got {k!r}")
    w = np.asarray(as_distribution(nu)).copy()
    _check_length(chain, w, "distribution")
    for _ in range(int(k)):
        w = w @ chain.P
    return w / w.sum()


def weighted_norm(f, pi, p) -> float:
    """``||f||_p`` in the pi-weighted sense: ``(sum_x pi[x] |f[x]|^p)^{1/p}``.

    ``p`` may be 1, 2, 4 or ``numpy.inf``; the sup norm ignores the weights
    (it is ``max |f|`` regardless of pi).
    """
    if p not in _VALID_P:
        raise ValueError(f"p must be one of 1, 2, 4, inf; got {p!r}")
    f = np.asarray(f, dtype=np.float64)
    if p == np.inf:
        return float(np.max(np.abs(f)))
    pi = np.asarray(pi, dtype=np.float64)
    if p == 1:
        return float(np.dot(pi, np.abs(f)))
    if p == 2:
        return float(np.sqrt(np.dot(pi, f * f)))
    f2 = f * f
    return float(np.dot(pi, f2 * f2) ** 0.25)


def weighted_inner(f, g, pi) -> float:
    """Inner product ``<f, g>_pi = sum_x pi[x] f[x] g[x]``."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    return float(np.dot(pi * f, g))


def mean_value(f, pi) -> float:
    """Stationary mean ``<f, 1>_pi``."""
    return weighted_inner(f, np.ones_like(np.asarray(f, dtype=np.float64)), pi)


def spectral_coefficients(
    dec: SpectralDecomposition, f, pi
) -> np.ndarray:
    """Coefficients ``a_k = <f, u_k>_pi`` of ``f`` in the eigenbasis.

    ``a_0`` is the stationary mean; ``sum(a_k^2)`` equals ``||f||_2^2`` by
    pi-orthonormality (Parseval).
    """
    f = np.asarray(f, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    return (pi * f) @ dec.eigenfunctions


def _mean_zero_trials(chain: ReversibleChain, p) -> np.ndarray:
    """Deterministic family of candidate mean-zero functions (columns)."""
    d = chain.size
    dec = spectral_decompose(chain)
    cols = [dec.eigenfunctions[:, k] for k in range(1, d)]

    # Coordinate differences probe localized behavior the eigenbasis may
    # average out; cap the pair count on larger spaces.
    if d <= 32:
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    else:
        pairs = [(i, i + 1) for i in range(d - 1)] + [(0, j) for j in range(1, d)]
    for i, j in pairs:
        e = np.zeros(d)
        e[i], e[j] = 1.0, -1.0
        cols.append(e)

    rng = np.random.default_rng(0x5EEDED)
    cols.extend(rng.standard_normal((16, d)))

    trials = []
    for v in cols:
        v = v - mean_value(v, chain.pi)
        norm = weighted_norm(v, chain.pi, p)
        if norm > 1e-14:
            trials.append(v / norm)
    return np.stack(trials, axis=1)


def operator_norm_on_mean_zero(chain: ReversibleChain, n: int, p) -> float:
    """Empirical lower estimate of ``||P^n||`` on mean-zero functions in l_p(pi).

    Maximizes ``||P^n v||_p`` over a fixed deterministic trial set (all
    nontrivial eigenfunctions, coordinate differences, and a seeded random
    batch), each normalized to ``||v||_p = 1``.  This is a *lower* estimate:
    the true operator norm can only be larger.  For p = 2 the eigenfunction
    ``u_1`` (or the most negative one) is an exact maximizer, so the estimate
    equals ``beta^n`` there.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if p not in (2, 4):
        raise ValueError(f"p must be 2 or 4, got {p!r}")
    if chain.size == 1:
        return 0.0
    G = _mean_zero_trials(chain, p)
    for _ in range(int(n)):
        G = chain.P @ G
    if p == 2:
        norms = np.sqrt(chain.pi @ (G * G))
    else:
        G2 = G * G
        norms = (chain.pi @ (G2 * G2)) ** 0.25
    return float(np.max(norms))
