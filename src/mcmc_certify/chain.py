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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NotErgodic,
    NotReversible,
    NotStochastic,
    SpectralFailure,
    TooLarge,
    ZeroMass,
    _check_name,
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
    "weighted_norm",
    "spectral_coefficients",
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
# Most states a chain may have.  build_chain peaks 3 d**2 doubles above what it held and
# spectral_decompose 2; the CLI's `error --exact` peaked at 100 MB RSS at d = 1024 and 314 MB
# at 2048 (29 MB + 71 bytes * d**2), reached while the chain file's parsed rows are held, so
# the cap costs about 1.2 GB and minutes of O(d**3).
_MAX_STATES = 4096
# Stationary or reference mass below this makes density ratios meaningless.
_MASS_FLOOR = 1e-300

_VALID_P = (1, 2, 4, np.inf)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_vector(values, what: str) -> np.ndarray:
    """*values* as a finite, non-empty 1-D float64 copy; *what* names it in errors."""
    v = np.array(values, dtype=np.float64, copy=True)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite entries")
    return v


def as_state_function(values) -> np.ndarray:
    """Coerce *values* to a finite 1-D float64 vector (a copy, read-only)."""
    return _readonly(_as_vector(values, "state function"))


def as_distribution(weights) -> np.ndarray:
    """Coerce *weights* to a probability vector (a copy, read-only).

    Entries must be finite and nonnegative and sum to 1 within ``ROW_TOL``.
    The values come back as given, the rule P's rows follow too, so a checked
    vector passes every later check unchanged: ``nu = chain.pi`` stays pi.
    """
    nu = _as_vector(weights, "distribution")
    if np.any(nu < 0):
        i = int(np.argmin(nu))
        raise ValueError(f"distribution entry {i} is negative ({float(nu[i])!r})")
    s = float(nu.sum())
    if abs(s - 1.0) > ROW_TOL:
        raise ValueError(f"distribution sums to {s!r}, not 1")
    return _readonly(nu)


def _check_mass(mu: np.ndarray, what: str) -> None:
    """Raise :class:`ZeroMass` if an entry of *mu* is below ``_MASS_FLOOR``, zero or not."""
    if np.any(mu < _MASS_FLOOR):
        i = int(np.argmin(mu))
        raise ZeroMass(f"{what} has vanishing mass at state {i} ({float(mu[i])!r})")


def as_transition_matrix(entries) -> np.ndarray:
    """Coerce *entries* to a validated row-stochastic float64 matrix.

    Raises
    ------
    TooLarge
        If there are more than 4096 rows; checked before the copy.
    NotStochastic
        If the array is not square, has negative or non-finite entries, or a
        row sum deviates from 1 by more than ``ROW_TOL``.
    """
    # len, not np.shape: np.shape of a nested list builds the array itself.
    try:
        rows = len(entries)
    except TypeError:  # a scalar, refused as not square below
        rows = 0
    if rows > _MAX_STATES:
        raise TooLarge(f"transition matrix has {rows} rows, cap is {_MAX_STATES} states")
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

    What is derived from the chain is kept on it, made on first use: its
    :func:`spectral_decompose` result and its detailed-balance twin
    (``_with_balanced_pi``).  ``copy.copy`` carries both.
    """

    # Set by spectral_decompose.  Declared first, so a chain frees its
    # eigenvectors before P: freed after P, they left glibc's heap about
    # 2 MB (1.5-2%) larger at the peak of perfbench's large-state workload.
    _decomposition: SpectralDecomposition | None = field(
        default_factory=lambda: None, init=False, repr=False
    )
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
    comes back as it is if the two-way edges do not connect all states, or if
    its pi, scaled to the same sum, is already within 1e-12 relative: a pi
    sums to 1 only within ``ROW_TOL``, so the shape decides.  The first call
    stores the twin (None for the chain itself, so no reference cycle forms),
    and later calls return that same object, decomposition included.
    """
    if "_twin" in vars(chain):
        return vars(chain)["_twin"] or chain
    P, twin = chain.P, None
    parent = _search_tree(np.minimum(P, P.T))
    if np.all(parent >= 0):
        child = np.arange(1, chain.size)
        ratio = np.concatenate([[1.0], P[parent[child], child] / P[child, parent[child]]])
        up = parent  # pointer jumping: ratio[y] = pi_y / pi_up[y] until up[y] = 0
        while np.any(up):
            ratio, up = ratio * ratio[up], up[up]
        pi = ratio / ratio.max()
        pi /= pi.sum()
        if np.max(np.abs(pi * chain.pi.sum() / chain.pi - 1.0)) > 1e-12:
            flux = pi[:, None] * P
            twin = ReversibleChain(P, _readonly(pi), float(np.abs(flux - flux.T, out=flux).max()))
    object.__setattr__(chain, "_twin", twin)
    return twin or chain


def build_chain(P, pi=None) -> ReversibleChain:
    """Validate ``P`` (and optionally ``pi``) into a :class:`ReversibleChain`.

    Parameters
    ----------
    P : array-like
        Square row-stochastic matrix.
    pi : array-like, optional
        Stationary distribution.  When omitted it is solved by least squares,
        which loses small entries: on the birth-death chain with up 0.306 and
        down 0.3, pi_min is 1.2% off at d = 1000, 75% at d = 1200, and d = 1600
        raises ``ZeroMass`` (errors near 1e-11).  Supply ``pi`` for such chains.

    Raises
    ------
    NotStochastic
        Bad rows or negative entries.
    NotErgodic
        The directed support graph is not strongly connected, or no
        stationary vector can be recovered, or a supplied ``pi`` is not
        invariant under ``P``.
    ZeroMass
        The stationary distribution has an entry below 1e-300 (``_MASS_FLOOR``),
        zero or not.
    NotReversible
        Detailed balance fails; the message reports the worst pair.
    ValueError
        A supplied ``pi`` is not a distribution with one entry per state.
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
        stationary = _check_length(len(P), pi, "stationary distribution", as_distribution)
    _check_mass(stationary, "stationary distribution")

    flux = stationary[:, None] * P
    residual = float(np.abs(flux - flux.T, out=flux).max())
    if residual > REV_TOL:
        x, y = np.unravel_index(int(np.argmax(flux)), flux.shape)
        raise NotReversible(
            f"detailed balance fails worst at pair ({x},{y}): "
            f"pi[{x}]*P[{x},{y}] = {float(stationary[x] * P[x, y])!r} vs "
            f"pi[{y}]*P[{y},{x}] = {float(stationary[y] * P[y, x])!r} (residual {residual:.3e})"
        )

    # Reversibility w.r.t. pi implies invariance; this only trips when a
    # user-supplied pi sneaks past the balance check on accumulated error.
    stat_residual = float(np.max(np.abs(stationary @ P - stationary)))
    if stat_residual > STAT_TOL:
        raise NotErgodic(
            f"supplied distribution is not invariant (residual {stat_residual:.3e})"
        )

    return ReversibleChain(P=P, pi=_readonly(stationary), reversibility_residual=residual)


def spectral_decompose(chain: ReversibleChain) -> SpectralDecomposition:
    """Eigendecompose a reversible chain, once: the result is kept on ``chain``.

    The first call stores the decomposition on the chain object, and every
    later call on it, or on a ``copy.copy`` of it, returns that same object.
    It holds d**2 + d doubles for as long as the chain lives.

    Works through the symmetrization ``A = D^{1/2} P D^{-1/2}`` so the dense symmetric
    solver applies, and reverses its ascending order rather than sorting it again;
    eigenfunctions are mapped back with ``u_k = D^{-1/2} v_k``, orthonormal in l2(pi).

    Raises
    ------
    SpectralFailure
        Solver breakdown, or the leading eigenvalue is not 1 within
        ``SPEC_TOL``.
    NotErgodic
        ``beta >= 1 - SPEC_TOL`` — the chain mixes too slowly to certify.
    """
    if chain._decomposition is not None:
        return chain._decomposition

    root = np.sqrt(chain.pi)
    A = chain.P * root[:, None]  # in place from here: one d x d buffer, dropped after eigh
    A /= root
    A += A.T  # numpy copies the overlapping transpose before it adds
    A *= 0.5  # kill the residual asymmetry before eigh
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to force
        raise SpectralFailure(f"symmetric eigensolver failed: {exc}") from exc
    del A
    if not np.all(np.isfinite(lam)):
        raise SpectralFailure("eigensolver returned non-finite eigenvalues")

    # A contiguous lam and a Fortran U keep the rounding of every later product.
    lam = lam[::-1].copy()
    U = np.divide(V[:, ::-1], root[:, None], order="F")

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
    object.__setattr__(chain, "_decomposition", dec)
    return dec


def _check_length(d: int, values, what: str, coerce=as_state_function) -> np.ndarray:
    """``coerce(values)`` as an array, checked to hold one entry for each of ``d`` states."""
    v = np.asarray(coerce(values))
    if v.shape[0] != d:
        raise ValueError(f"{what} has length {v.shape[0]}, chain has {d} states")
    return v


def _scaled(f: np.ndarray) -> tuple[np.ndarray, float]:
    """``(f / s, s)``, s a power of two: 1 while ``max |f|`` is in [2**-64, 2**64),
    0 or not finite, else ``max |f|`` rounded down.  No square or fourth power of
    ``f / s``, centred or not, over- or underflows, and the division is exact
    (J. L. Blue, ACM TOMS 4, 1978).  A route that squares f returns ``x * s * s``:
    ``x * (s * s)`` is inf from s = 2**512 and makes a zero result nan.
    """
    e = math.frexp(float(np.max(np.abs(f), initial=0.0)))[1]
    s = 1.0 if -63 <= e <= 64 else math.ldexp(1.0, e - 1)
    return f / s, s


def _centred(f: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """``f - <f, 1>_pi`` as ``h - <h, 1>_pi``, ``h = f - f[argmax pi]`` exact where f is within
    2x of its value there, so a large mean costs the spread no digits (Chan, Golub & LeVeque, 1983).
    """
    h = f - f[np.argmax(pi)]
    return h - np.dot(pi, h)


def weighted_norm(f, pi, p) -> float:
    """``||f||_p`` in the pi-weighted sense: ``(sum_x pi[x] |f[x]|^p)^{1/p}``.

    ``p`` may be 1, 2, 4 or ``numpy.inf``; the sup norm ignores the weights
    (it is ``max |f|`` regardless of pi).  l2 and l4 work on :func:`_scaled` f.
    """
    p = _check_name(p, _VALID_P, "p")
    f = np.asarray(f, dtype=np.float64)
    if p == np.inf:
        return float(np.max(np.abs(f)))
    pi = np.asarray(pi, dtype=np.float64)
    if p == 1:
        return float(np.dot(pi, np.abs(f)))
    f, s = _scaled(f)
    if p == 2:
        return s * float(np.sqrt(np.dot(pi, f * f)))
    f2 = f * f
    return s * float(np.dot(pi, f2 * f2) ** 0.25)


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
