"""Hypothesis strategies, chain helpers and reference computations for the tests."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

import mcmc_certify as mc
from mcmc_certify.chain import _check_length, _check_mass
from mcmc_certify.errors import TooLarge

# Hard cap on path enumeration: d ** (n + n0) many paths.
_ENUMERATION_CAP = 10**7


def weighted_inner(f, g, pi) -> float:
    """Inner product ``<f, g>_pi = sum_x pi[x] f[x] g[x]``."""
    return float(np.dot(np.asarray(pi, dtype=np.float64) * np.asarray(f, dtype=np.float64), g))


def mean_value(f, pi) -> float:
    """Stationary mean ``<f, 1>_pi``."""
    return weighted_inner(f, np.ones(len(f)), pi)


def metropolis_chain(weights) -> mc.ReversibleChain:
    """Metropolis kernel targeting ``weights / sum(weights)``.

    Uses the complete uniform proposal q(i, j) = 1/d for j != i, so the
    result is reversible by construction, strongly connected, and has a
    strictly positive diagonal (hence ergodic) for any positive weights.
    """
    w = np.asarray(weights, dtype=float)
    d = len(w)
    P = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if j != i:
                P[i, j] = min(1.0, w[j] / w[i]) / d
        P[i, i] = 1.0 - P[i].sum()
    return mc.build_chain(P, pi=w / w.sum())


@st.composite
def reversible_chains(draw, max_states: int = 6):
    """Random small reversible ergodic chains (via Metropolis kernels)."""
    d = draw(st.integers(min_value=2, max_value=max_states))
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=20.0),
            min_size=d,
            max_size=d,
        )
    )
    return metropolis_chain(weights)


@st.composite
def distributions(draw, size: int):
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    v = np.asarray(raw)
    return v / v.sum()


@st.composite
def state_functions(draw, size: int):
    raw = draw(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0),
            min_size=size,
            max_size=size,
        )
    )
    return np.asarray(raw)


def standard_starts(chain) -> list[np.ndarray]:
    """Point mass, uniform, and stationary starts for a given chain."""
    d = chain.size
    return [np.eye(d)[0], np.full(d, 1.0 / d), np.array(chain.pi)]



def forward_exact_mse(chain, nu, f, n: int, n0: int, chunk: int = 2048):
    """Exact MSE by iterating the start distribution forward, one step at a time.

    An O((n + n0) d^2) oracle for the eigenpair sums of ``mc.exact_error``:
    the correction is summed term by term from the deviations
    ``nu P^m / pi - 1`` and an (n-1) x d table of prefix sums of ``P^m g``,
    ``chunk`` steps per reduction.  ``nu`` may stack several starts as rows;
    the result then holds one MSE per row.
    """
    f = np.asarray(f, dtype=np.float64)
    P, pi = chain.P, chain.pi
    g = f - mean_value(f, pi)
    pi_g = pi * g

    # prefix[i] = pi g * sum_{m=1..i+1} P^m g, for the cross term.
    prefix = np.empty((max(n - 1, 0), chain.size))
    v = g
    for m in range(n - 1):
        v = P @ v
        prefix[m] = v
    np.cumsum(prefix, axis=0, out=prefix)
    prefix *= pi_g

    q = np.array(nu, dtype=np.float64)
    for _ in range(n0):
        q = q @ P

    # Step j (0-based) of the window sits n0 + j transitions after the start.
    diagonal = cross = 0.0
    for first in range(0, n, chunk):
        block = []
        for j in range(first, min(first + chunk, n)):
            block.append(q)
            if j < n - 1:
                q = q @ P
        dev = np.stack(block) / pi - 1.0
        diagonal = diagonal + (dev @ (pi_g * g)).sum(axis=0)
        later = n - 2 - np.arange(first, min(first + chunk, n - 1))
        cross = cross + np.einsum("j...d,jd->...", dev[: later.size], prefix[later])
    return mc.stationary_error(chain, f, n) + (diagonal + 2.0 * cross) / (float(n) * float(n))


# Verification aids: reference computations that only the tests call.


def apply_to_function(chain, f, k: int) -> np.ndarray:
    """Return ``P^k f`` by repeated matrix-vector products.

    ``P^k`` is never materialized, so the cost is O(k d^2) and large ``k``
    stays cheap in memory.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"power k must be a nonnegative integer, got {k!r}")
    v = _check_length(chain.size, f, "function")
    for _ in range(int(k)):
        v = chain.P @ v
    return v


def _mean_zero_trials(chain, p) -> np.ndarray:
    """Deterministic family of candidate mean-zero functions (columns)."""
    d = chain.size
    dec = mc.spectral_decompose(chain)
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
        norm = mc.weighted_norm(v, chain.pi, p)
        if norm > 1e-14:
            trials.append(v / norm)
    return np.stack(trials, axis=1)


def operator_norm_on_mean_zero(chain, n: int, p) -> float:
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


def apply_to_distribution(chain, nu, k: int) -> np.ndarray:
    """Return ``nu P^k`` as a valid distribution (renormalized against drift)."""
    w = _check_length(chain.size, nu, "distribution", mc.as_distribution)
    for _ in range(k):
        w = w @ chain.P
    return w / w.sum()


def total_variation(nu, mu) -> float:
    """Total-variation distance ``(1/2) sum_x |nu[x] - mu[x]|`` in [0, 1]."""
    nu = np.asarray(mc.as_distribution(nu))
    mu = np.asarray(mc.as_distribution(mu))
    if nu.shape != mu.shape:
        raise ValueError("distributions must have equal length")
    return 0.5 * float(np.sum(np.abs(nu - mu)))


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


def deviation_function(chain, nu, k: int) -> DeviationFunction:
    """Compute ``d_k`` for the given start ``nu`` and step count ``k >= 0``."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"step count k must be a nonnegative integer, got {k!r}")
    _check_mass(chain.pi, "stationary distribution")
    marginal = apply_to_distribution(chain, nu, k)
    values = marginal / chain.pi - 1.0
    values.setflags(write=False)
    return DeviationFunction(
        k=int(k),
        values=values,
        norm_l1=mc.weighted_norm(values, chain.pi, 1),
        norm_l2=mc.weighted_norm(values, chain.pi, 2),
        norm_linf=mc.weighted_norm(values, chain.pi, np.inf),
    )


def l_functional(chain, nu, k: int, h) -> float:
    """Burn-in functional ``L_k(h) = <d_k, h>_pi`` for ``k >= 1``.

    Equals ``E_nu[h(X_{k+1})] - <h, 1>_pi`` when states are sampled along the
    chain, i.e. the residual bias after ``k`` transitions.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"functional index k must be >= 1, got {k!r}")
    h = _check_length(chain.size, h, "function")
    dev = deviation_function(chain, nu, k)
    return weighted_inner(dev.values, h, chain.pi)


def worst_case_stationary(chain, n: int) -> float:
    """Worst stationary MSE over unit-norm functions; see ``mc.worst_case_mse``."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"window length n must be a positive integer, got {n!r}")
    if chain.size == 1:
        return 0.0
    return mc.worst_case_mse(int(n), mc.spectral_decompose(chain).beta1)


def _index_chunks(d: int, length: int, size: int):
    it = itertools.product(range(d), repeat=length)
    while True:
        block = list(itertools.islice(it, size))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


def path_enumeration_oracle(chain, nu, f, spec) -> float:
    """Brute-force MSE: enumerate all ``d ** (n + n0)`` trajectories.

    Sums ``P(path) * (average - stationary mean)^2`` literally, in chunks.
    Only the definition of the estimator enters, so this is the ground truth
    the analytic routes are tested against.  Raises :class:`TooLarge` beyond
    10^7 paths.
    """
    nu = _check_length(chain.size, nu, "start distribution", mc.as_distribution)
    f = _check_length(chain.size, f, "function")
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


def saturated_cdf(weights) -> np.ndarray:
    """CDF rows along the last axis, set to 1 from each row's last positive entry on.

    Rows sum to 1 only within ``ROW_TOL``: the saturation keeps a deficit
    off the zero-probability states, and an excursion above 1 before the
    last positive entry selects nothing past it.
    """
    cdf = np.cumsum(weights, axis=-1)
    d = weights.shape[-1]
    last = d - 1 - np.argmax(weights[..., ::-1] > 0.0, axis=-1)
    cdf[np.arange(d) >= last[..., None]] = 1.0
    return cdf


def step_oracle(u, cdf_rows) -> np.ndarray:
    """The sampler step by definition: count the CDF entries at or below u.

    ``cdf_rows`` holds one row of :func:`saturated_cdf` per uniform, or one
    row shared by all; this R x d gather-compare-sum is what the
    simulation's guide-table step must reproduce, start draw included.
    """
    return (u[:, None] >= cdf_rows).sum(axis=1)


def sample_trajectory(chain, nu, length: int, rng_stream) -> np.ndarray:
    """Sample one trajectory of the given length, X_1 ~ nu.

    Consumes exactly ``length`` uniforms from ``rng_stream`` (a numpy
    Generator), one per state, and takes each state by :func:`step_oracle`
    from the start distribution resp. the current transition row, the
    definition that ``mc.estimate_error``'s guide-table step reproduces.
    """
    if not isinstance(length, (int, np.integer)) or length < 1:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    nu = _check_length(chain.size, nu, "start distribution", mc.as_distribution)
    u = rng_stream.random(int(length))
    row_cdf = saturated_cdf(chain.P)
    states = np.zeros(int(length), dtype=np.intp)
    states[:1] = step_oracle(u[:1], saturated_cdf(nu))
    for t in range(1, int(length)):
        states[t : t + 1] = step_oracle(u[t : t + 1], row_cdf[states[t - 1]])
    return states
