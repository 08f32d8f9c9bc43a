"""Hypothesis strategies and chain helpers shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

import mcmc_certify as mc


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
    g = f - mc.mean_value(f, pi)
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
