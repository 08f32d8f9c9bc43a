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
