"""Seeded simulation cross-checks.

The estimator is counter-based (Philox keyed by the seed), so every result
here is a deterministic function of (chain, nu, f, config) — tests can
assert exact equality across repeat runs and against a pure-Python replay.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mcmc_certify as mc
from mcmc_certify import simulate
from mcmc_certify.errors import BudgetOverflow
from mcmc_certify.simulate import _cdf, _step

from chain_strategies import sample_trajectory, step_oracle


def test_config_validation():
    spec = mc.EstimatorSpec(n=2, n0=0)
    with pytest.raises(ValueError):
        mc.SimulationConfig(replications=1, seed=0, spec=spec)
    with pytest.raises(ValueError):
        mc.SimulationConfig(replications=100, seed=-1, spec=spec)


def test_estimate_is_deterministic(two_state):
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    config = mc.SimulationConfig(replications=4000, seed=42, spec=mc.EstimatorSpec(n=5, n0=1))
    a = mc.estimate_error(two_state, nu, f, config)
    b = mc.estimate_error(two_state, nu, f, config)
    assert a.mse_hat == b.mse_hat
    assert a.std_error == b.std_error
    assert a.replications == 4000 and a.seed == 42


def test_different_seeds_differ(two_state):
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    spec = mc.EstimatorSpec(n=5, n0=1)
    a = mc.estimate_error(two_state, nu, f, mc.SimulationConfig(replications=4000, seed=1, spec=spec))
    b = mc.estimate_error(two_state, nu, f, mc.SimulationConfig(replications=4000, seed=2, spec=spec))
    assert a.mse_hat != b.mse_hat


def test_constant_function_has_zero_error():
    # Exact pi avoids the last-ulp mean shift a recovered pi would carry.
    chain = mc.build_chain([[0.7, 0.3], [0.3, 0.7]], pi=[0.5, 0.5])
    config = mc.SimulationConfig(replications=500, seed=9, spec=mc.EstimatorSpec(n=3, n0=2))
    rep = mc.estimate_error(chain, chain.pi, np.array([2.5, 2.5]), config)
    assert rep.mse_hat == 0.0
    assert rep.std_error == 0.0


@pytest.mark.parametrize("n,n0,R,seed", [(4, 2, 20000, 7), (3, 1, 30000, 11)])
def test_simulation_agrees_with_exact_mse(two_state, n, n0, R, seed):
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    spec = mc.EstimatorSpec(n=n, n0=n0)
    emp = mc.estimate_error(
        two_state, nu, f, mc.SimulationConfig(replications=R, seed=seed, spec=spec)
    )
    exact = mc.exact_error(two_state, nu, f, spec).mse
    assert abs(emp.mse_hat - exact) <= 4.0 * emp.std_error
    assert emp.std_error > 0.0


def _replay(chain, nu, f, spec, R, seed):
    """Pure-Python lock-step replay: one searchsorted per replication and step."""
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((R, spec.total))
    nu_cdf = np.cumsum(nu)
    nu_cdf[-1] = 1.0
    row_cdf = np.cumsum(chain.P, axis=1)
    row_cdf[:, -1] = 1.0
    mean = mc.mean_value(f, chain.pi)

    squared = np.empty(R)
    for r in range(R):
        x = int(np.searchsorted(nu_cdf, uniforms[r, 0], side="right"))
        wsum = f[x] if spec.n0 == 0 else 0.0
        for t in range(1, spec.total):
            x = int(np.searchsorted(row_cdf[x], uniforms[r, t], side="right"))
            if t >= spec.n0:
                wsum += f[x]
        squared[r] = (wsum / spec.n - mean) ** 2
    return float(squared.mean()), float(squared.std(ddof=1) / math.sqrt(R))


def test_replay_matches_vectorized_batch(bd3, suite, monkeypatch):
    """Pure-Python lock-step replay reproduces the batch result bit for bit.

    Batches of 43 rows (R = 300 is not a multiple) and of one row (shorter
    than a replication) must equal the single uniform block.
    """
    R, seed = 300, 123
    default = simulate._BATCH_ELEMS
    for spec in (mc.EstimatorSpec(n=4, n0=3), mc.EstimatorSpec(n=5, n0=0)):
        config = mc.SimulationConfig(replications=R, seed=seed, spec=spec)
        for chain in (bd3, *suite.values()):
            d = chain.size
            nu = np.full(d, 1.0 / d)
            f = np.arange(d, dtype=np.float64) ** 2
            expected = _replay(chain, nu, f, spec, R, seed)
            for batch_elems in (default, 43 * spec.total, spec.total - 2):
                monkeypatch.setattr(simulate, "_BATCH_ELEMS", batch_elems)
                rep = mc.estimate_error(chain, nu, f, config)
                assert (rep.mse_hat, rep.std_error) == expected, (chain, spec, batch_elems)


def test_memory_does_not_grow_with_the_uniform_block(two_state):
    # The whole block would hold 3e5 * 100 doubles (240 MB).  A batch of
    # 2**20 uniforms and its transpose take 16 MiB, the R sums 2.3 MB.
    config = mc.SimulationConfig(
        replications=300_000, seed=3, spec=mc.EstimatorSpec(n=60, n0=40)
    )
    tracemalloc.start()
    try:
        mc.estimate_error(two_state, [1.0, 0.0], [1.0, 0.0], config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak


def _cdf_table(d, rows, seed, zero_share, trailing, tiny_last, tol_units):
    """Saturated CDF rows with zero entries and row sums of 1 + tol_units * ROW_TOL.

    ``trailing`` zero columns end every row; with ``tiny_last`` the entry
    before them is 1e-14, so the running sum may pass 1 before it.
    """
    rng = np.random.default_rng(seed)
    weights = rng.random((rows, d)) * (rng.random((rows, d)) >= zero_share)
    weights[np.arange(rows), rng.integers(d, size=rows)] += 1.0
    last = d - 1 - trailing
    weights[:, last + 1 :] = 0.0
    weights[:, last] = 1e-14 if tiny_last else weights[:, last] + 1.0
    weights *= (1.0 + tol_units * mc.ROW_TOL) / weights.sum(axis=1, keepdims=True)
    return _cdf(weights), rng


@st.composite
def _cdf_tables(draw):
    d = draw(st.integers(min_value=1, max_value=700))
    return _cdf_table(
        d,
        rows=draw(st.integers(min_value=1, max_value=6)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        zero_share=draw(st.sampled_from([0.0, 0.5, 0.95])),
        trailing=draw(st.integers(min_value=0, max_value=d - 1)),
        tiny_last=draw(st.booleans()),
        tol_units=draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])),
    )


@given(_cdf_tables())
@example(_cdf_table(1, 1, 0, 0.0, 0, False, 0.0))
@example(_cdf_table(2, 3, 1, 0.5, 0, True, 1.0))
@example(_cdf_table(700, 6, 2, 0.95, 100, True, 1.0))
@example(_cdf_table(700, 6, 3, 0.0, 0, False, -1.0))
def test_bisection_step_equals_the_counting_oracle(table):
    cdf, rng = table
    rows, d = cdf.shape
    # Random uniforms, the extremes, and every CDF value below 1 (exact ties).
    ties = cdf[cdf < 1.0]
    u = np.concatenate([rng.random(200), [0.0, np.nextafter(1.0, 0.0)], ties])
    states = rng.integers(rows, size=u.size)
    assert np.array_equal(_step(u, cdf, states), step_oracle(u, cdf[states]))
    # The start draw: one row shared by every uniform.
    start = np.zeros(u.size, dtype=np.intp)
    assert np.array_equal(_step(u, cdf[0], start), step_oracle(u, cdf[0]))


def test_sample_trajectory_consumes_one_uniform_per_state(bd3):
    nu = np.array([0.2, 0.5, 0.3])
    L = 37
    gen_a = np.random.Generator(np.random.Philox(key=5))
    gen_b = np.random.Generator(np.random.Philox(key=5))
    path = sample_trajectory(bd3, nu, L, gen_a)
    gen_b.random(L)  # skip exactly L draws
    assert gen_a.random() == gen_b.random()
    assert path.shape == (L,)
    assert path.dtype == np.intp
    assert np.all((0 <= path) & (path < 3))


def test_sample_trajectory_visits_follow_nu(bd3):
    # First states across many short trajectories follow nu.
    nu = np.array([0.2, 0.5, 0.3])
    gen = np.random.Generator(np.random.Philox(key=77))
    firsts = np.array([sample_trajectory(bd3, nu, 1, gen)[0] for _ in range(4000)])
    freq = np.bincount(firsts, minlength=3) / 4000
    assert freq == pytest.approx(nu, abs=0.03)


def test_sample_trajectory_validation(bd3):
    gen = np.random.Generator(np.random.Philox(key=1))
    with pytest.raises(ValueError):
        sample_trajectory(bd3, [0.5, 0.5], 3, gen)
    with pytest.raises(ValueError):
        sample_trajectory(bd3, [0.2, 0.5, 0.3], 0, gen)


def test_block_cap_trips(two_state):
    # A batch holds at least one whole replication, so one longer than 2**27
    # uniforms is refused before anything is drawn.
    config = mc.SimulationConfig(
        replications=2, seed=0, spec=mc.EstimatorSpec(n=1 << 27, n0=1)
    )
    with pytest.raises(BudgetOverflow):
        mc.estimate_error(two_state, [1.0, 0.0], [1.0, 0.0], config)


class _ConstantUniforms:
    """Stand-in generator whose every uniform is the same value."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def test_row_deficit_never_steps_to_zero_probability_state():
    # Symmetric, so pi is uniform.  Row 0 sums to 1 - 4e-13 (within ROW_TOL)
    # with P[0, 2] = P[0, 3] = 0, and this nu's CDF tops out one ulp below 1
    # before its zero last entry.  A uniform above either sum must still land
    # on a state of positive probability.
    delta = 4e-13
    P = [
        [0.5, 0.5 - delta, 0.0, 0.0],
        [0.5 - delta, delta, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ]
    chain = mc.build_chain(P, pi=[0.25] * 4)
    nu = np.array([0.33, 0.56, 0.11, 0.0])
    for u in (1.0 - 1e-13, np.nextafter(1.0, 0.0)):
        for start in (nu, np.eye(4)[0]):
            path = sample_trajectory(chain, start, 6, _ConstantUniforms(u))
            assert start[path[0]] > 0.0, (u, path)
            assert all(chain.P[x, y] > 0.0 for x, y in zip(path[:-1], path[1:])), (u, path)
