"""Seeded simulation cross-checks.

The estimator is counter-based (Philox keyed by the seed), so every result
here is a deterministic function of (chain, nu, f, config) — tests can
assert exact equality across repeat runs and against a pure-Python replay.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mcmc_certify as mc
from mcmc_certify import simulate
from mcmc_certify.errors import BudgetOverflow
from mcmc_certify.simulate import _advance, _guide, _thresholds

from chain_strategies import metropolis_chain, sample_trajectory, saturated_cdf, step_oracle


def test_config_validation():
    spec = mc.EstimatorSpec(n=2, n0=0)
    with pytest.raises(ValueError):
        mc.SimulationConfig(replications=1, seed=0, spec=spec)
    with pytest.raises(ValueError):
        mc.SimulationConfig(replications=100, seed=-1, spec=spec)


def test_seed_is_a_philox_key(two_state):
    # Philox takes keys below 2**128; the config refuses the rest itself.
    spec = mc.EstimatorSpec(n=2, n0=0)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
        mc.SimulationConfig(replications=100, seed=2**128, spec=spec)
    config = mc.SimulationConfig(replications=100, seed=2**128 - 1, spec=spec)
    rep = mc.estimate_error(two_state, [1.0, 0.0], [1.0, 0.0], config)
    assert rep.seed == 2**128 - 1 and rep.std_error > 0.0


def _force_workers(monkeypatch, k):
    monkeypatch.setattr(simulate, "_usable_cores", lambda: k)
    monkeypatch.setattr(simulate, "_MIN_ROWS", 1)


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

    On 1, 2, 3, 5 and 8 workers (chunks of R = 300 that are no multiple of
    the batch), batches of 43 rows and of one row (shorter than a
    replication) must equal the single uniform block, on the suite (two
    chains of d = 2 among it) and on a birth-death chain of d = 80.
    """
    R, seed = 300, 123
    default = simulate._BATCH_ELEMS
    for spec in (mc.EstimatorSpec(n=4, n0=3), mc.EstimatorSpec(n=5, n0=0)):
        config = mc.SimulationConfig(replications=R, seed=seed, spec=spec)
        for chain in (bd3, *suite.values(), _chain("birth_death", 80)):
            d = chain.size
            nu = np.full(d, 1.0 / d)
            f = np.arange(d, dtype=np.float64) ** 2
            expected = _replay(chain, nu, f, spec, R, seed)
            for k in (1, 2, 3, 5, 8):
                _force_workers(monkeypatch, k)
                for batch_elems in (default, 43 * spec.total, spec.total - 2):
                    monkeypatch.setattr(simulate, "_BATCH_ELEMS", batch_elems)
                    rep = mc.estimate_error(chain, nu, f, config)
                    assert (rep.mse_hat, rep.std_error) == expected, (chain, spec, k, batch_elems)


def _chain(kind, d):
    if kind == "metropolis":
        return metropolis_chain(np.linspace(1.0, 3.0, d))
    return mc.build_chain(mc.birth_death_matrix(np.linspace(0.2, 0.4, d - 1), np.full(d - 1, 0.3)))


# The guide's (bits, rounds) that the table rule picks for each chain.
_TABLE_RULE = {
    ("birth_death", 2): (0, 1),
    ("birth_death", 3): (1, 1),
    ("birth_death", 4): (1, 1),
    ("birth_death", 64): (1, 1),
    ("birth_death", 65): (1, 1),
    ("birth_death", 600): (1, 1),
    ("metropolis", 64): (8, 1),
}


@pytest.mark.parametrize("kind,d", list(_TABLE_RULE))
def test_replay_matches_on_both_sides_of_the_table_rule(kind, d, monkeypatch):
    """Every guide the table rule picks gives the replay's bits.

    The rule takes the fewest buckets a row that reach the fewest rounds
    the budget allows: none at d = 2, whose rows hold one breakpoint; two
    on birth-death rows; 256 on the Metropolis rows, whose 63 breakpoints
    a row then leave at most one inside a bucket.  The uniform start row
    takes rounds of its own.
    """
    chain = _chain(kind, d)
    nu = np.full(d, 1.0 / d)
    f = np.arange(d, dtype=np.float64) ** 2
    table = _guide(chain.P, nu, f)
    assert (table.bits, len(table.probes)) == _TABLE_RULE[kind, d]
    R, seed = 300, 123
    default = simulate._BATCH_ELEMS
    for spec in (mc.EstimatorSpec(n=4, n0=3), mc.EstimatorSpec(n=5, n0=0)):
        config = mc.SimulationConfig(replications=R, seed=seed, spec=spec)
        expected = _replay(chain, nu, f, spec, R, seed)
        for k in (1, 2, 3, 8):
            _force_workers(monkeypatch, k)
            for batch_elems in (default, 43 * spec.total, spec.total - 2):
                monkeypatch.setattr(simulate, "_BATCH_ELEMS", batch_elems)
                rep = mc.estimate_error(chain, nu, f, config)
                assert (rep.mse_hat, rep.std_error) == expected, (d, spec, k, batch_elems)


def test_staged_pieces_shorter_than_a_replication(bd3, monkeypatch):
    # A staging buffer of 3 uniforms cuts every replication of 9 steps into
    # segments of 3; one of 64 holds 7 whole replications.
    spec = mc.EstimatorSpec(n=6, n0=3)
    config = mc.SimulationConfig(replications=50, seed=8, spec=spec)
    nu, f = np.array([0.2, 0.5, 0.3]), np.array([0.0, 1.0, 4.0])
    expected = _replay(bd3, nu, f, spec, 50, 8)
    _force_workers(monkeypatch, 2)
    for stage in (1, 3, 4, 64):
        monkeypatch.setattr(simulate, "_STAGE_ELEMS", stage)
        rep = mc.estimate_error(bd3, nu, f, config)
        assert (rep.mse_hat, rep.std_error) == expected, stage


def test_more_workers_than_cores_under_rapid_switching(bd3, monkeypatch):
    # Eight workers of one-row batches, switching threads every microsecond:
    # a write into another chunk's sums would change the result.
    spec = mc.EstimatorSpec(n=5, n0=2)
    config = mc.SimulationConfig(replications=400, seed=31, spec=spec)
    nu, f = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 4.0])
    _force_workers(monkeypatch, 8)
    monkeypatch.setattr(simulate, "_BATCH_ELEMS", spec.total)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rep = mc.estimate_error(bd3, nu, f, config)
    finally:
        sys.setswitchinterval(interval)
    assert (rep.mse_hat, rep.std_error) == _replay(bd3, nu, f, spec, 400, 31)


@pytest.mark.parametrize("offset", [0, 1, 3, 4, 5, 4099, 2**33 + 3])
def test_positioned_generator_continues_the_stream(offset):
    # Up to 4099 the stream is drawn straight.  Past it, a Philox counter
    # set by hand stands in: counter c starts at uniform 4c, as the straight
    # offsets 4 and 4099 also check.
    seed = 2024
    if offset < 8192:
        expected = np.random.Generator(np.random.Philox(key=seed)).random(offset + 9)[offset:]
    else:
        counter = np.array([offset // 4, 0, 0, 0], dtype=np.uint64)
        reference = np.random.Generator(np.random.Philox(key=seed, counter=counter))
        expected = reference.random(offset % 4 + 9)[offset % 4 :]
    assert np.array_equal(simulate._positioned(seed, offset).random(9), expected)
    # The simulation reads each uniform as its integer j = raw >> 11.
    raw = simulate._positioned(seed, offset).bit_generator.random_raw(9)
    assert np.array_equal((raw >> 11) * 2.0**-53, expected)


def test_worker_exception_propagates_and_no_thread_outlives_the_call(two_state, monkeypatch):
    chunk_sums = simulate._chunk_sums

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("chunk 1 failed")
        chunk_sums(*args)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(simulate, "_chunk_sums", failing)
    config = mc.SimulationConfig(replications=1000, seed=4, spec=mc.EstimatorSpec(n=3, n0=1))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        mc.estimate_error(two_state, [1.0, 0.0], [1.0, 0.0], config)
    assert threading.active_count() == before


def _budget(chain, nu, f, R, k):
    """The bytes estimate_error may hold at once, from its parts.

    The column buffers with each replication's walk words share the
    ``_BUFFER_ELEMS`` words.  Beside them come, for each of the k workers,
    its staging piece and the buffer of as many words through which numpy
    casts the piece into place, then the R window sums and the guide
    table's arrays.  One MiB more covers the interpreter's and numpy's
    small allocations.
    """
    table = _guide(chain.P, np.asarray(nu, dtype=float), np.asarray(f, dtype=float))
    tables = sum(a.nbytes for a in (table.thresholds, table.keys, table.guide, table.values))
    return 8 * (simulate._BUFFER_ELEMS + 2 * k * simulate._STAGE_ELEMS + R) + tables + 2**20


def _peak(chain, nu, f, config):
    tracemalloc.start()
    try:
        mc.estimate_error(chain, nu, f, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_memory_does_not_grow_with_the_uniform_block(two_state):
    # The whole block would hold 3e5 * 100 doubles (240 MB).  The column
    # buffers take 16 MiB however many workers share them, the R sums 2.3 MB.
    config = mc.SimulationConfig(
        replications=300_000, seed=3, spec=mc.EstimatorSpec(n=60, n0=40)
    )
    k = simulate._usable_cores()
    peak = _peak(two_state, [1.0, 0.0], [1.0, 0.0], config)
    assert peak < _budget(two_state, [1.0, 0.0], [1.0, 0.0], 300_000, k), peak


def test_memory_of_four_workers_stays_within_the_budget(two_state, monkeypatch):
    # Four workers share the 16 MiB column budget, 2**19 words each,
    # beside four 128 KiB staging buffers and the R sums.
    _force_workers(monkeypatch, 4)
    config = mc.SimulationConfig(
        replications=300_000, seed=3, spec=mc.EstimatorSpec(n=60, n0=40)
    )
    peak = _peak(two_state, [1.0, 0.0], [1.0, 0.0], config)
    assert peak < _budget(two_state, [1.0, 0.0], [1.0, 0.0], 300_000, 4), peak


def test_memory_on_the_table_path_stays_within_the_budget_and_the_table(monkeypatch):
    # A dense chain's table holds two words per entry of P, d**2 of them,
    # beside the budget; the two workers' walk words share the column budget.
    _force_workers(monkeypatch, 2)
    chain = metropolis_chain(np.linspace(1.0, 3.0, 200))
    nu, f = np.eye(200)[0], np.arange(200.0)
    config = mc.SimulationConfig(
        replications=300_000, seed=3, spec=mc.EstimatorSpec(n=60, n0=40)
    )
    peak = _peak(chain, nu, f, config)
    assert peak < _budget(chain, nu, f, 300_000, 2), peak


def test_memory_of_short_windows_on_the_table_path(monkeypatch):
    # With n + n0 = 4 the budget holds 2**20 / 8 replications a worker:
    # their 4 uniforms, the key, position and scratch words and a compare
    # byte.  A walk row beyond those would add 1 MiB a worker.
    _force_workers(monkeypatch, 2)
    chain = _chain("birth_death", 64)
    nu, f = np.eye(64)[0], np.arange(64.0)
    config = mc.SimulationConfig(
        replications=300_000, seed=3, spec=mc.EstimatorSpec(n=2, n0=2)
    )
    peak = _peak(chain, nu, f, config)
    assert peak < _budget(chain, nu, f, 300_000, 2), peak


def _weight_table(d, seed, zero_share, trailing, tiny_last, tol_units):
    """d + 1 rows of d weights, the last one a start's, summing to 1 + tol_units * ROW_TOL.

    Some entries are zero, as a share ``zero_share``.  ``trailing`` zero
    columns end every row; with ``tiny_last`` the entry before them is
    1e-14, so the running sum may pass 1 before it.
    """
    rows = d + 1
    rng = np.random.default_rng(seed)
    weights = rng.random((rows, d)) * (rng.random((rows, d)) >= zero_share)
    weights[np.arange(rows), rng.integers(d, size=rows)] += 1.0
    last = d - 1 - trailing
    weights[:, last + 1 :] = 0.0
    weights[:, last] = 1e-14 if tiny_last else weights[:, last] + 1.0
    weights *= (1.0 + tol_units * mc.ROW_TOL) / weights.sum(axis=1, keepdims=True)
    return weights, rng


@st.composite
def _weight_tables(draw, max_d=80):
    d = draw(st.integers(min_value=1, max_value=max_d))
    return _weight_table(
        d,
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        zero_share=draw(st.sampled_from([0.0, 0.5, 0.95])),
        trailing=draw(st.integers(min_value=0, max_value=d - 1)),
        tiny_last=draw(st.booleans()),
        tol_units=draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])),
    )


def _dyadic_table():
    # Every CDF value is a multiple of 1/8, so every threshold lies on the
    # edge of a bucket of 2**50; the first row and the start also have
    # zero-probability states.
    weights = np.array([
        [0.25, 0.25, 0.5, 0.0], [0.125, 0.0, 0.375, 0.5], [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.125, 0.125, 0.25], [0.0, 0.625, 0.0, 0.375],
    ])
    return weights, np.random.default_rng(5)


def _check_guide_rows(weights, rng, rows, table_bytes=None):
    """From each row in ``rows`` (``d`` is the start row), the guide's search
    meets random j, the extremes, both sides of every bucket edge, and each
    of the row's thresholds below 2**53 with the j just below it (exact
    ties), and must select the oracle's state and its f.  With
    ``table_bytes`` the guide is built under that budget."""
    d = weights.shape[1]
    f = rng.random(d)
    budget = simulate._TABLE_BYTES
    if table_bytes is not None:
        simulate._TABLE_BYTES = table_bytes
    try:
        guide = _guide(weights[:-1], weights[-1], f)
    finally:
        simulate._TABLE_BYTES = budget
    cdf = saturated_cdf(weights)
    edges = np.arange(1, 1 << guide.bits, dtype=np.int64) << (53 - guide.bits)
    for x in rows:
        ties = _thresholds(cdf[x])
        ties = ties[ties < 2**53]
        j = np.concatenate(
            [rng.integers(2**53, size=50), [0, 2**53 - 1], edges, edges - 1, ties, ties - 1]
        )
        j = j[j >= 0]
        probes = guide.start_probes if x == d else guide.probes
        cur = np.full(j.size, guide.row_keys[x])
        buffers = np.empty_like(j), np.empty_like(j), np.empty(j.size, dtype=bool)
        cur, _ = _advance(guide, j, cur, *buffers, probes)
        state = np.searchsorted(guide.row_keys, cur)
        assert np.array_equal(guide.row_keys[state], cur)
        assert np.array_equal(state, step_oracle(j * 2.0**-53, cdf[x]))
        assert np.array_equal(guide.values[cur], f[state])
    return guide


@given(_weight_tables(max_d=700))
@example(_weight_table(1, 0, 0.0, 0, False, 0.0))
@example(_weight_table(2, 1, 0.5, 0, True, 1.0))
@example(_weight_table(700, 2, 0.95, 100, True, 1.0))
@example(_weight_table(700, 3, 0.0, 0, False, -1.0))
def test_bisection_step_equals_the_counting_oracle(table):
    # Without a guide (a budget of no bytes) every search, from a row of P
    # or the start row, is bisection alone from the row's first position.
    weights, rng = table
    d = weights.shape[1]
    rows = np.append(rng.choice(d, size=min(d, 6), replace=False), d)
    guide = _check_guide_rows(weights, rng, rows, table_bytes=0)
    assert guide.bits == 0


@given(_weight_tables())
@example(_weight_table(1, 0, 0.0, 0, False, 0.0))
@example(_weight_table(64, 2, 0.95, 10, True, 1.0))
@example(_weight_table(40, 4, 0.5, 0, True, 0.5))
@example(_weight_table(600, 4, 0.5, 7, True, 0.5))
@example(_dyadic_table())
def test_start_draw_search_equals_the_counting_oracle(table):
    # The start row is one more row of the guide, with rounds of its own;
    # its running sum may pass 1 before the saturated tail.
    weights, rng = table
    _check_guide_rows(weights, rng, [weights.shape[1]])


@given(_weight_tables())
@example(_dyadic_table())
@example(_weight_table(3, 6, 0.0, 0, False, -1.0))
@example(_weight_table(4, 0, 0.5, 1, False, 0.0))
@example(_weight_table(64, 2, 0.95, 10, True, 1.0))
@example(_weight_table(65, 3, 0.0, 0, False, -1.0))
@example(_weight_table(600, 4, 0.5, 7, True, 0.5))
def test_bucket_table_step_equals_the_counting_oracle(table):
    # The d = 600 example has more rows than a lift of 2**54 a row keeps
    # within int64.  A few rows of P, searched from their buckets' guide
    # positions.
    weights, rng = table
    d = weights.shape[1]
    _check_guide_rows(weights, rng, rng.choice(d, size=min(d, 6), replace=False))


def test_thresholds_on_bucket_edges_leave_every_bucket_pure():
    # With 8 buckets a row every threshold sits on a bucket's first j, so
    # the guide alone selects the state, without a compare.
    weights, _ = _dyadic_table()
    guide = _guide(weights[:-1], weights[-1], np.arange(4.0))
    assert (guide.bits, guide.probes, guide.start_probes) == (3, [], [])


@given(_weight_tables(max_d=700))
@example(_dyadic_table())
def test_integer_thresholds_compare_as_the_uniforms_do(table):
    # ceil(c 2**53) <= j exactly when c <= j 2**-53, at every CDF value c,
    # its float neighbours, and the j around c 2**53.
    weights, _ = table
    c = saturated_cdf(weights[:7]).ravel()
    c = np.concatenate([c, np.nextafter(c, -1.0), np.nextafter(c, 2.0)])
    near = np.floor(c * 2.0**53).astype(np.int64)[:, None] + np.arange(-1, 3)
    j = np.clip(near, 0, 2**53 - 1)
    assert np.array_equal(_thresholds(c)[:, None] <= j, c[:, None] <= j * 2.0**-53)


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


@pytest.mark.parametrize("R", [(1 << 27) + 1, 10**13])
def test_replication_cap_trips_before_any_allocation(two_state, R):
    # One double per replication: 10**13 of them would be 72.8 TiB.
    config = mc.SimulationConfig(replications=R, seed=0, spec=mc.EstimatorSpec(n=2, n0=1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetOverflow, match="replications must be at most 134217728"):
            mc.estimate_error(two_state, [1.0, 0.0], [1.0, 0.0], config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


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
