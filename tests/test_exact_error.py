"""Exact MSE engine vs. frozen hand-computed values and the brute-force oracle.

The frozen constants below were computed independently with exact rational
arithmetic (``fractions.Fraction``) by enumerating every trajectory of the
two-state chain P = [[0.7, 0.3], [0.6, 0.4]] started at state 0, weighting
each path by its probability and averaging the indicator of state 0 over the
estimation window.  They are exact rationals, not outputs of the code under
test.
"""

import collections
import importlib
import math
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcmc_certify as mc
from mcmc_certify.chain import _with_balanced_pi
from mcmc_certify.errors import BudgetOverflow, TooLarge

from chain_strategies import (
    forward_exact_mse,
    mean_value,
    path_enumeration_oracle,
    reversible_chains,
    standard_starts,
    state_functions,
    worst_case_stationary,
)

# (n, n0) -> exact MSE as a rational, for nu = delta_0, f = 1_{state 0}.
FROZEN_TWO_STATE = {
    (1, 0): 1.0 / 9.0,
    (2, 0): 31.0 / 360.0,
    (1, 1): 19.0 / 90.0,
    (3, 2): 1517.0 / 18000.0,
    (4, 0): 7927.0 / 144000.0,
    (2, 3): 43987.0 / 360000.0,
}


@pytest.mark.parametrize("n,n0", sorted(FROZEN_TWO_STATE))
def test_two_state_frozen_values(two_state, n, n0):
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    expected = FROZEN_TWO_STATE[(n, n0)]
    spec = mc.EstimatorSpec(n=n, n0=n0)

    assert mc.exact_error(two_state, nu, f, spec).mse == pytest.approx(expected, rel=1e-13)
    assert mc.exact_error_naive(two_state, nu, f, spec) == pytest.approx(expected, rel=1e-13)
    assert path_enumeration_oracle(two_state, nu, f, spec) == pytest.approx(
        expected, rel=1e-13
    )


def test_report_decomposition_consistent(two_state):
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    rep = mc.exact_error(two_state, nu, f, mc.EstimatorSpec(n=4, n0=1))
    assert rep.mse == pytest.approx(rep.stationary_mse + rep.correction, rel=1e-14)
    assert rep.correction == pytest.approx(
        rep.correction_diagonal + rep.correction_cross, rel=1e-12, abs=1e-18
    )
    assert rep.asymptotic_constant == pytest.approx(22.0 / 81.0, rel=1e-12)


def test_asymptotic_constant_two_state(two_state):
    # a_1^2 = Var_pi(f) = 2/9 and (1+0.1)/(1-0.1) = 11/9, so the limit of
    # n * MSE is 2/9 * 11/9 = 22/81.
    f = np.array([1.0, 0.0])
    assert mc.asymptotic_constant(two_state, f) == pytest.approx(22.0 / 81.0, rel=1e-12)


def test_asymptotic_constant_degenerate_cases(suite):
    chain = suite["uniform_three"]
    # beta1 = 0: the constant reduces to the stationary variance.
    f = np.array([1.0, 0.0, 0.0])
    var = mc.weighted_norm(f - mean_value(f, chain.pi), chain.pi, 2) ** 2
    assert mc.asymptotic_constant(chain, f) == pytest.approx(var, rel=1e-12)


# ---------------------------------------------------------------------------
# The window weight W(n, b)
# ---------------------------------------------------------------------------

def w_reference(n: int, b: float) -> float:
    """Independent evaluation of n + 2 sum_{k=1}^{n-1} (n-k) b^k at 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(n)
        for k in range(1, n):
            total += 2 * (n - k) * mpmath.mpf(b) ** k
        return float(total)


def test_w_factor_hand_values():
    assert mc.w_factor(1, 0.73) == 1.0
    assert mc.w_factor(5, 0.0) == 5.0
    assert mc.w_factor(2, 0.5) == pytest.approx(3.0, rel=1e-15)  # 2 + 2*1*0.5
    assert mc.w_factor(3, -0.5) == pytest.approx(1.5, rel=1e-14)  # 3 + 2(2(-1/2) + 1/4)


@pytest.mark.parametrize(
    "n,b",
    [
        (10, 0.89999),
        (10, 0.90001),
        (50, 0.99),
        (1000, 0.9999),
        (100, 1.0 - 1e-9),    # n(1-b) = 1e-7
        (2_000_000, 0.9999999),
        (3_000_000, 0.5),
        (17, -0.95),
        (17, -0.2),
        # n(1-b) small at windows beyond 2e6, where W ~ n^2 cancels hardest
        (2_000_001, 1.0 - 1e-9),
        (3_000_000, 1.0 - 1e-9),
        (10**8, 1.0 - 1e-9),
    ],
)
def test_w_factor_matches_high_precision(n, b):
    if n <= 10_000:
        ref = w_reference(n, b)
    else:
        # Closed form at 50 digits; no cancellation at that precision.
        with mpmath.workdps(50):
            bb = mpmath.mpf(b)
            ref = float((n * (1 - bb**2) - 2 * bb * (1 - bb**n)) / (1 - bb) ** 2)
    assert mc.w_factor(n, b) == pytest.approx(ref, rel=1e-12)


@given(st.floats(min_value=-1.0, max_value=0.999999, exclude_max=False))
def test_w_factor_window_one(b):
    assert mc.w_factor(1, b) == 1.0


@given(
    st.integers(min_value=2, max_value=500),
    st.floats(min_value=0.0, max_value=0.999),
)
def test_w_factor_cap_and_floor(n, b):
    w = mc.w_factor(n, b)
    assert n <= w * (1.0 + 1e-12)
    assert w <= 2.0 * n / (1.0 - b) * (1.0 + 1e-12)


@given(
    st.integers(min_value=2, max_value=300),
    st.floats(min_value=-0.999, max_value=-1e-6),
)
def test_w_factor_negative_eigenvalue_beats_iid(n, b):
    # Antithetic chains average better than independent sampling.
    assert mc.w_factor(n, b) < n


@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.0, max_value=0.009),
)
def test_w_factor_monotone_in_b(n, b, db):
    assert mc.w_factor(n, b) <= mc.w_factor(n, b + db) * (1.0 + 1e-12)


def test_worst_case_mse_is_w_over_n_squared():
    for n in (1, 2, 10, 1000):
        for b in (0.0, 0.3, 0.95, -0.7):
            assert mc.worst_case_mse(n, b) == pytest.approx(
                mc.w_factor(n, b) / n**2, rel=1e-15
            )


# ---------------------------------------------------------------------------
# Stationary error and the spectral representation
# ---------------------------------------------------------------------------

def test_stationary_error_spectral_form(two_state):
    f = np.array([1.0, 0.0])
    for n in (1, 2, 7, 50):
        expected = (2.0 / 9.0) * mc.w_factor(n, 0.1) / n**2
        assert mc.stationary_error(two_state, f, n) == pytest.approx(expected, rel=1e-12)


def test_stationary_error_constant_function_is_zero(bd3):
    assert mc.stationary_error(bd3, np.full(3, 4.2), 10) == pytest.approx(0.0, abs=1e-20)


def test_worst_case_attained_by_leading_eigenfunction(suite):
    for name, chain in suite.items():
        if chain.size == 1:
            continue
        dec = mc.spectral_decompose(chain)
        u1 = dec.eigenfunctions[:, 1]
        for n in (1, 3, 25):
            worst = worst_case_stationary(chain, n)
            attained = mc.stationary_error(chain, u1, n)
            assert attained == pytest.approx(worst, rel=1e-11), (name, n)
            assert worst == pytest.approx(mc.worst_case_mse(n, dec.beta1), rel=1e-12)


def test_exact_error_stationary_start_has_no_correction(bd3):
    f = np.array([1.0, -1.0, 0.5])
    rep = mc.exact_error(bd3, bd3.pi, f, mc.EstimatorSpec(n=6, n0=0))
    assert abs(rep.correction) < 1e-13 * rep.mse
    assert rep.mse == pytest.approx(mc.stationary_error(bd3, f, 6), rel=1e-11)


# ---------------------------------------------------------------------------
# Cross-route agreement on random cases
# ---------------------------------------------------------------------------

@given(
    reversible_chains(max_states=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.data(),
)
@settings(max_examples=40)
def test_exact_matches_naive(chain, n, n0, data):
    f = data.draw(state_functions(chain.size))
    nu = np.eye(chain.size)[0]
    spec = mc.EstimatorSpec(n=n, n0=n0)
    fast = mc.exact_error(chain, nu, f, spec).mse
    slow = mc.exact_error_naive(chain, nu, f, spec)
    assert fast == pytest.approx(slow, rel=1e-11, abs=1e-13)


def test_exact_matches_oracle_mixed_starts(bd3):
    f = np.array([0.0, 1.0, 3.0])
    for nu in standard_starts(bd3):
        for (n, n0) in [(1, 0), (2, 1), (3, 3), (5, 0)]:
            spec = mc.EstimatorSpec(n=n, n0=n0)
            assert mc.exact_error(bd3, nu, f, spec).mse == pytest.approx(
                path_enumeration_oracle(bd3, nu, f, spec), rel=1e-11, abs=1e-15
            )


def birth_death_chain(d: int, ratio: float, solve_pi: bool = False) -> mc.ReversibleChain:
    """Birth--death chain with varying rates and up/down ratio ``ratio``.

    ``pi`` comes from detailed balance, accurate in every entry, unless
    ``solve_pi`` leaves it to ``build_chain``'s least-squares solve.
    """
    up = 0.3 + 0.1 * np.sin(np.arange(d - 1.0))
    P = mc.birth_death_matrix(up, up / ratio)
    if solve_pi:
        return mc.build_chain(P)
    w = np.concatenate([[1.0], np.cumprod(ratio * np.ones(d - 1))])
    return mc.build_chain(P, pi=w / w.sum())


def forward_cases(suite):
    """Every point-mass start on the suite chains, and the lowest-pi start
    on two graded birth--death chains."""
    cases = [(name, chain, np.eye(chain.size)) for name, chain in suite.items()]
    for d in (8, 32):
        chain = birth_death_chain(d, 1.5)
        cases.append((f"birth_death_{d}", chain, np.eye(d)[[int(np.argmin(chain.pi))]]))
    return cases


@pytest.mark.parametrize("n,n0", [(1, 0), (50, 20), (3000, 500), (100_000, 0)])
def test_exact_error_matches_forward_oracle(suite, n, n0):
    # Point masses on low-pi states make the start coefficients c_k large,
    # so the eigenpair sums must cancel to stay exact.
    for name, chain, starts in forward_cases(suite):
        f = np.sqrt(np.arange(chain.size, dtype=float))
        expected = forward_exact_mse(chain, starts, f, n, n0)
        for start, ref in zip(starts, expected):
            got = mc.exact_error(chain, start, f, mc.EstimatorSpec(n=n, n0=n0)).mse
            assert abs(got - ref) <= max(1e-10 * abs(ref), 1e-15), (name, start, got, ref)


@pytest.mark.parametrize("ratio", [2.0, 3.0])
def test_exact_error_with_the_solved_pi_on_a_graded_chain(ratio):
    # pi_min ~ 2e-10 (ratio 2) and 1e-15 (ratio 3): the least-squares pi is
    # 6e-6 and 0.1 off there in relative terms, which an eigenbasis built on
    # it carries into the start correction (2.8e-6 and 9% off).  exact_error
    # re-derives pi by detailed balance; the oracle runs on the same P with
    # pi from detailed balance supplied.
    chain = birth_death_chain(32, ratio, solve_pi=True)
    accurate = birth_death_chain(32, ratio)
    start = np.eye(32)[int(np.argmin(accurate.pi))]
    f = np.sqrt(np.arange(32.0))
    for n, n0 in [(1, 0), (50, 20), (3000, 500)]:
        ref = forward_exact_mse(accurate, start, f, n, n0)
        got = mc.exact_error(chain, start, f, mc.EstimatorSpec(n=n, n0=n0)).mse
        assert abs(got - ref) <= 1e-10 * abs(ref), (n, n0, got, ref)


def test_exact_error_across_row_blocks():
    # 299 eigenvalue rows: the start correction takes a full block of rows
    # and a partial one.  With no burn-in every row contributes.
    chain = birth_death_chain(300, 1.02)
    starts = np.eye(300)[[0, 299]]
    f = np.sqrt(np.arange(300.0))
    expected = forward_exact_mse(chain, starts, f, 200, 0)
    for start, ref in zip(starts, expected):
        got = mc.exact_error(chain, start, f, mc.EstimatorSpec(n=200, n0=0)).mse
        assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)


def metropolis_chain(pi, moves) -> mc.ReversibleChain:
    """Metropolis kernel for ``pi`` with proposal weights ``moves[x, y]``."""
    P = moves * np.minimum(1.0, pi[None, :] / pi[:, None])
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return mc.build_chain(P, pi=pi)


def assert_matches_forward(chain, start, f, windows):
    for n, n0 in windows:
        ref = forward_exact_mse(chain, start, f, n, n0)
        got = mc.exact_error(chain, start, f, mc.EstimatorSpec(n=n, n0=n0)).mse
        assert abs(got - ref) <= 1e-10 * abs(ref), (n, n0, got, ref)


# Windows that end before the start has spread, spread it inside the window,
# inside the burn-in, or hand a long remainder to the eigenpair sums.
SPREAD_WINDOWS = [(1, 0), (3, 0), (3, 2), (50, 1), (50, 40), (3000, 0), (3000, 3000)]


def test_exact_error_from_a_start_of_tiny_pi():
    # Ratio 30: pi at the start is 4e-11 of its largest entry.  Without the
    # exact steps the eigenpair sums lose up to 1e-13 here, and far more on
    # the Metropolis chain below.
    chain = birth_death_chain(8, 30.0)
    start, f = np.eye(8)[0], np.sqrt(np.arange(8.0))
    assert_matches_forward(chain, start, f, SPREAD_WINDOWS)
    for n, n0 in [(2, 0), (3, 2)]:
        got = mc.exact_error(chain, start, f, mc.EstimatorSpec(n=n, n0=n0)).mse
        ref = path_enumeration_oracle(chain, start, f, mc.EstimatorSpec(n=n, n0=n0))
        assert abs(got - ref) <= 1e-12 * ref


def test_exact_error_on_a_steep_metropolis_ring():
    # pi_min 3e-16 and beta = 1 - 1e-6: the eigenpair sums alone are 1e-8
    # off from the lowest-pi start.
    x = np.arange(16)
    pi = np.exp(-12.0 * (x % 3) ** 1.5)
    ring = (np.abs((x[:, None] - x[None, :] + 8) % 16 - 8) <= 2) / 5.0
    chain = metropolis_chain(pi / pi.sum(), ring)
    start = np.eye(16)[int(np.argmin(chain.pi))]
    assert_matches_forward(chain, start, np.cos(x), SPREAD_WINDOWS)


@pytest.mark.parametrize("n, n0", [(2, 0), (10, 0), (1000, 5)])
def test_a_start_at_pi_carries_no_correction(n, n0):
    # pi spans 160 decades.  The start enters only as nu - pi, which is 0
    # here; nu itself in the eigenbasis left a correction of up to 9e-43 of
    # the MSE, rounding alone.
    logs = np.linspace(0.0, 160.0, 4)
    np.random.default_rng(5).shuffle(logs)  # (160, 53.33, 106.67, 0)
    chain = metropolis_chain(10.0**-logs / np.sum(10.0**-logs), np.full((4, 4), 0.25))
    report = mc.exact_error(chain, chain.pi, np.arange(4.0), mc.EstimatorSpec(n=n, n0=n0))
    assert report.correction == 0.0
    assert report.mse == report.stationary_mse


def ring_proposal(rng):
    """Uniform proposal on the 2 * width + 1 nearest positions of a ring of d
    states, d in [3, 29] and width drawn from ``rng``."""
    d = int(rng.integers(3, 30))
    x = np.arange(d)
    width = int(rng.integers(1, (d - 1) // 2 + 1))
    return (np.abs((x[:, None] - x[None, :] + d // 2) % d - d // 2) <= width) / (2 * width + 1)


def metropolis_rings(count, seed):
    """Seeded Metropolis rings with d in [3, 29], each built twice: with its
    pi supplied and with pi solved by build_chain; f is a random function."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ring = ring_proposal(rng)
        d = len(ring)
        pi = np.exp(rng.normal(0.0, rng.uniform(0.0, 3.0), d))
        chain, f = metropolis_chain(pi / pi.sum(), ring), rng.normal(size=d)
        yield chain, f
        yield mc.build_chain(chain.P), f


def test_a_start_at_chain_pi_carries_no_correction_on_any_route(suite):
    # nu = chain.pi reaches every route as chain.pi itself, so its density
    # constant and every start correction are 0.0.  The exact route is exact
    # there where it keeps the chain's own pi, that is without a balanced twin.
    cases = [(chain, np.arange(float(chain.size))) for chain in suite.values()]
    cases += metropolis_rings(300, 30)
    spec, exact = mc.EstimatorSpec(n=40, n0=3), 0
    for chain, f in cases:
        for kind in mc.NORM_KINDS:
            for route in (mc.bound_general_start, mc.bound_theorem):
                report = route(chain, chain.pi, f, spec, kind)
                assert report.constants.C_density == 0.0 and report.correction_term == 0.0
        if _with_balanced_pi(chain) is chain:
            assert mc.exact_error(chain, chain.pi, f, spec).correction == 0.0
            exact += 1
    assert len(cases) == 606 and exact >= 550  # 39 of the solved rings have a twin
    assert all(_with_balanced_pi(chain) is chain for chain in suite.values())


def test_each_call_checks_and_expands_its_inputs_once(suite, monkeypatch):
    # exact_error checks nu and f on the chain it decomposes (the balanced twin,
    # where there is one) and expands g there: once itself, once inside
    # stationary_error.  The bounds take C_density and C_pi from the gate's nu
    # and the checked chain.pi, so nu is checked once and no mass floor again.
    # Patched by module: the package's own attribute exact_error is the function.
    calls = collections.Counter()

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for layer in ("chain", "exact_error", "bounds"):
        module = importlib.import_module(f"mcmc_certify.{layer}")
        for name in ("_inputs", "spectral_coefficients", "as_distribution", "_check_mass"):
            if hasattr(module, name):
                spy(module, name)
    ring = next((chain, f) for chain, f in metropolis_rings(50, 30)
                if _with_balanced_pi(chain) is not chain)
    spec = mc.EstimatorSpec(n=40, n0=3)
    for chain, f in [(chain, np.arange(float(chain.size))) for chain in suite.values()] + [ring]:
        nu = np.full(chain.size, 1.0 / chain.size)
        calls.clear()
        mc.exact_error(chain, nu, f, spec)
        assert (calls["_inputs"], calls["spectral_coefficients"]) == (2, 2)
        for route in (mc.bound_general_start, mc.bound_theorem):
            for kind in mc.NORM_KINDS:
                calls.clear()
                route(chain, nu, f, spec, kind)
                assert (calls["as_distribution"], calls["_check_mass"]) == (1, 0)


def solved_rings(count, seed):
    """Seeded Metropolis rings with d in [3, 29] and log pi drawn with sigma 4,
    built with pi solved by build_chain; f is uniform on [0, 1)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ring = ring_proposal(rng)
        d = len(ring)
        pi = np.exp(rng.normal(0.0, 4.0, d))
        yield mc.build_chain(metropolis_chain(pi / pi.sum(), ring).P), rng.uniform(size=d)


@pytest.mark.xfail(strict=True, reason="known: with pi solved, exact_error works on the "
                   "balanced twin's pi and the sharp bounds on chain.pi (ROADMAP item 2)")
def test_the_tightest_sharp_bound_at_chain_pi_is_at_least_the_exact_mse():
    # 264 of the 300 rings have a twin.  At nu = chain.pi the bounds carry no
    # start correction, while exact_error's nu - pi is the difference of the
    # two pis: the tightest bound is below the MSE on 130 rings, by up to
    # 5.3e-11 relative.  One pi for every route makes this pass.
    spec, below = mc.EstimatorSpec(n=200, n0=5), []
    for i, (chain, f) in enumerate(solved_rings(300, 82)):
        mse = mc.exact_error(chain, chain.pi, f, spec).mse
        tightest = min(mc.bound_general_start(chain, chain.pi, f, spec, kind).total
                       for kind in mc.NORM_KINDS)
        if tightest < mse:
            below.append((i, (mse - tightest) / mse))
    assert not below, (len(below), max(r for _, r in below))


def test_variance_on_a_graded_chain():
    # pi spans 110 decades and f is nearly constant where pi lives.  Expanded
    # as f itself, not g, the variance came out 20 decades low.
    pi = 10.0 ** -np.array([90.0, 0.0, 110.0])
    chain = metropolis_chain(pi / pi.sum(), np.full((3, 3), 1.0 / 3.0))
    with mpmath.workdps(50):
        p = [mpmath.mpf(x) for x in chain.pi]
        mean = sum(k * x for k, x in enumerate(p))
        variance = float(sum(x * (k - mean) ** 2 for k, x in enumerate(p)))
    report = mc.exact_error(chain, chain.pi, np.arange(3.0), mc.EstimatorSpec(n=1, n0=0))
    for value in (mc.stationary_error(chain, np.arange(3.0), 1), report.mse):
        assert math.isclose(value, variance, rel_tol=1e-12), (value, variance)


def two_clusters() -> mc.ReversibleChain:
    """Two clusters of four states joined by one edge of weight 1e-7
    (1 - beta = 6e-8)."""
    pi = np.exp(-0.7 * np.arange(8.0))
    same = np.equal.outer(np.arange(8) < 4, np.arange(8) < 4) * 0.2
    same[3, 4] = same[4, 3] = 1e-7
    return metropolis_chain(pi / pi.sum(), same)


def test_exact_error_across_a_bottleneck():
    # An eigenfunction that keeps a trace of the constant, eps / (1 - beta),
    # would put the result 1.5e-8 off.
    f = np.arange(8.0) / 7.0
    assert_matches_forward(two_clusters(), np.eye(8)[0], f, [(50, 0), (3000, 0), (3000, 3000)])


def test_stationary_error_across_a_bottleneck():
    # With n = 1 the stationary MSE is the variance; the same trace of the
    # constant, times a large mean, would put it 3e-7 off.
    chain = two_clusters()
    f = 1e3 + np.arange(8.0)
    variance = np.dot(chain.pi, (f - np.dot(chain.pi, f)) ** 2)
    assert mc.stationary_error(chain, f, 1) == pytest.approx(variance, rel=1e-12)


def test_exact_error_refuses_a_trapped_start():
    # State 0 holds pi = 1e-30 and keeps the chain for 1e6 steps on average:
    # windows inside the first 4096 steps are summed exactly; longer ones
    # would leave the eigenpair sums a start they cannot resolve.
    pi = np.array([1e-30, 0.5, 0.5])
    P = np.array([[1.0 - 1e-6, 1e-6, 0.0], [2e-36, 0.5, 0.5], [0.0, 0.5, 0.5]])
    P[1, 1] = 1.0 - P[1, 0] - P[1, 2]
    chain = mc.build_chain(P, pi=pi / pi.sum())
    start, f = np.eye(3)[0], np.arange(3.0)
    assert_matches_forward(chain, start, f, [(100, 0), (4000, 96)])
    with pytest.raises(BudgetOverflow):
        mc.exact_error(chain, start, f, mc.EstimatorSpec(n=4000, n0=97))


def test_exact_error_of_a_function_too_large_to_square_is_refused(suite):
    # ||f||_inf = 5e160: the MSE is not finite in float64.  It is refused,
    # without a floating-point warning, where the bounds of such an f are
    # inf (tests/test_bounds.py); the asymptotic constant is inf as well.
    chain = suite["birth_death_six"]
    f = 1e160 * np.arange(6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BudgetOverflow, match="the exact MSE overflows float64"):
            mc.exact_error(chain, np.eye(6)[0], f, mc.EstimatorSpec(n=100, n0=5))
        assert mc.asymptotic_constant(chain, f) == math.inf


def test_balanced_pi_is_accurate_in_every_entry():
    # Ratio 3 over 31 steps spans 15 decades; every entry of the balanced pi
    # matches the closed form relative to its size, however small it is.
    chain = birth_death_chain(32, 3.0, solve_pi=True)
    w = np.cumprod(np.concatenate([[1.0], np.full(31, 3.0)]))
    exact = w / w.sum()
    balanced = _with_balanced_pi(chain)
    assert np.max(np.abs(balanced.pi / exact - 1.0)) <= 1e-13
    assert balanced.reversibility_residual <= 1e-16
    assert np.max(np.abs(chain.pi / exact - 1.0)) > 1e-3  # the lstsq solve's


def test_repeated_exact_calls_build_and_decompose_the_twin_once(monkeypatch):
    # The lstsq pi is over 1e-3 off (see above), so exact_error works on a
    # balanced twin.  The chain keeps it, and the twin keeps its eigenpairs.
    nu, f = np.eye(32)[0], np.arange(32.0)
    specs = [mc.EstimatorSpec(n=100, n0=n0) for n0 in (0, 7)]
    fresh = [vars(mc.exact_error(birth_death_chain(32, 3.0, solve_pi=True), nu, f, spec))
             for spec in specs]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
    chain = birth_death_chain(32, 3.0, solve_pi=True)
    for spec, expected in zip(specs, fresh):
        assert vars(mc.exact_error(chain, nu, f, spec)) == expected
    assert calls == [(32, 32)]
    assert _with_balanced_pi(chain) is _with_balanced_pi(chain) is not chain


def test_balanced_pi_needs_two_way_edges():
    # A one-way cycle has no two-way edge to balance along: the chain is
    # left as it is.
    P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    chain = mc.ReversibleChain(P=P, pi=np.full(3, 1.0 / 3.0), reversibility_residual=0.0)
    assert _with_balanced_pi(chain) is chain


@pytest.mark.parametrize("sum_off", [9.9e-13, -9.9e-13])
def test_a_balanced_pi_off_in_its_sum_builds_no_twin(sum_off):
    # A supplied pi is kept as given, so the twin test compares shapes: a pi
    # within 1e-12 of the balanced shape is the chain's own, whatever its sum
    # within ROW_TOL.  Compared unscaled, the ring's pi, 2e-13 off in shape,
    # would make a twin.
    P = birth_death_chain(32, 3.0, solve_pi=True).P
    ring = np.roll(np.eye(6), 1, axis=1)
    cases = [(P, _with_balanced_pi(mc.build_chain(P)).pi),
             (0.5 * np.eye(6) + 0.25 * (ring + ring.T),
              np.full(6, 1.0 / 6.0) * (1.0 + 2e-13 * (-1.0) ** np.arange(6)))]
    for P, balanced in cases:
        pi = balanced * (1.0 + sum_off)
        chain = mc.build_chain(P, pi=pi)
        assert chain.pi.tobytes() == pi.tobytes()
        assert abs(chain.pi.sum() - 1.0 - sum_off) <= 1e-15
        assert _with_balanced_pi(chain) is chain


def test_exact_error_long_window(two_state):
    # n * mse tends to 22/81 (see test_asymptotic_constant_two_state); the
    # start's deviation adds O(1/n), far below the tolerance at n = 1e9.
    rep = mc.exact_error(two_state, [1.0, 0.0], [1.0, 0.0], mc.EstimatorSpec(n=10**9, n0=3))
    assert abs(1e9 * rep.mse - 22.0 / 81.0) <= 1e-8 * 22.0 / 81.0


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------

def test_estimator_spec_validation():
    with pytest.raises(ValueError):
        mc.EstimatorSpec(n=0, n0=0)
    with pytest.raises(ValueError):
        mc.EstimatorSpec(n=1, n0=-1)
    with pytest.raises(ValueError):
        mc.EstimatorSpec(n=1.5, n0=0)
    # A bool is not a count.
    for n, n0 in ((True, 0), (1, False), (True, False)):
        with pytest.raises(ValueError):
            mc.EstimatorSpec(n=n, n0=n0)
    assert mc.EstimatorSpec(n=3, n0=4).total == 7


def test_naive_route_refuses_long_windows(two_state):
    with pytest.raises(ValueError):
        mc.exact_error_naive(
            two_state, two_state.pi, [1.0, 0.0], mc.EstimatorSpec(n=51, n0=0)
        )


class _NoSteps:
    """A transition matrix that fails the test on any product with it."""

    __array_ufunc__ = None  # numpy defers ``q @ P`` to __rmatmul__

    def __matmul__(self, other):
        raise AssertionError("step taken")

    __rmatmul__ = __matmul__


@pytest.mark.parametrize("n", [1, 2])
def test_naive_route_refuses_a_walk_beyond_the_cap_before_stepping(n):
    # The walk takes n0 + n - 1 steps: 2**27 start stepping, 2**27 + 1 do not.
    chain = types.SimpleNamespace(size=2, pi=np.array([0.5, 0.5]), P=_NoSteps())
    over, at = (mc.EstimatorSpec(n=n, n0=2**27 + k - n) for k in (2, 1))
    with pytest.raises(BudgetOverflow, match=r"the walk takes 134217729 steps, cap is 134217728"):
        mc.exact_error_naive(chain, [1.0, 0.0], [1.0, 0.0], over)
    with pytest.raises(AssertionError, match="step taken"):
        mc.exact_error_naive(chain, [1.0, 0.0], [1.0, 0.0], at)


def test_oracle_refuses_huge_state_spaces(bd3):
    with pytest.raises(TooLarge):
        path_enumeration_oracle(
            bd3, bd3.pi, [1.0, 0.0, 0.0], mc.EstimatorSpec(n=20, n0=0)
        )


def test_mismatched_lengths_rejected(bd3):
    with pytest.raises(ValueError):
        mc.exact_error(bd3, [0.5, 0.5], [1.0, 0.0, 0.0], mc.EstimatorSpec(n=1, n0=0))
    with pytest.raises(ValueError):
        mc.exact_error(bd3, bd3.pi, [1.0, 0.0], mc.EstimatorSpec(n=1, n0=0))
