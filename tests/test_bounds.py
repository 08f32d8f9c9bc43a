"""Aggregate factors, certified bound reports, and their ordering."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcmc_certify as mc
from mcmc_certify.bounds import _one_minus_root

from chain_strategies import reversible_chains, standard_starts

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# damped_power
# ---------------------------------------------------------------------------

def test_damped_power_examples():
    assert mc.damped_power(0.5, 3) == 0.125
    assert mc.damped_power(0.3, 0) == 1.0
    assert mc.damped_power(0.0, 0) == 1.0
    # Underflow is floored so downstream logarithms stay finite.
    assert mc.damped_power(0.0, 5) > 0.0
    assert mc.damped_power(1e-10, 100) > 0.0


@given(
    st.floats(min_value=0.0, max_value=0.999999),
    st.integers(min_value=0, max_value=5000),
)
def test_damped_power_positive_and_monotone(b, k):
    x = mc.damped_power(b, k)
    assert x > 0.0
    assert mc.damped_power(b, k + 1) <= x * (1.0 + 1e-12)
    assert x <= 1.0


# ---------------------------------------------------------------------------
# v / u aggregates: hand values and the quadratic-cost reference
# ---------------------------------------------------------------------------

def v_reference(b: float, n: int) -> float:
    """Literal double loop: sum_j b^j + 2 sum_{j<k} b^k over 1 <= j < k <= n."""
    total = 0.0
    for j in range(1, n + 1):
        total += b**j
        for k in range(j + 1, n + 1):
            total += 2.0 * b**k
    return total


def u_reference(b: float, n: int) -> float:
    """Literal double loop: sum_j b^j + 4 sqrt(2) sum_{j<k} sqrt(b)^(j+k)."""
    s = math.sqrt(b)
    total = 0.0
    for j in range(1, n + 1):
        total += b**j
        for k in range(j + 1, n + 1):
            total += 4.0 * SQRT2 * s ** (j + k)
    return total


def test_v_aggregate_hand_value():
    # n = 2: b + (b + 2 b^2) = 0.5 + 0.5 + 2 * 0.25 = 1.25
    assert mc.v_aggregate(0.5, 2) == pytest.approx(1.25, rel=1e-15)
    assert mc.v_aggregate(0.0, 9) == 0.0
    assert mc.v_aggregate(0.3, 1) == pytest.approx(0.3, rel=1e-15)


def test_u_aggregate_hand_value():
    # n = 2: (b + b^2) + 4 sqrt(2) sqrt(b)^3 = 0.75 + 2 = 2.75 at b = 0.5.
    assert mc.u_aggregate(0.5, 2) == pytest.approx(2.75, rel=1e-14)
    assert mc.u_aggregate(0.0, 9) == 0.0
    assert mc.u_aggregate(0.3, 1) == pytest.approx(0.3, rel=1e-15)


@pytest.mark.parametrize("b", [0.0, 0.1, 0.5, 0.9, 0.99, 0.999999])
@pytest.mark.parametrize("n", [1, 2, 7, 50, 200])
def test_aggregates_match_double_loop(b, n):
    assert mc.v_aggregate(b, n) == pytest.approx(v_reference(b, n), rel=1e-12, abs=1e-15)
    assert mc.u_aggregate(b, n) == pytest.approx(u_reference(b, n), rel=1e-12, abs=1e-15)


def test_aggregates_large_n_limits():
    # For n far beyond the mixing scale both aggregates sit at their series
    # limits; this checks large windows against independently summed
    # geometric series.
    b = 0.5
    s = math.sqrt(b)
    v_limit = b * (1.0 + b) / (1.0 - b) ** 2
    u_limit = b / (1.0 - b) + 4.0 * SQRT2 * s**3 / ((1.0 - s) * (1.0 - s * s))
    assert mc.v_aggregate(b, 3_000_000) == pytest.approx(v_limit, rel=1e-12)
    assert mc.u_aggregate(b, 3_000_000) == pytest.approx(u_limit, rel=1e-12)


@given(
    st.floats(min_value=0.0, max_value=0.995),
    st.integers(min_value=1, max_value=3000),
)
@settings(max_examples=60)
def test_aggregate_caps(b, n):
    slack = 1.0 + 1e-12
    assert mc.v_aggregate(b, n) <= 2.0 / (1.0 - b) ** 2 * slack
    s = math.sqrt(b)
    assert mc.u_aggregate(b, n) <= 4.0 * SQRT2 / ((1.0 - b) * (1.0 - s)) * slack


@pytest.mark.parametrize("n", [1, 2, 7, 2**53])
def test_window_sums_finite_at_the_largest_rate(n):
    # b = 1 - 2**-52 with the largest window admitted: nothing overflows.
    b = 1.0 - 2.0**-52
    for value in (
        mc.w_factor(n, b),
        mc.worst_case_mse(n, b),
        mc.v_aggregate(b, n),
        mc.u_aggregate(b, n),
    ):
        assert math.isfinite(value) and value > 0.0, (n, value)


def test_aggregate_argument_validation():
    with pytest.raises(ValueError):
        mc.v_aggregate(1.0, 5)
    with pytest.raises(ValueError):
        mc.v_aggregate(-0.1, 5)
    with pytest.raises(ValueError):
        mc.u_aggregate(0.5, 0)


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

def test_bound_constants_two_state(two_state):
    nu = np.array([1.0, 0.0])
    rep = mc.bound_general_start(two_state, nu, [1.0, 0.0], mc.EstimatorSpec(n=3, n0=0), "l2")
    assert rep.constants.C_pi == pytest.approx(3.0, rel=1e-13)
    assert rep.constants.C_density == pytest.approx(1.0, rel=1e-13)
    assert rep.constants.beta1 == pytest.approx(0.1, abs=1e-12)
    assert rep.constants.beta == pytest.approx(0.1, abs=1e-12)


def test_theorem_bound_formula_l2(two_state):
    # Hand evaluation of the closed form on the two-state chain.
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    n, n0 = 10, 4
    rep = mc.bound_theorem(two_state, nu, f, mc.EstimatorSpec(n=n, n0=n0), "l2")
    norm_sq = 2.0 / 3.0  # ||f||_2^2, uncentered
    beta = 0.1
    lead = 2.0 * norm_sq / (n * (1.0 - beta))
    corr = 2.0 * math.sqrt(3.0) * math.sqrt(1.0) * beta**n0 * norm_sq / (
        n**2 * (1.0 - beta) ** 2
    )
    assert rep.leading_term == pytest.approx(lead, rel=1e-12)
    assert rep.correction_term == pytest.approx(corr, rel=1e-12)
    assert rep.total == pytest.approx(lead + corr, rel=1e-13)


def test_theorem_bound_formula_l4_linf(two_state):
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    n, n0 = 6, 2
    beta = 0.1
    rep4 = mc.bound_theorem(two_state, nu, f, mc.EstimatorSpec(n=n, n0=n0), "l4")
    n4_sq = math.sqrt(2.0 / 3.0)  # ||f||_4^2 = sqrt(E f^4) = sqrt(2/3)
    assert rep4.leading_term == pytest.approx(2.0 * n4_sq / (n * 0.9), rel=1e-12)
    assert rep4.correction_term == pytest.approx(
        16.0 * SQRT2 * beta**n0 * n4_sq / (n**2 * (1.0 - beta) * (1.0 - math.sqrt(beta))),
        rel=1e-12,
    )

    repi = mc.bound_theorem(two_state, nu, f, mc.EstimatorSpec(n=n, n0=n0), "linf")
    assert repi.leading_term == pytest.approx(2.0 / (n * 0.9), rel=1e-12)
    assert repi.correction_term == pytest.approx(
        4.0 * beta**n0 / (n**2 * 0.9**2), rel=1e-12
    )


@pytest.mark.parametrize("beta", [0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-8])
def test_one_minus_root_against_50_digits(beta):
    # 1 - sqrt(beta) cancels as beta -> 1 (8.6e-9 relative at 1 - 1e-8);
    # the l4 closed form and the b4 planner share the stable form.
    with mpmath.workdps(50):
        exact = 1 - mpmath.sqrt(mpmath.mpf(beta))
        assert abs(mpmath.mpf(_one_minus_root(beta)) / exact - 1) <= 1e-15


def test_general_bound_stationary_start_is_exact():
    # With an exactly representable pi the density constant is exactly zero
    # and the bound collapses to the exact stationary MSE.
    chain = mc.build_chain([[0.7, 0.3], [0.3, 0.7]], pi=[0.5, 0.5])
    f = np.array([2.0, -1.0])
    spec = mc.EstimatorSpec(n=5, n0=0)
    for kind in mc.NORM_KINDS:
        rep = mc.bound_general_start(chain, chain.pi, f, spec, kind)
        assert rep.correction_term == 0.0
        assert rep.total == mc.stationary_error(chain, f, 5)


def test_general_bound_stationary_start_recovered_pi(bd3):
    # A least-squares-recovered pi carries last-ulp noise, so the density
    # constant is ~1e-16 rather than zero; the correction must stay
    # negligible against the leading term.
    f = np.array([2.0, -1.0, 0.0])
    spec = mc.EstimatorSpec(n=5, n0=0)
    for kind in mc.NORM_KINDS:
        rep = mc.bound_general_start(bd3, bd3.pi, f, spec, kind)
        assert rep.correction_term <= 1e-6 * rep.total
        assert rep.total == pytest.approx(mc.stationary_error(bd3, f, 5), rel=1e-6)


def test_general_bound_leading_term_is_exact_stationary(two_state):
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    for n in (1, 4, 20):
        rep = mc.bound_general_start(two_state, nu, f, mc.EstimatorSpec(n=n, n0=0), "l2")
        assert rep.leading_term == pytest.approx(
            mc.stationary_error(two_state, f, n), rel=1e-13
        )


def test_theorem_dominates_general(suite):
    spec_grid = [mc.EstimatorSpec(n=n, n0=n0) for (n, n0) in [(1, 0), (4, 2), (10, 5)]]
    for name, chain in suite.items():
        for nu in standard_starts(chain):
            f = np.arange(chain.size, dtype=float)
            if chain.size == 1:
                continue
            for spec in spec_grid:
                for kind in mc.NORM_KINDS:
                    gen = mc.bound_general_start(chain, nu, f, spec, kind)
                    thm = mc.bound_theorem(chain, nu, f, spec, kind)
                    assert gen.total <= thm.total * (1.0 + 1e-12), (name, kind, spec)


@pytest.mark.parametrize("n0", [0, 7, 2**53])
def test_bounds_at_the_largest_window(suite, n0):
    # n = 2**53, the largest window admitted: every value is a number, and
    # truth <= sharp bound <= closed form.
    spec = mc.EstimatorSpec(n=2**53, n0=n0)
    for name, chain in suite.items():
        nu = np.eye(chain.size)[0]
        f = np.arange(chain.size, dtype=float)
        truth = mc.exact_error(chain, nu, f, spec).mse
        assert math.isfinite(truth) and truth > 0.0, name
        for kind in mc.NORM_KINDS:
            gen = mc.bound_general_start(chain, nu, f, spec, kind).total
            thm = mc.bound_theorem(chain, nu, f, spec, kind).total
            assert math.isfinite(gen) and math.isfinite(thm), (name, kind)
            assert truth <= gen <= thm, (name, kind, truth, gen, thm)


def test_bounds_dominate_truth_small_grid(bd3):
    f = np.array([0.0, 1.0, 3.0])
    for nu in standard_starts(bd3):
        for (n, n0) in [(1, 0), (2, 1), (4, 0), (6, 3)]:
            spec = mc.EstimatorSpec(n=n, n0=n0)
            truth = mc.exact_error(bd3, nu, f, spec).mse
            for kind in mc.NORM_KINDS:
                gen = mc.bound_general_start(bd3, nu, f, spec, kind)
                assert truth <= gen.total * (1.0 + 1e-12)


@given(
    reversible_chains(max_states=5),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=30)
def test_bounds_monotone_in_burnin(chain, n, n0):
    nu = np.eye(chain.size)[0]
    f = np.arange(chain.size, dtype=float)
    for kind in mc.NORM_KINDS:
        a = mc.bound_general_start(chain, nu, f, mc.EstimatorSpec(n=n, n0=n0), kind)
        b = mc.bound_general_start(chain, nu, f, mc.EstimatorSpec(n=n, n0=n0 + 1), kind)
        assert b.total <= a.total * (1.0 + 1e-12)


def test_invalid_norm_kind(two_state):
    with pytest.raises(ValueError):
        mc.bound_theorem(
            two_state, [1.0, 0.0], [1.0, 0.0], mc.EstimatorSpec(n=1, n0=0), "l3"
        )


@pytest.mark.parametrize("kind", mc.NORM_KINDS)
@pytest.mark.parametrize("chain_name, at_pi", [("birth_death_six", False), ("ring_five_lazy", True)])
def test_bounds_of_a_huge_function_are_inf_on_every_route(suite, kind, chain_name, at_pi):
    # ||f||_inf is near 5e160: its square overflows on all six routes, and
    # each returns inf, which is still an upper bound, instead of raising,
    # and without a floating-point warning.  Started at pi (C_density = 0,
    # exact on the ring) the penalty is 0, not 0 * inf = nan.
    chain = suite[chain_name]
    d = chain.pi.size
    nu = chain.pi if at_pi else np.eye(d)[0]
    f = 1e160 * np.arange(float(d))
    spec = mc.EstimatorSpec(n=100, n0=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (mc.bound_theorem, mc.bound_general_start):
            report = route(chain, nu, f, spec, kind)
            assert math.isinf(report.total) and report.total > 0.0, (route, kind)
            if at_pi:
                assert report.constants.C_density == 0.0
                assert report.correction_term == 0.0, (route, kind)


def test_sup_norm_bound_squares_as_before_below_overflow(suite):
    # Just below the overflow the closed-form sup-norm route still takes
    # the Python float square of ||f||_inf.
    chain = suite["birth_death_six"]
    sup = 1e154
    f = sup / 5.0 * np.arange(6.0)
    report = mc.bound_theorem(chain, np.eye(6)[0], f, mc.EstimatorSpec(n=100, n0=5), "linf")
    beta1 = report.constants.beta1
    assert report.leading_term == 2.0 * sup**2 / (100.0 * (1.0 - beta1))
