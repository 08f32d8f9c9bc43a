"""Budget-split planning: closed-form suggestion, exact search, half split."""

import hashlib
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcmc_certify as mc
from mcmc_certify import cli
from mcmc_certify import burnin
from mcmc_certify.burnin import (
    _EXP_OVERFLOW,
    _FIXED_BITS,
    _LOG2_FIXED,
    _LOG_FLOOR,
    _LOG_TABLE,
    _budget_grid,
    _log_fixed,
    _log_k,
    _squared_bounds,
)

_SCAN_CHUNK = 4_000_000
# array_optimize_burnin's golden-section search stops at a bracket of
# _BRACKET splits, and its exact window adds _MARGIN splits on each side.
_BRACKET = 128
_MARGIN = 64
_GOLDEN_CUT = (3.0 - math.sqrt(5.0)) / 2.0  # 1 - 1/phi


def bound_terms(n, n0, beta, C, kind):
    """The leading term and the log of the correction term, before any clamp,
    each step into a fresh array."""
    lead = 2.0 / (n * (1.0 - beta))
    if beta > 0.0:
        damp = np.maximum(n0 * math.log(beta), _LOG_FLOOR)
    else:
        damp = np.where(n0 == 0, 0.0, _LOG_FLOOR)
    return lead, math.log(C) + damp + _log_k(beta, kind) - 2 * np.log(n)


def allocating_squared_bounds(n, n0, beta, C, kind):
    """Oracle: ``_squared_bounds`` with every step into a fresh array."""
    lead, log_corr = bound_terms(n, n0, beta, C, kind)
    corr = np.where(
        log_corr > _EXP_OVERFLOW,
        np.inf,
        np.exp(np.minimum(log_corr, _EXP_OVERFLOW)),
    )
    return lead + corr


def scan_optimize_burnin(query, kind):
    """Oracle: the exhaustive O(N) scan over every split, in chunks.

    Ties resolve to the smallest burn-in; when every split is ``inf`` the
    answer is ``n0 = 0``.
    """
    best_sq = math.inf
    best_n0 = 0
    for start in range(0, query.N, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, query.N)
        n0s = np.arange(start, stop, dtype=np.int64)
        sq = _squared_bounds((query.N - n0s).astype(np.float64), n0s, query.beta, query.C, kind)
        i = int(np.argmin(sq))
        if sq[i] < best_sq:
            best_sq = float(sq[i])
            best_n0 = start + i
    return mc.BurninPlan(
        n0=best_n0,
        n=query.N - best_n0,
        bound_value=math.sqrt(best_sq),
        strategy="optimized",
    )


def array_optimize_burnin(query, kind):
    """Oracle: a golden-section search (Kiefer, Proc. AMS 4, 1953) on numpy arrays.

    Each round keeps the better probe p and cuts p's longer side at the
    golden ratio with a probe q, evaluates both through ``bound_terms`` and
    compares ``np.logaddexp(np.log(lead), log_corr)``, a finite surrogate of
    the squared bound, until the bracket holds ``_BRACKET`` splits.  The
    squared bounds are then scanned on the bracket widened by ``_MARGIN``
    splits a side, ties to the smallest burn-in.  O(log N) work, and the
    full scan's answer while the rounding ties fit that window.
    """
    N, beta, C = query.N, query.beta, query.C
    lo, hi = 0, N - 1
    p = round((1.0 - _GOLDEN_CUT) * hi)
    while hi - lo > _BRACKET:
        if p - lo > hi - p:
            q = p - int(_GOLDEN_CUT * (p - lo))
        else:
            q = p + int(_GOLDEN_CUT * (hi - p))
        probe = np.array(sorted((p, q)), dtype=np.int64)
        lead, log_corr = bound_terms((N - probe).astype(np.float64), probe, beta, C, kind)
        left, right = np.logaddexp(np.log(lead), log_corr)
        if left <= right:
            hi, p = int(probe[1]), int(probe[0])
        else:
            lo, p = int(probe[0]), int(probe[1])
    start = max(lo - _MARGIN, 0)
    n0s = np.arange(start, min(hi + _MARGIN, N - 1) + 1, dtype=np.int64)
    sq = _squared_bounds((N - n0s).astype(np.float64), n0s, beta, C, kind)
    i = int(np.argmin(sq))
    best_n0 = start + i if math.isfinite(sq[i]) else 0
    return best_n0, math.sqrt(float(sq[i]))


def assert_matches_scan(query, kind):
    """Same split and a bit-equal bound as the exhaustive scan."""
    got = mc.optimize_burnin(query, kind)
    want = scan_optimize_burnin(query, kind)
    assert got == want, (query, kind)
    return got


def bound_reference(N, n0, beta, C, kind):
    """Direct (non-log-space) evaluation of the squared bound, then sqrt."""
    n = N - n0
    lead = 2.0 / (n * (1.0 - beta))
    if kind == "binf":
        corr = 2.0 * C * beta**n0 / (n**2 * (1.0 - beta) ** 2)
    else:
        corr = C * beta**n0 / (n**2 * (1.0 - beta) * (1.0 - math.sqrt(beta)))
    return math.sqrt(lead + corr)


def test_query_validation():
    with pytest.raises(ValueError):
        mc.BudgetQuery(N=1, beta=0.5, C=10.0)
    with pytest.raises(ValueError):
        mc.BudgetQuery(N=100, beta=1.0, C=10.0)
    with pytest.raises(ValueError):
        mc.BudgetQuery(N=100, beta=-0.1, C=10.0)
    with pytest.raises(ValueError):
        mc.BudgetQuery(N=100, beta=0.5, C=0.0)
    with pytest.raises(ValueError):
        mc.BudgetQuery(N=100, beta=0.5, C=float("inf"))
    for C in (10**400, 10**5000):
        with pytest.raises(ValueError, match="positive finite") as err:
            mc.BudgetQuery(N=10, beta=0.5, C=C)
        assert len(str(err.value)) < 120
    # Every field is checked for its type too, so the planners need not
    # check again: a bool is not a number, and a string is no beta.
    for beta in ("0.5", None, False, True):
        with pytest.raises(ValueError, match="beta must lie in"):
            mc.BudgetQuery(N=100, beta=beta, C=10.0)
    for C in (True, "10", None):
        with pytest.raises(ValueError, match="positive finite"):
            mc.BudgetQuery(N=100, beta=0.5, C=C)
    with pytest.raises(ValueError, match="budget N"):
        mc.BudgetQuery(N=True, beta=0.5, C=10.0)
    query = mc.BudgetQuery(N=100, beta=0.5, C=10.0)
    for n, n0 in ((True, 0), (10, False), (10.0, 0)):
        with pytest.raises(ValueError, match="must be an integer"):
            mc.bound_function(query, n, n0, "b4")


@pytest.mark.parametrize(
    "planner",
    [
        mc.optimize_burnin,
        mc.suggested_plan,
        mc.half_budget_plan,
        lambda query, kind: mc.bound_function(query, 10, 0, kind),
        lambda query, kind: mc.figure_series(query, (), kind),
    ],
    ids=["optimize_burnin", "suggested_plan", "half_budget_plan", "bound_function",
         "figure_series"],
)
@pytest.mark.parametrize("kind", ["b2", "BINF", None])
def test_every_public_planner_refuses_an_unknown_kind(planner, kind):
    with pytest.raises(ValueError, match="kind must be one of"):
        planner(mc.BudgetQuery(N=100, beta=0.5, C=10.0), kind)


def test_query_budget_capped_at_float64_integers():
    assert mc.BudgetQuery(N=2**53, beta=0.5, C=10.0).N == 2**53
    for N in (2**53 + 1, 10**20, 10**5000):
        with pytest.raises(ValueError, match="2\\*\\*53") as err:
            mc.BudgetQuery(N=N, beta=0.5, C=10.0)
        assert len(str(err.value)) < 120


@pytest.mark.parametrize("kind", mc.BOUND_KINDS)
def test_bound_function_matches_direct_formula(kind):
    query = mc.BudgetQuery(N=1024, beta=0.5, C=10.0)
    for n0 in (0, 3, 512, 1000):
        got = mc.bound_function(query, query.N - n0, n0, kind)
        want = bound_reference(query.N, n0, query.beta, query.C, kind)
        assert got == pytest.approx(want, rel=1e-12), (kind, n0)


def test_bound_function_deep_burnin_does_not_underflow_to_garbage():
    # beta^n0 underflows float64 well before n0 = 10^6; the bound must hit
    # the leading term instead of raising or returning nan.
    query = mc.BudgetQuery(N=2_000_000, beta=0.5, C=1e30)
    n0 = 1_500_000
    got = mc.bound_function(query, query.N - n0, n0, "binf")
    lead = math.sqrt(2.0 / ((query.N - n0) * 0.5))
    assert math.isfinite(got)
    assert got == pytest.approx(lead, rel=1e-12)


def test_bound_function_huge_constant_overflows_to_inf():
    query = mc.BudgetQuery(N=10, beta=0.5, C=1e300)
    v = mc.bound_function(query, 9, 0, "binf") ** 2
    # correction dominates: 2e300 / (81 * 0.25) ~ 9.88e298, still finite
    assert v == pytest.approx(2.0 * 1e300 / (81 * 0.25), rel=1e-10)
    tiny = mc.BudgetQuery(N=4, beta=0.9999999, C=1e308)
    assert math.isinf(mc.bound_function(tiny, 2, 2, "binf"))


def assert_bound_function_matches_array_route(query, n0, kind):
    """``bound_function`` is ``_squared_bounds`` on a 1-element array, bit for bit."""
    n = query.N - n0
    sq = _squared_bounds(np.array([float(n)]), np.array([n0], dtype=np.int64),
                         query.beta, query.C, kind)
    got = mc.bound_function(query, n, n0, kind)
    want = math.sqrt(float(sq[0]))
    assert got == want, (query, n0, kind, got, want)
    return got


@pytest.mark.parametrize("kind", mc.BOUND_KINDS)
@pytest.mark.parametrize(
    "N, beta, C, n0",
    [
        (1000, 0.0, 10.0, 0),               # beta = 0: no damping at n0 = 0 ...
        (1000, 0.0, 1e300, 1),              # ... and the floor from n0 = 1
        (1000, 1.0 - 1e-12, 1e30, 0),
        (2**53, 1.0 - 1e-12, 1e-5, 2**52),
        (2**53, 0.5, 10.0, 0),
        (2**53, 0.999, 1e30, 2**53 - 1),
        (2**53, 0.999, 1e30, 12345),
    ],
)
def test_bound_function_matches_array_route_at_the_edges(N, beta, C, n0, kind):
    assert_bound_function_matches_array_route(mc.BudgetQuery(N=N, beta=beta, C=C), n0, kind)


@pytest.mark.parametrize("kind", mc.BOUND_KINDS)
def test_bound_function_matches_array_route_on_floor_and_overflow(kind):
    deep = mc.BudgetQuery(N=2_000_000, beta=0.5, C=1e30)
    assert 1_500_000 * math.log(0.5) < math.log(mc.POWER_FLOOR)
    assert math.isfinite(assert_bound_function_matches_array_route(deep, 1_500_000, kind))
    # n = 2: log C - 2 log n + log k lies above 709, so the bound is inf.
    tiny = mc.BudgetQuery(N=4, beta=0.9999999, C=1e308)
    assert math.isinf(assert_bound_function_matches_array_route(tiny, 2, kind))


def test_bound_function_takes_numpy_log_where_libm_differs():
    """libm's log and numpy's SIMD log differ by an ulp on a few n (9170 and
    19143 on AVX-512 builds); the scalar route must round as the array does."""
    n = np.arange(1.0, 200_001.0)
    differ = n[np.log(n) != np.array([math.log(x) for x in n])].astype(int)
    for window in [9170, 19143, *differ[:20]]:
        for C in (1.0, 1e3, 1e30):
            query = mc.BudgetQuery(N=int(window), beta=0.5, C=C)
            for kind in mc.BOUND_KINDS:
                assert_bound_function_matches_array_route(query, 0, kind)


def test_bound_function_matches_array_route_on_random_queries():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        N = int(min(2.0**53, 10.0 ** rng.uniform(0.31, 16.0)))
        beta = 0.0 if rng.uniform() < 0.05 else float(1.0 - 10.0 ** rng.uniform(-12.0, 0.0))
        C = float(10.0 ** rng.uniform(-5.0, 308.0))
        query = mc.BudgetQuery(N=N, beta=beta, C=C)
        n0 = int(rng.integers(0, query.N))
        for kind in mc.BOUND_KINDS:
            assert_bound_function_matches_array_route(query, n0, kind)


def test_squared_bounds_in_place_matches_fresh_arrays():
    """``_squared_bounds`` works on its result and one scratch array; it
    gives the bits of the same steps into fresh arrays, on windows that
    reach exp's overflow and the power floor, and leaves its inputs alone."""
    rng = np.random.default_rng(20261022)
    queries = [(4, 0.9999999, 1e308), (2_000_000, 0.5, 1e30), (1000, 0.0, 1e300),
               (1_000_000, 1.0 - 3e-6, sys.float_info.max)]
    for _ in range(500):
        N = int(min(2.0**53, 10.0 ** rng.uniform(0.31, 16.0)))
        beta = 0.0 if rng.uniform() < 0.05 else float(1.0 - 10.0 ** rng.uniform(-12.0, 0.0))
        queries.append((N, beta, float(10.0 ** rng.uniform(-5.0, 308.0))))
    overflowed = floored = 0
    for N, beta, C in queries:
        lo = int(rng.integers(0, N))
        n0s = np.arange(lo, min(lo + 256, N - 1) + 1, dtype=np.int64)
        n = (N - n0s).astype(np.float64)
        for kind in mc.BOUND_KINDS:
            got = _squared_bounds(n, n0s, beta, C, kind)
            assert np.array_equal(got, allocating_squared_bounds(n, n0s, beta, C, kind))
            overflowed += int(np.isinf(got).sum())
            if beta > 0.0:
                floored += int((n0s * math.log(beta) < _LOG_FLOOR).sum())
        assert np.array_equal(n, N - n0s) and n0s[0] == lo
    assert overflowed > 0 and floored > 0


# ---------------------------------------------------------------------------
# Closed-form suggestion
# ---------------------------------------------------------------------------

def test_suggested_burnin_hand_cases():
    # log(1024)/log(2) = 10 exactly: a borderline integer ratio.
    detail = mc.suggested_burnin_detail(0.5, 1024.0)
    assert detail.n0 == 10
    assert detail.ratio == pytest.approx(10.0, abs=1e-12)
    assert detail.borderline

    assert mc.suggested_burnin(0.5, 1000.0) == 10          # ratio 9.966
    assert mc.suggested_burnin(0.5, 1025.0) == 11
    assert not mc.suggested_burnin_detail(0.5, 1000.0).borderline


def test_suggested_burnin_trivial_constant():
    for C in (1.0, 0.5, 1e-10):
        detail = mc.suggested_burnin_detail(0.9, C)
        assert detail.n0 == 0
        assert not detail.borderline


def test_suggested_burnin_validation():
    with pytest.raises(ValueError):
        mc.suggested_burnin(0.0, 10.0)
    with pytest.raises(ValueError):
        mc.suggested_burnin(1.0, 10.0)
    with pytest.raises(ValueError, match="beta .* an integer of 16610 bits$"):
        mc.suggested_burnin(10**5000, 10.0)
    with pytest.raises(ValueError):
        mc.suggested_burnin(0.5, float("nan"))
    # A bool is not a number, nor is a string.
    for suggest in (mc.suggested_burnin, mc.suggested_burnin_detail):
        for beta, C in ((0.5, True), (True, 10.0), ("0.5", 10.0), (0.5, "10")):
            with pytest.raises(ValueError):
                suggest(beta, C)
    # An int beyond float64 is refused, not passed to math.isfinite.
    for suggest in (mc.suggested_burnin, mc.suggested_burnin_detail):
        for C in (10**400, 10**5000):
            with pytest.raises(ValueError, match="positive finite") as err:
                suggest(0.5, C)
            assert len(str(err.value)) < 120


@given(
    st.floats(min_value=0.01, max_value=0.999),
    st.floats(min_value=1.0, max_value=1e30, exclude_min=True),
)
@settings(max_examples=60)
def test_suggested_burnin_sandwich(beta, C):
    """n0 is the smallest integer with beta^n0 * C <= 1 (up to the ceiling)."""
    n0 = mc.suggested_burnin(beta, C)
    ratio = math.log(C) / -math.log(beta)
    assert n0 >= ratio - 1e-6
    assert n0 <= ratio + 1.0 + 1e-6


_BETAS_NEAR_ONE = (
    st.floats(min_value=-12.0, max_value=0.0)
    .map(lambda u: 1.0 - 10.0**u)
    .filter(lambda beta: beta > 0.0)
)


BORDERLINE = 1e-9


def mpmath_suggestion(beta, C):
    """50-digit reference ``(n0, ratio, borderline)``.

    On power-of-two pairs, whose ratio can be an exact integer, 50 digits
    can round to either side of it: (0.5, 128.0) gives n0 = 8, not 7.
    """
    with mpmath.workdps(50):
        ratio = mpmath.log(mpmath.mpf(C)) / -mpmath.log(mpmath.mpf(beta))
        n0 = max(int(mpmath.ceil(ratio)), 0)
        borderline = C > 1 and abs(ratio - mpmath.nint(ratio)) < mpmath.mpf(BORDERLINE)
        return n0, float(ratio), bool(borderline)


def is_power_of_two_pair(beta, C):
    return math.frexp(beta)[0] == 0.5 and C == 2.0 ** (math.frexp(C)[1] - 1)


def assert_suggestion_matches_50_digits(beta, C):
    """``suggested_burnin_detail`` equals the 50-digit reference off
    power-of-two pairs, and ``suggested_burnin`` equals its ``n0``."""
    detail = mc.suggested_burnin_detail(beta, C)
    assert mc.suggested_burnin(beta, C) == detail.n0, (beta, C)
    if not is_power_of_two_pair(beta, C):
        got = (detail.n0, detail.ratio, detail.borderline)
        assert got == mpmath_suggestion(beta, C), (beta, C)


@given(beta=_BETAS_NEAR_ONE, log10_C=st.floats(min_value=-5.0, max_value=308.0))
@settings(max_examples=300)
def test_suggested_burnin_float64_matches_50_digits(beta, log10_C):
    assert_suggestion_matches_50_digits(beta, 10.0**log10_C)


def test_suggested_burnin_exact_integer_ratios():
    # log(2^k) / log 2 = k exactly; float64 rounds the ratio either side of k.
    for k in range(1, 1024):
        assert_suggestion_matches_50_digits(0.5, 2.0**k)


def test_suggested_burnin_power_of_two_pairs():
    """beta = 2^-a, C = 2^b: n0 is the smallest integer with C beta^n0 <= 1.

    The check runs in integer exponents: b - a n0 <= 0 < b - a (n0 - 1).
    """
    for a in range(1, 65):
        for b in range(-64, 1024):
            beta, C = 2.0**-a, 2.0**b
            detail = mc.suggested_burnin_detail(beta, C)
            n0 = detail.n0
            assert n0 == max(math.ceil(b / a), 0), (a, b)
            assert detail.ratio == b / a, (a, b)
            assert detail.borderline == (b > 0 and b % a == 0), (a, b)
            assert b - a * n0 <= 0, (a, b)
            assert n0 == 0 or b - a * (n0 - 1) > 0, (a, b)
            assert mc.suggested_burnin(beta, C) == n0, (a, b)


def test_log2_constant_is_log2_rounded_down():
    with mpmath.workdps(100):
        exact = mpmath.log(2) * mpmath.mpf(2) ** _FIXED_BITS
        assert _LOG2_FIXED == int(mpmath.floor(exact))


def log_units(x):
    """60-digit ``log x`` in units of ``2^-_FIXED_BITS``."""
    with mpmath.workdps(60):
        return mpmath.log(mpmath.mpf(x)) * mpmath.mpf(2) ** _FIXED_BITS


def test_log_table_entries_match_60_digits():
    """log(1 + j/64) for the 47 j that a mantissa within 2^(+-1/2) of 1
    rounds to; each entry is one atanh series, a few units off at most."""
    assert sorted(_LOG_TABLE) == list(range(-19, 28))
    for j, entry in _LOG_TABLE.items():
        assert abs(entry - log_units(mpmath.mpf(64 + j) / 64)) < 2**8, j
    assert _LOG_TABLE[0] == 0


def test_log_fixed_is_exact_on_powers_of_two():
    for e in range(-1074, 1024):
        assert _log_fixed(2.0**e) == e * _LOG2_FIXED, e
    for e in range(0, 1024, 7):
        assert _log_fixed(2**e) == e * _LOG2_FIXED, e


def _reduction_edges():
    """The floats either side of every edge of _log_fixed's reduction:
    where round(64 m) moves to the next j, and where round(log2 x) moves to
    the next exponent, at m = 2^(+-1/2)."""
    for j in range(-19, 28):
        for half in (-0.5, 0.5):
            edge = 1.0 + (j + half) / 64.0
            yield from (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0))
    for root in (math.sqrt(0.5), math.sqrt(2.0)):
        yield from (math.nextafter(root, 0.0), root, math.nextafter(root, 2.0))


def test_log_fixed_matches_60_digits():
    """Within 2^22 units of 2^-192 (2^-170) over the whole float range: random
    floats, both sides of every reduction edge scaled by random powers of
    two, subnormals and the largest float."""
    rng = np.random.default_rng(20261021)
    xs = [float(2.0 ** rng.uniform(-1074.0, 1024.0)) for _ in range(1500)]
    xs += [float(x) for x in rng.uniform(0.5, 2.0, 300)]
    for m in _reduction_edges():
        for e in (0, -1074 + 60, 1023 - 1, *rng.integers(-1000, 1000, 3)):
            xs.append(math.ldexp(m, int(e)))
    tiny = 5e-324
    xs += [tiny, 2 * tiny, 3 * tiny, 2.0**-1022 - tiny, 2.0**-1030 * 1.7, sys.float_info.max]
    xs += [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), int(rng.integers(2, 2**62))]
    for x in xs:
        if 0.0 < x < math.inf:
            assert abs(_log_fixed(x) - log_units(x)) < 2**22, x


def test_suggested_burnin_matches_50_digits_over_the_whole_range():
    """Seeded (beta, C) from the smallest subnormal to within 1 ulp of 1 and
    of float64's largest value, int C included, plus C = beta^-k and its
    float neighbours."""
    rng = np.random.default_rng(20240801)
    for _ in range(1500):
        if rng.uniform() < 0.5:
            beta = float(1.0 - 2.0 ** -rng.uniform(0.0, 53.0))
        else:
            beta = float(2.0 ** -rng.uniform(0.0, 1074.0))
        if not 0.0 < beta < 1.0:
            continue
        C = float(2.0 ** rng.uniform(-1074.0, 1024.0))
        if 0.0 < C < math.inf:
            assert_suggestion_matches_50_digits(beta, C)
        assert_suggestion_matches_50_digits(beta, int(rng.integers(2, 2**62)))
        k_max = int(700.0 / -math.log(beta))
        if k_max >= 1:
            near = beta ** -int(rng.integers(1, k_max + 1))
            for C in (math.nextafter(near, 0.0), near, math.nextafter(near, math.inf)):
                assert_suggestion_matches_50_digits(beta, C)


@given(
    beta=_BETAS_NEAR_ONE,
    t=st.floats(min_value=0.0, max_value=1.0),
    step=st.sampled_from([-1.0, 0.0, 1.0]),
)
@settings(max_examples=300)
def test_suggested_burnin_near_integer_ratios(beta, t, step):
    """C = beta^-k and its float neighbours put the ratio within ulps of k."""
    k = max(1, int(t * 700.0 / -math.log(beta)))
    C = beta**-k
    if step:
        C = math.nextafter(C, step * math.inf)
    assert_suggestion_matches_50_digits(beta, C)


@given(
    beta=st.floats(min_value=0.01, max_value=0.99),
    log10_k=st.floats(min_value=0.0, max_value=3.0),
    offset=st.sampled_from([-1.0, 1.0]),
    log10_gap=st.floats(min_value=-6.0, max_value=-0.5),
    inside=st.booleans(),
)
@settings(max_examples=300)
def test_borderline_flag_at_the_band_edge(beta, log10_k, offset, log10_gap, inside):
    """Ratios k +- 1e-9 (1 -+ gap): just inside or just outside the band,
    where the integer ``borderline`` test must agree with the 50-digit one.

    beta stays away from 1, where C's own rounding would move the ratio by
    more than the gap.
    """
    k = min(round(10.0**log10_k), int(700.0 / -math.log(beta)))
    edge = BORDERLINE * (1.0 - 10.0**log10_gap if inside else 1.0 + 10.0**log10_gap)
    assert_suggestion_matches_50_digits(beta, math.exp((k + offset * edge) * -math.log(beta)))


# ---------------------------------------------------------------------------
# Exact optimization and the published splits
# ---------------------------------------------------------------------------

def test_optimize_matches_exhaustive_reference():
    query = mc.BudgetQuery(N=500, beta=0.9, C=1e6)
    for kind in mc.BOUND_KINDS:
        values = [
            bound_reference(query.N, n0, query.beta, query.C, kind)
            for n0 in range(query.N)
        ]
        best = int(np.argmin(values))
        plan = mc.optimize_burnin(query, kind)
        assert plan.n0 == best
        assert plan.n == query.N - best
        assert plan.bound_value == pytest.approx(values[best], rel=1e-12)
        assert plan.strategy == "optimized"


def test_optimize_bit_identical_to_bound_function():
    """Every planner's bound_value is bound_function's at its split, bit for bit."""
    rng = np.random.default_rng(20261020)
    queries = [mc.BudgetQuery(N=10_000, beta=0.99, C=1e30), mc.BudgetQuery(N=50, beta=0.0, C=1e30)]
    for _ in range(200):
        N = int(min(2.0**53, 10.0 ** rng.uniform(0.31, 16.0)))
        beta = float(1.0 - 10.0 ** rng.uniform(-12.0, 0.0))
        queries.append(mc.BudgetQuery(N=N, beta=beta, C=float(10.0 ** rng.uniform(-5.0, 308.0))))
    for planner in (mc.optimize_burnin, mc.suggested_plan, mc.half_budget_plan):
        checked = 0
        for query in queries:
            for kind in mc.BOUND_KINDS:
                try:
                    plan = planner(query, kind)
                except ValueError:  # suggested_plan: the suggestion fills the budget
                    continue
                assert plan.bound_value == mc.bound_function(query, plan.n, plan.n0, kind)
                checked += 1
        assert checked >= 150, planner


def test_optimize_ties_resolve_to_smaller_burnin():
    # With C <= 1 the correction is maximal at n0 = 0 yet still tiny; the
    # minimum is flat only in degenerate setups, so craft one: beta = 0
    # makes every n0 > 0 strictly worse (smaller n), hence n0 = 0.
    plan = mc.optimize_burnin(mc.BudgetQuery(N=100, beta=0.0, C=1.0), "binf")
    assert plan.n0 == 0


def test_published_splits_reproduced():
    # Optimal burn-in for C = 10^30 at the published budget/rate pairs.
    expected = {
        (10_000, 0.9): 656,
        (100_000, 0.9): 656,
        (10_000, 0.99): 6867,
        (100_000, 0.99): 6873,
        (10_000, 0.999): 8001,
        (100_000, 0.999): 68977,
    }
    for (N, beta), n0_opt in expected.items():
        query = mc.BudgetQuery(N=N, beta=beta, C=1e30)
        for kind in mc.BOUND_KINDS:
            assert mc.optimize_burnin(query, kind).n0 == n0_opt, (N, beta, kind)


_BETAS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-12.0, max_value=0.0).map(lambda u: 1.0 - 10.0**u),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)


@given(
    N=st.integers(min_value=2, max_value=200_000),
    beta=_BETAS,
    log10_C=st.floats(min_value=-5.0, max_value=308.0),
)
@settings(max_examples=150)
def test_optimize_matches_scan_oracle(N, beta, log10_C):
    query = mc.BudgetQuery(N=N, beta=beta, C=10.0**log10_C)
    for kind in mc.BOUND_KINDS:
        assert_matches_scan(query, kind)


class _CountingMath:
    """Stands in for ``burnin``'s ``math`` and counts its ``log`` calls."""

    def __init__(self):
        self.logs = 0

    def log(self, x):
        self.logs += 1
        return math.log(x)

    def __getattr__(self, name):
        return getattr(math, name)


@pytest.mark.parametrize("kind", mc.BOUND_KINDS)
@pytest.mark.parametrize("N", [10**3, 10**6, 10**9, 2**53])
def test_optimize_evaluation_count(N, kind, monkeypatch):
    """At most 8 Newton steps to the stationary point, from either start.

    Each step evaluates the stationary equation once, with one log, and the
    logs before the loop do not depend on N.  At N = 2**53 and beta = 0.5,
    u starts at Q ~ 6e15, whose residual (about 2/Q) is under a split, so
    that query takes one step; the difference in logs counts the steps
    after the first.
    """
    counter = _CountingMath()
    monkeypatch.setattr(burnin, "math", counter)

    def logs(n, beta, C):
        counter.logs = 0
        mc.optimize_burnin(mc.BudgetQuery(N=n, beta=beta, C=C), kind)
        return counter.logs

    one_step = logs(2**53, 0.5, 1.0)
    for beta, C in [(0.999, 1e30), (0.5, 1e-5), (1.0 - 1e-12, sys.float_info.max)]:
        steps = 1 + logs(N, beta, C) - one_step
        assert 1 <= steps <= 8, (N, beta, C, steps)


@given(
    log10_N=st.floats(min_value=math.log10(2.0), max_value=7.0),
    beta=_BETAS,
    log10_C=st.floats(min_value=-5.0, max_value=308.0),
)
@settings(max_examples=300)
def test_optimize_matches_array_search_oracle(log10_N, beta, log10_C):
    """Up to N = 1e7 the window holds the rounding ties, and the plan is the
    golden-section search's, bit for bit."""
    query = mc.BudgetQuery(N=max(2, int(10.0**log10_N)), beta=beta, C=10.0**log10_C)
    for kind in mc.BOUND_KINDS:
        plan = mc.optimize_burnin(query, kind)
        assert (plan.n0, plan.bound_value) == array_optimize_burnin(query, kind), (query, kind)


def test_optimize_window_is_centred_on_the_argmin(monkeypatch):
    """The stationary point lands within one split of the integer argmin,
    so an unclamped window reaches ``_HALF_WINDOW`` splits past it on both
    sides (N up to 1e7, where the rounding ties are narrow)."""
    windows = []

    def spy(n, n0s, *args):
        windows.append(n0s)
        return _squared_bounds(n, n0s, *args)

    monkeypatch.setattr(burnin, "_squared_bounds", spy)
    rng = np.random.default_rng(20261019)
    centred = 0
    for _ in range(1000):
        N = int(10.0 ** rng.uniform(3.0, 7.0))
        beta = float(1.0 - 10.0 ** rng.uniform(-6.0, -0.01))
        query = mc.BudgetQuery(N=N, beta=beta, C=float(10.0 ** rng.uniform(-5.0, 300.0)))
        for kind in mc.BOUND_KINDS:
            plan = mc.optimize_burnin(query, kind)
            window = windows[-1]
            if plan.n0 > 0 and 0 < window[0] and window[-1] < N - 1:
                assert abs(plan.n0 - int(window[burnin._HALF_WINDOW])) <= 1, (query, kind)
                centred += 1
    assert centred > 1000


def neighbourhood_minimum(query, n0, kind, span):
    n0s = np.arange(max(0, n0 - span), min(query.N - 1, n0 + span) + 1, dtype=np.int64)
    sq = _squared_bounds((query.N - n0s).astype(np.float64), n0s, query.beta, query.C, kind)
    return math.sqrt(float(sq.min()))


@given(
    log10_N=st.floats(min_value=7.0, max_value=53 * math.log10(2.0)),
    beta=_BETAS,
    log10_C=st.floats(min_value=-5.0, max_value=308.0),
)
@settings(max_examples=150)
@example(log10_N=12.60508278167793, beta=0.9999999999937673, log10_C=224.5415477860729)
def test_optimize_beyond_1e7_is_within_rounding_of_the_minimum(log10_N, beta, log10_C):
    """Beyond N = 1e7 the rounding ties can outgrow the window, and the plan
    may pick another split in the flat band.  Its bound is within 2e-15
    relative of the minimum over 2e4 splits either side of it and of the
    golden-section search's split, plus the rounding of the log-space
    correction, whose terms reach |log C| + n0 |log beta|: in the example,
    C = 3.5e224 quantizes the bound in steps of 2.8e-14, and the plan and
    the search both land one step above that minimum.  (The plan is not
    always at or below the search's bound: on 1 of 1500 random queries,
    for both kinds, it came out 3 ulp above it, at a split 15,273 away.)"""
    query = mc.BudgetQuery(N=min(2**53, int(10.0**log10_N)), beta=beta, C=10.0**log10_C)
    lb = -math.log(beta) if beta > 0.0 else 0.0
    for kind in mc.BOUND_KINDS:
        plan = mc.optimize_burnin(query, kind)
        search_n0, _ = array_optimize_burnin(query, kind)
        best = min(
            neighbourhood_minimum(query, plan.n0, kind, 20_000),
            neighbourhood_minimum(query, search_n0, kind, 20_000),
        )
        quantum = 2.0**-52 * (abs(math.log(query.C)) + plan.n0 * lb)
        assert plan.bound_value <= best * (1.0 + 2e-15 + quantum), (query, kind)


@pytest.mark.parametrize("kind", mc.BOUND_KINDS)
@pytest.mark.parametrize(
    "N, beta, C",
    [
        (4, 0.9999999, 1e308),
        # The log correction is smallest near n0 = 2000, far from n0 = 0.
        (100_000, 0.9999796, sys.float_info.max),
        (1_000_000, 1.0 - 1e-6, sys.float_info.max),
    ],
)
def test_optimize_all_splits_inf_gives_no_burnin(N, beta, C, kind):
    plan = assert_matches_scan(mc.BudgetQuery(N=N, beta=beta, C=C), kind)
    assert plan.n0 == 0 and math.isinf(plan.bound_value)


@pytest.mark.parametrize("kind", mc.BOUND_KINDS)
def test_optimize_inf_at_both_ends_finds_finite_middle(kind):
    # Needs C above 1e308: below it, an inf at n0 = 0 spreads to every split.
    # 1 - beta = 2.091 / N leaves a finite band around n0 = N / 23.
    for N in (10_000, 200_000, 1_000_000):
        query = mc.BudgetQuery(N=N, beta=1.0 - 2.091 / N, C=sys.float_info.max)
        n0s = np.array([0, N // 23, N - 1], dtype=np.int64)
        ends = _squared_bounds((N - n0s).astype(np.float64), n0s, query.beta, query.C, kind)
        assert math.isinf(ends[0]) and math.isfinite(ends[1]) and math.isinf(ends[2]), N
        plan = assert_matches_scan(query, kind)
        assert math.isfinite(plan.bound_value), N


@pytest.mark.parametrize("kind", mc.BOUND_KINDS)
@pytest.mark.parametrize(
    "N, beta, C",
    [
        (100_000, 0.0, 1e30),       # beta = 0: the correction drops at n0 = 1
        (3, 0.0, 1e30),
        (2, 0.5, 10.0),
        (3, 0.9, 1e-5),
        (2_000_000, 0.5, 1e30),     # beta^n0 sits on its floor for n0 > 1063
        (400_000, 1.0 - 1e-5, 1e300),  # Q < 0: the optimum is near n = 2/|log beta|
        (1_000_000, 0.5, 1e308),    # the window straddles the floor at 1063
        (10_000_000, 0.3, 1e200),
        (300_000, 1e-300, sys.float_info.max),  # on the floor from n0 = 1
        (1_000_000, 1.0 - 3e-6, sys.float_info.max),  # inf at the n = 1 end
        (10_000_000, 1.0 - 1e-7, 1.2),  # beta -> 1, interior optimum
        (10_000_000, 1.0 - 1e-12, 1e30),
        (5_000_000, 1.0 - 1e-6, 1e10),
        (3_000_000, 0.9999, 1e-5),
    ],
)
def test_optimize_edge_cases_match_scan(N, beta, C, kind):
    assert_matches_scan(mc.BudgetQuery(N=N, beta=beta, C=C), kind)


@pytest.mark.parametrize("kind", mc.BOUND_KINDS)
@pytest.mark.parametrize(
    "N, beta",
    [(10_000, 0.999), (30_000, 0.999), (100_000, 0.9999), (3_000_000, 1.0 - 1e-6)],
)
@pytest.mark.parametrize("Q", [1e-8, 1e-5, 0.5])
def test_optimize_small_positive_q_matches_scan(N, beta, Q, kind):
    """For 0 < Q << 1 the stationary equation's root sits near u = 1, far
    from u = Q, where a first Newton step is shorter than one split.  C is
    chosen so that the right side of the equation takes the value Q."""
    lb = -math.log(beta)
    a = N * lb - 2.0 - math.log(lb) - Q
    log_c = a - burnin._log_k(beta, kind) - math.log(1.0 - beta) + math.log(2.0)
    assert_matches_scan(mc.BudgetQuery(N=N, beta=beta, C=math.exp(log_c)), kind)


def test_optimize_matches_scan_on_reproduction_inputs():
    """The figure budgets (kind b4) and the table-1 splits (both kinds)."""
    for N in _budget_grid(10**7):
        assert_matches_scan(mc.BudgetQuery(N=N, beta=0.99, C=1e30), "b4")
    for N, beta in cli._TABLE1_COMBOS:
        for kind in mc.BOUND_KINDS:
            assert_matches_scan(mc.BudgetQuery(N=N, beta=beta, C=cli._TABLE1_C), kind)


def test_suggested_close_to_optimal_at_published_setting():
    query = mc.BudgetQuery(N=100_000, beta=0.99, C=1e30)
    sug = mc.suggested_plan(query, "binf")
    opt = mc.optimize_burnin(query, "binf")
    assert sug.n0 == 6874
    assert abs(sug.n0 - opt.n0) <= 1
    assert sug.bound_value >= opt.bound_value
    assert sug.bound_value <= opt.bound_value * (1.0 + 1e-6)


def test_suggested_plan_infeasible_budget():
    with pytest.raises(ValueError):
        mc.suggested_plan(mc.BudgetQuery(N=100, beta=0.999, C=1e30), "binf")


def test_suggested_plan_zero_beta():
    plan = mc.suggested_plan(mc.BudgetQuery(N=50, beta=0.0, C=1e30), "b4")
    assert plan.n0 == 0 and plan.n == 50


def test_half_budget_penalty_converges_to_sqrt2():
    query = mc.BudgetQuery(N=100_000_000, beta=0.99, C=1e30)
    plan = mc.half_budget_plan(query, "binf")
    assert plan.n0 == query.N // 2
    assert plan.strategy == "half_budget"
    assert plan.penalty_vs_stationary == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_half_budget_small_budget_pays_more():
    plan = mc.half_budget_plan(mc.BudgetQuery(N=100, beta=0.9, C=1e6), "binf")
    assert plan.penalty_vs_stationary > math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Figure curve families
# ---------------------------------------------------------------------------

def test_figure_series_structure():
    query = mc.BudgetQuery(N=10_000, beta=0.9, C=1e6)
    rows = mc.figure_series(query, (100, 2000), "b4")
    labels = {r.kind for r in rows}
    assert labels == {
        "b4[n0=100]",
        "b4[n0=2000]",
        "b4[suggested]",
        "b4[half]",
        "b4[optimized]",
        "stationary",
    }
    grid = sorted({r.N for r in rows})
    assert grid[-1] == query.N
    assert all(g >= 10 for g in grid)
    # Full-length curves carry one row per grid point.
    per = [r for r in rows if r.kind == "b4[half]"]
    assert len(per) == len(grid)
    # Fixed curves only exist where the budget exceeds the burn-in.
    for r in rows:
        if r.kind == "b4[n0=2000]":
            assert r.N > 2000
    assert all(math.isfinite(r.value) and r.value > 0.0 for r in rows)


def test_figure_series_optimized_is_pointwise_minimal():
    query = mc.BudgetQuery(N=2_000, beta=0.9, C=1e6)
    rows = mc.figure_series(query, (50,), "binf")
    by_budget = {}
    for r in rows:
        by_budget.setdefault(r.N, {})[r.kind] = r.value
    for N, curves in by_budget.items():
        opt = curves["binf[optimized]"]
        for label, v in curves.items():
            if label.startswith("binf[") and label != "binf[optimized]":
                assert opt <= v * (1.0 + 1e-12), (N, label)


def test_figure_series_rejects_bad_choices():
    query = mc.BudgetQuery(N=100, beta=0.5, C=10.0)
    with pytest.raises(ValueError):
        mc.figure_series(query, (-1,), "b4")
    with pytest.raises(ValueError):
        mc.figure_series(query, (10,), "b2")


# ---------------------------------------------------------------------------
# Pinned bits
# ---------------------------------------------------------------------------

# SHA-256 of repr() of the planners' outputs on 2000 seeded queries: each
# planner's (n0, bound_value) for both kinds (None where suggested_plan
# refuses the query), then suggested_burnin_detail's (n0, ratio, borderline)
# where beta > 0.  The planners keep their bits, as GOLDEN_SIMULATION pins
# the simulation's.
GOLDEN_PLANS = "3de94ad92aa85c9fc1384ff117857b406f0598f22c3c5b5bb4393dd5021e5d76"


def test_planners_keep_their_bits():
    rng = np.random.default_rng(20261019)
    bits = []
    for _ in range(2000):
        N = int(min(2.0**53, 10.0 ** rng.uniform(0.31, 16.0)))
        beta = 0.0 if rng.uniform() < 0.05 else float(1.0 - 10.0 ** rng.uniform(-12.0, 0.0))
        C = float(10.0 ** rng.uniform(-5.0, 308.0))
        query = mc.BudgetQuery(N=N, beta=beta, C=C)
        for kind in mc.BOUND_KINDS:
            for planner in (mc.optimize_burnin, mc.suggested_plan, mc.half_budget_plan):
                try:
                    plan = planner(query, kind)
                except ValueError:
                    bits.append(None)
                else:
                    bits.append((plan.n0, plan.bound_value))
        if beta > 0.0:
            detail = mc.suggested_burnin_detail(beta, C)
            bits.append((detail.n0, detail.ratio, detail.borderline))
    assert hashlib.sha256(repr(bits).encode()).hexdigest() == GOLDEN_PLANS
