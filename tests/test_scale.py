"""The scale of f: every error and bound is homogeneous of degree 2 in f.

Each route that squares f works on f / s, s a power of two, and multiplies
its result by s twice, so one computation covers the whole float64 range:
no overflow to inf, no underflow to 0 and no floating-point warning on the
way to a result that float64 holds.  A shift of f leaves every exact value
and sharp bound as it is, bit for bit, wherever ``f - f[argmax pi]`` is exact,
and so does the seeded simulation, which sums the same centred g.
"""

import functools
import math
import warnings

import numpy as np
import pytest

import mcmc_certify as mc

SCALES = [1e-150, 1e-100, 1e-80, 1.0, 1e80, 1e120, 1e150, 1e153]
_SPEC = mc.EstimatorSpec(n=100, n0=5)
_NU = np.eye(6)[0]
# The components of the exact report are compared relative to its MSE.
_COMPONENTS = ("stationary_mse", "correction", "correction_diagonal", "correction_cross")


@functools.cache
def _results(s: float) -> dict:
    """Every route's result on birth_death_six, from state 0, for f = s * (0, ..., 5)."""
    chain = mc.validation_suite()["birth_death_six"]
    f = s * np.arange(6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = mc.exact_error(chain, _NU, f, _SPEC)
        simulated = mc.estimate_error(
            chain, _NU, f, mc.SimulationConfig(replications=20000, seed=3, spec=_SPEC)
        )
        out = {
            "stationary_error": mc.stationary_error(chain, f, _SPEC.n),
            "asymptotic_constant": mc.asymptotic_constant(chain, f),
            "mse_hat": simulated.mse_hat,
            "std_error": simulated.std_error,
        }
        for name in ("mse", "asymptotic_constant", *_COMPONENTS):
            out[f"exact.{name}"] = getattr(exact, name)
        for route in (mc.bound_general_start, mc.bound_theorem):
            for kind in mc.NORM_KINDS:
                report = route(chain, _NU, f, _SPEC, kind)
                for term in ("leading_term", "correction_term", "total"):
                    out[f"{route.__name__}.{kind}.{term}"] = getattr(report, term)
    return out


@pytest.mark.parametrize("s", SCALES)
def test_every_route_is_homogeneous_in_f(s):
    ones, scaled = _results(1.0), _results(s)
    mse = ones["exact.mse"]
    for name, value in scaled.items():
        within = mse if name.split(".")[-1] in _COMPONENTS else abs(ones[name])
        assert abs(value / s / s - ones[name]) <= 1e-14 * within, (name, value, ones[name])


@pytest.mark.parametrize("s", SCALES)
def test_every_bound_is_at_least_the_exact_mse(s):
    results = _results(s)
    for name, value in results.items():
        if name.endswith(".total"):
            assert value >= results["exact.mse"], (name, value)


SHIFTS = [1e6, 1e9, 1e12, 2.0**52]
_WINDOWS = [(1, 0), (5, 0), (5, 3), (40, 2), (1000, 100)]
_SIMULATED_WINDOWS = [(1, 0), (5, 3), (40, 2)]
_EXACT_FIELDS = ("mse", "stationary_mse", "asymptotic_constant", *_COMPONENTS)


@functools.cache
def _suite() -> dict:
    return mc.validation_suite()


@functools.cache
def _shifted(name: str, c: float) -> dict:
    """Every value that depends on f only through g, for f = c + (0, ..., d-1)."""
    chain = _suite()[name]
    f = c + np.arange(float(chain.size))
    out = {"asymptotic_constant": mc.asymptotic_constant(chain, f)}
    for n, n0 in _WINDOWS:
        spec = mc.EstimatorSpec(n=n, n0=n0)
        config = mc.SimulationConfig(replications=3000, seed=3, spec=spec)
        out[n, "stationary_error"] = mc.stationary_error(chain, f, n)
        for start, nu in (("pi", chain.pi), ("state 0", np.eye(chain.size)[0])):
            exact = mc.exact_error(chain, nu, f, spec)
            for field in _EXACT_FIELDS:
                out[start, n, n0, "exact", field] = getattr(exact, field)
            for kind in mc.NORM_KINDS:
                report = mc.bound_general_start(chain, nu, f, spec, kind)
                for term in ("leading_term", "correction_term", "total"):
                    out[start, n, n0, kind, term] = getattr(report, term)
            if (n, n0) in _SIMULATED_WINDOWS:
                simulated = mc.estimate_error(chain, nu, f, config)
                out[start, n, n0, "simulated"] = (simulated.mse_hat, simulated.std_error)
    return out


@pytest.mark.parametrize("c", SHIFTS)
@pytest.mark.parametrize("name", list(_suite()))
def test_every_exact_value_and_sharp_bound_is_shift_invariant(name, c):
    # f enters as g = f - <f, 1>_pi, and every f - f[argmax pi] here is exact:
    # f + c gives the same bits as f.  The simulation sums g over the same
    # walks, so its estimate keeps its bits too.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, shifted = _shifted(name, 0.0), _shifted(name, c)
    assert shifted == base
    for key, value in shifted.items():
        if key[-1] == "total":
            assert value >= base[key[:3] + ("exact", "mse")], key


@pytest.mark.parametrize("f", [1e153 * np.arange(6.0), 1e9 + np.arange(6.0)])
def test_the_naive_oracle_follows_the_rules_for_f(f):
    # A huge f is scaled and a large mean is shifted off before centring, as
    # in exact_error, so the two routes still agree to rounding.
    chain, spec = _suite()["birth_death_six"], mc.EstimatorSpec(n=20, n0=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        naive = mc.exact_error_naive(chain, _NU, f, spec)
    exact = mc.exact_error(chain, _NU, f, spec).mse
    assert abs(naive - exact) <= (1e-10 if f[1] > 1e100 else 1e-12) * exact, (naive, exact)


def _slow_to_leave_its_start():
    # pi_0 = 1e-299: sqrt(C_pi) sqrt(C_density) and the closed form's
    # constant overflow to inf, and the window is 2**40 long.
    a = 2e-8
    b = a * 1e-299
    return mc.build_chain([[1.0 - a, a], [b, 1.0 - b]], pi=np.array([b, a]) / (a + b))


@pytest.mark.parametrize("f", [[0.0, 0.0], [1.0, 1.0]])
def test_a_zero_norm_gives_a_zero_correction(f):
    # f is constant, so its MSE is 0 and its centred norms are 0: an inf
    # factor times a zero norm is no correction, not nan.
    chain = _slow_to_leave_its_start()
    spec = mc.EstimatorSpec(n=2**40, n0=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in mc.NORM_KINDS:
            sharp = mc.bound_general_start(chain, [1.0, 0.0], f, spec, kind)
            closed = mc.bound_theorem(chain, [1.0, 0.0], f, spec, kind)
            assert sharp.correction_term == 0.0 and sharp.total >= 0.0, kind
            assert closed.total >= 0.0, kind  # not nan
            if f[0] == 0.0:
                assert closed.total == 0.0, kind


@pytest.mark.parametrize("p", [2, 4])
def test_weighted_norm_of_a_huge_function(p):
    pi = np.array([0.2, 0.3, 0.5])
    f = np.array([1.0, -2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = mc.weighted_norm(1e200 * f, pi, p)
    assert math.isclose(huge / 1e200, mc.weighted_norm(f, pi, p), rel_tol=1e-15)


@pytest.mark.parametrize("p", [2, 4])
def test_weighted_norm_keeps_empty_and_non_finite_inputs(p):
    assert mc.weighted_norm([], [], p) == 0.0
    assert mc.weighted_norm([np.inf, 1.0], [0.5, 0.5], p) == np.inf
    assert math.isnan(mc.weighted_norm([np.nan, 1.0], [0.5, 0.5], p))
