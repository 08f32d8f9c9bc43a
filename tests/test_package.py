"""The package surface: what ``import mcmc_certify`` loads and exports."""

import importlib
import importlib.util
import inspect
import subprocess
import sys

import pytest

import mcmc_certify as mc
from mcmc_certify.chain import weighted_norm
from mcmc_certify.errors import _COUNT_MAX, BudgetOverflow

SUBMODULES = (
    "errors",
    "chain",
    "exact_error",
    "bounds",
    "burnin",
    "simulate",
    "suite",
    "chainfile",
)


def test_import_loads_neither_scipy_nor_mpmath(package_env):
    probe = (
        "import sys, mcmc_certify\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=package_env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_all_reexports_every_submodule_name():
    assert len(mc.__all__) == len(set(mc.__all__))
    exported = {"__version__"}
    for name in SUBMODULES:
        module = importlib.import_module(f"mcmc_certify.{name}")
        for attr in module.__all__:
            assert getattr(mc, attr) is getattr(module, attr), attr
        exported.update(module.__all__)
    assert set(mc.__all__) == exported
    # The star import binds the function over the submodule of the same name.
    assert inspect.isfunction(mc.exact_error)


def test_verification_aids_are_not_public():
    moved = {
        "chain": ("apply_to_function", "operator_norm_on_mean_zero", "apply_to_distribution"),
        "bounds": ("l_functional", "total_variation", "DeviationFunction", "deviation_function"),
        "simulate": ("sample_trajectory",),
        "exact_error": ("worst_case_stationary", "path_enumeration_oracle"),
    }
    for module_name, names in moved.items():
        module = importlib.import_module(f"mcmc_certify.{module_name}")
        for name in names:
            assert name not in mc.__all__, name
            assert not hasattr(module, name), (module_name, name)
    assert importlib.util.find_spec("mcmc_certify.convergence") is None
    assert len(mc.__all__) == 63


_QUERY = mc.BudgetQuery(N=10, beta=0.5, C=10.0)
_SPEC = mc.EstimatorSpec(n=1, n0=0)
_FAIR = mc.build_chain([[0.5, 0.5], [0.5, 0.5]])
# A call per checked parameter, setting it to v.  The one whose huge values
# hit a resource cap instead is tried on the negative values only here.
_BELOW = {
    "SimulationConfig.replications": lambda v: mc.SimulationConfig(
        replications=v, seed=0, spec=_SPEC
    ),
}
# The counts the code goes on to use as floats, bounded above by 2**53.
_COUNTS = {
    "EstimatorSpec.n": lambda v: mc.EstimatorSpec(n=v, n0=0),
    "EstimatorSpec.n0": lambda v: mc.EstimatorSpec(n=1, n0=v),
    "w_factor.n": lambda v: mc.w_factor(v, 0.5),
    "worst_case_mse.n": lambda v: mc.worst_case_mse(v, 0.5),
    "stationary_error.n": lambda v: mc.stationary_error(_FAIR, [0.0, 1.0], v),
    "damped_power.k": lambda v: mc.damped_power(0.5, v),
    "v_aggregate.n": lambda v: mc.v_aggregate(0.5, v),
    "u_aggregate.n": lambda v: mc.u_aggregate(0.5, v),
    "bound_function.n": lambda v: mc.bound_function(_QUERY, v, 0, "binf"),
    "bound_function.n0": lambda v: mc.bound_function(_QUERY, 5, v, "binf"),
    "figure_series.n0_choices": lambda v: mc.figure_series(_QUERY, [v], "binf"),
    "BudgetQuery.N": lambda v: mc.BudgetQuery(N=v, beta=0.5, C=10.0),
}
# Those bounded above too: the counts, the seed by 2**128 (a Philox key).
_EITHER_SIDE = {
    **_COUNTS,
    "SimulationConfig.seed": lambda v: mc.SimulationConfig(
        replications=2, seed=v, spec=_SPEC
    ),
    "w_factor.b": lambda v: mc.w_factor(5, v),
    "damped_power.b": lambda v: mc.damped_power(v, 3),
    "v_aggregate.b": lambda v: mc.v_aggregate(v, 3),
    "weighted_norm.p": lambda v: weighted_norm([1.0], [1.0], v),
}
_NEGATIVE = {"-1e5000": -(10**5000), "-1e400": -(10**400)}
_POSITIVE = {"1e5000": 10**5000, "1e400": 10**400}
_HUGE = {**_POSITIVE, **_NEGATIVE}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}={label}")
        for calls, values in ((_BELOW, _NEGATIVE), (_EITHER_SIDE, _HUGE))
        for name, call in calls.items()
        for label, value in values.items()
    ],
)
def test_huge_int_is_refused_by_bit_length(call, value):
    # The library's own message, not CPython's 4300-digit conversion limit.
    with pytest.raises(ValueError, match=r"got an integer of \d+ bits$") as err:
        call(value)
    assert len(str(err.value)) < 120


@pytest.mark.parametrize("call", list(_COUNTS.values()), ids=list(_COUNTS))
def test_count_ceiling_is_2_pow_53(call):
    # float64 holds every count up to 2**53, and n**2 stays finite.
    assert _COUNT_MAX == 2**53
    call(2**53)
    with pytest.raises(ValueError, match=r"be an integer in \[\d, 2\*\*53\], got 9007199254740993$"):
        call(2**53 + 1)


@pytest.mark.parametrize(
    "value", list(_POSITIVE.values()), ids=[f"estimate_error.replications-{k}" for k in _POSITIVE]
)
def test_huge_int_above_a_resource_cap_is_budget_overflow(value):
    # Refused at once, by bit length: not an allocation of that many doubles.
    config = mc.SimulationConfig(replications=value, seed=0, spec=_SPEC)
    message = r"at most 134217728, got an integer of \d+ bits$"
    with pytest.raises(BudgetOverflow, match=message) as err:
        mc.estimate_error(_FAIR, [1.0, 0.0], [1.0, 0.0], config)
    assert len(str(err.value)) < 120
