"""The package surface: what ``import mcmc_certify`` loads and exports."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
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
        "chain": (
            "apply_to_function", "operator_norm_on_mean_zero", "apply_to_distribution",
            "mean_value", "weighted_inner",
        ),
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
    assert len(mc.__all__) == 61


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
# Every real or named parameter: a call setting it to v, and a valid v.
_START = ([1.0, 0.0], [0.0, 1.0], mc.EstimatorSpec(n=3, n0=1))
_SCALARS = {
    "w_factor.b": (lambda v: mc.w_factor(5, v), 0.5),
    "worst_case_mse.b": (lambda v: mc.worst_case_mse(5, v), 0.5),
    "damped_power.b": (lambda v: mc.damped_power(v, 3), 0.5),
    "v_aggregate.b": (lambda v: mc.v_aggregate(v, 3), 0.5),
    "u_aggregate.b": (lambda v: mc.u_aggregate(v, 3), 0.5),
    "BudgetQuery.beta": (lambda v: mc.BudgetQuery(N=10, beta=v, C=10.0), 0.5),
    "BudgetQuery.C": (lambda v: mc.BudgetQuery(N=10, beta=0.5, C=v), 0.5),
    "suggested_burnin.beta": (lambda v: mc.suggested_burnin(v, 10.0), 0.5),
    "suggested_burnin.C": (lambda v: mc.suggested_burnin(0.5, v), 0.5),
    "suggested_burnin_detail.beta": (lambda v: mc.suggested_burnin_detail(v, 10.0), 0.5),
    "suggested_burnin_detail.C": (lambda v: mc.suggested_burnin_detail(0.5, v), 0.5),
    "bound_theorem.norm_kind": (lambda v: mc.bound_theorem(_FAIR, *_START, v), "l4"),
    "bound_general_start.norm_kind": (lambda v: mc.bound_general_start(_FAIR, *_START, v), "l4"),
    "optimize_burnin.kind": (lambda v: mc.optimize_burnin(_QUERY, v), "b4"),
    "suggested_plan.kind": (lambda v: mc.suggested_plan(_QUERY, v), "b4"),
    "half_budget_plan.kind": (lambda v: mc.half_budget_plan(_QUERY, v), "b4"),
    "bound_function.kind": (lambda v: mc.bound_function(_QUERY, 5, 1, v), "b4"),
    "figure_series.kind": (lambda v: mc.figure_series(_QUERY, [2], v), "b4"),
    "weighted_norm.p": (lambda v: weighted_norm([1.0, -3.0], [0.5, 0.5], v), 4),
}
# The numpy scalars that hold the same value as a Python one.
_TWINS = {float: (np.float32, np.float64), str: (np.str_,), int: (np.int64, np.float32, np.float64)}
# Those bounded above too: the counts, the seed by 2**128 (a Philox key),
# and every real or named parameter.
_EITHER_SIDE = {
    **_COUNTS,
    "SimulationConfig.seed": lambda v: mc.SimulationConfig(
        replications=2, seed=v, spec=_SPEC
    ),
    **{name: call for name, (call, _) in _SCALARS.items()},
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


@pytest.mark.parametrize("value", ["0.5", None, True, False, np.True_], ids=repr)
@pytest.mark.parametrize("call", [call for call, _ in _SCALARS.values()], ids=list(_SCALARS))
def test_scalar_parameter_refuses_a_non_number_with_its_message(call, value):
    # A ValueError in the library's words, not a TypeError from a comparison:
    # a bool is no number and no name, numpy's included.
    with pytest.raises(ValueError, match=re.escape(f", got {value!r}") + "$"):
        call(value)


@pytest.mark.parametrize("call, valid", list(_SCALARS.values()), ids=list(_SCALARS))
def test_numpy_scalar_counts_as_the_python_value_it_holds(call, valid):
    # Equal reprs: the same numbers, and no numpy scalar carried into them.
    want = repr(call(valid))
    for twin in _TWINS[type(valid)]:
        assert repr(call(twin(valid))) == want, twin


def test_gates_keep_python_ints_that_json_can_write():
    query = mc.BudgetQuery(N=np.int64(1000), beta=0.5, C=2.0)
    assert type(query.N) is int and query == mc.BudgetQuery(N=1000, beta=0.5, C=2.0)
    for kind in mc.BOUND_KINDS:
        for planner in (mc.optimize_burnin, mc.suggested_plan, mc.half_budget_plan):
            plan = planner(query, kind)
            assert type(plan.n0) is int and type(plan.n) is int
            json.dumps(vars(plan))
    spec = mc.EstimatorSpec(np.int64(3), np.int64(1))
    config = mc.SimulationConfig(replications=np.int32(100), seed=np.uint64(2**63), spec=spec)
    for value in (spec.n, spec.n0, spec.total, config.replications, config.seed):
        assert type(value) is int
    json.dumps(vars(spec))
    json.dumps(dataclasses.asdict(config))


# Every refusal of an array or object parameter: the call, the error type,
# and the start of its message.  (`chain._solve_stationary`'s residual check
# is not here: no row-stochastic, strongly connected P was found to reach it.)
_THIRDS = np.full((3, 3), 1.0 / 3.0)
# Each pair is out of balance by 0.8e-10 (under REV_TOL), and the flows into
# state 0 add up to 1.6e-10 (over STAT_TOL).
_OFF = 0.8e-10
# An object with a spec's fields that is no EstimatorSpec.
_LOOSE = SimpleNamespace
_REFUSALS = {
    "f not 1-D": (lambda: mc.as_state_function([[1.0, 2.0]]), ValueError,
                  "state function must be a non-empty 1-D vector"),
    "f not finite": (lambda: mc.as_state_function([1.0, np.nan]), ValueError,
                     "state function has non-finite entries"),
    "nu not 1-D": (lambda: mc.as_distribution([[0.5, 0.5]]), ValueError,
                   "distribution must be a non-empty 1-D vector"),
    "nu not finite": (lambda: mc.as_distribution([np.inf, 0.0]), ValueError,
                      "distribution has non-finite entries"),
    "nu negative": (lambda: mc.as_distribution([1.5, -0.5]), ValueError,
                    "distribution entry 1 is negative (-0.5)"),
    "P not finite": (lambda: mc.as_transition_matrix([[np.nan, 1.0], [0.5, 0.5]]),
                     mc.NotStochastic, "transition matrix has non-finite entries"),
    "pi not invariant": (
        lambda: mc.build_chain(_THIRDS, pi=[1 / 3 - 2 * _OFF, 1 / 3 + _OFF, 1 / 3 + _OFF]),
        mc.NotErgodic, "supplied distribution is not invariant (residual 1.6"),
    "spec not EstimatorSpec": (lambda: mc.SimulationConfig(replications=2, seed=0, spec=(1, 0)),
                               ValueError, "spec must be an EstimatorSpec"),
    # Every route that takes a spec refuses any other object, before it reads one: a
    # look-alike's window is unchecked (n0 < 0, n <= 0), and a tuple has no fields.
    "exact_error tuple spec": (lambda: mc.exact_error(_FAIR, *_START[:2], (10, 2)),
                               ValueError, "spec must be an EstimatorSpec"),
    "exact_error n0 < 0": (lambda: mc.exact_error(_FAIR, *_START[:2], _LOOSE(n=10, n0=-3)),
                           ValueError, "spec must be an EstimatorSpec"),
    "naive n0 < 0": (lambda: mc.exact_error_naive(_FAIR, *_START[:2], _LOOSE(n=10, n0=-3)),
                     ValueError, "spec must be an EstimatorSpec"),
    "bound_theorem n < 0": (lambda: mc.bound_theorem(_FAIR, *_START[:2], _LOOSE(n=-4, n0=2), "l2"),
                            ValueError, "spec must be an EstimatorSpec"),
    "bound_theorem n = 0": (lambda: mc.bound_theorem(_FAIR, *_START[:2], _LOOSE(n=0, n0=2), "l2"),
                            ValueError, "spec must be an EstimatorSpec"),
    "bound_general_start tuple spec": (
        lambda: mc.bound_general_start(_FAIR, *_START[:2], (10, 2), "l2"),
        ValueError, "spec must be an EstimatorSpec"),
    "estimate_error tuple config": (lambda: mc.estimate_error(_FAIR, *_START[:2], (1000, 7)),
                                    ValueError, "config must be a SimulationConfig"),
    "birth-death shapes": (lambda: mc.birth_death_matrix([0.1], [0.1, 0.2]), ValueError,
                           "up and down must be equal-length non-empty 1-D vectors"),
    "chi2 lengths": (lambda: mc.chi2_contrast([1.0, 0.0], [0.5, 0.25, 0.25]), ValueError,
                     "distributions must have equal length"),
    "density lengths": (lambda: mc.density_ratio_bound([1.0, 0.0], [0.5, 0.25, 0.25]),
                        ValueError, "distributions must have equal length"),
}


@pytest.mark.parametrize("call, error, message", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_refusal_names_its_input(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value).startswith(message), str(refused.value)


# Every route that takes f, as a call of (nu, f); the last two have no start.
_ROUTES = {
    "exact_error": lambda nu, f: mc.exact_error(_FAIR, nu, f, _SPEC),
    "exact_error_naive": lambda nu, f: mc.exact_error_naive(_FAIR, nu, f, _SPEC),
    "bound_theorem": lambda nu, f: mc.bound_theorem(_FAIR, nu, f, _SPEC, "l2"),
    "bound_general_start": lambda nu, f: mc.bound_general_start(_FAIR, nu, f, _SPEC, "l2"),
    "estimate_error": lambda nu, f: mc.estimate_error(
        _FAIR, nu, f, mc.SimulationConfig(replications=2, seed=0, spec=_SPEC)
    ),
    "stationary_error": lambda nu, f: mc.stationary_error(_FAIR, f, 1),
    "asymptotic_constant": lambda nu, f: mc.asymptotic_constant(_FAIR, f),
}
_STARTED = list(_ROUTES)[:-2]


@pytest.mark.parametrize(
    "route, nu, f, message",
    [
        *[pytest.param(route, [1.0, 0.0], [0.0, 1.0, 2.0], "function", id=f"{route}-f")
          for route in _ROUTES],
        *[pytest.param(route, [1.0, 0.0, 0.0], [0.0, 1.0], "start distribution", id=f"{route}-nu")
          for route in _STARTED],
        # build_chain's pi, passed as nu
        pytest.param("build_chain", [0.5, 0.25, 0.25], None, "stationary distribution",
                     id="build_chain-pi"),
    ],
)
def test_every_route_refuses_a_wrong_length_in_the_same_words(route, nu, f, message):
    routes = {**_ROUTES, "build_chain": lambda nu, f: mc.build_chain(_FAIR.P, nu)}
    with pytest.raises(ValueError) as refused:
        routes[route](nu, f)
    assert type(refused.value) is ValueError
    assert str(refused.value) == f"{message} has length 3, chain has 2 states"
