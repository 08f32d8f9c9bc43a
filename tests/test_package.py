"""The package surface: what ``import mcmc_certify`` loads and exports."""

import importlib
import importlib.util
import inspect
import subprocess
import sys

import mcmc_certify as mc

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
        "chain": ("apply_to_function", "operator_norm_on_mean_zero"),
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
    assert len(mc.__all__) == 64
