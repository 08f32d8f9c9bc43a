"""Shared fixtures and the Hypothesis profile for the test suite.

Hypothesis runs derandomized so the suite is reproducible; individual
tests override ``max_examples`` where the default is too slow.  Strategies
and chain helpers live in ``chain_strategies``, so that test modules import
them by a name no other suite's ``conftest`` shadows.
"""

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import mcmc_certify as mc

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def suite():
    return mc.validation_suite()


@pytest.fixture(scope="session")
def two_state():
    return mc.build_chain([[0.7, 0.3], [0.6, 0.4]])


@pytest.fixture(scope="session")
def antithetic():
    return mc.build_chain([[0.1, 0.9], [0.8, 0.2]])


@pytest.fixture(scope="session")
def bd3():
    """Three-state birth--death chain used throughout the small-case grids."""
    return mc.build_chain(mc.birth_death_matrix([0.3, 0.2], [0.25, 0.35]))


@pytest.fixture()
def package_env():
    """Environment for a child interpreter that imports this same package."""
    env = dict(os.environ)
    src = str(Path(mc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
