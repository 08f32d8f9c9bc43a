"""Chi-square contrast, total variation and deviation-function tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcmc_certify as mc
from mcmc_certify.errors import ZeroMass

from chain_strategies import (
    apply_to_distribution,
    deviation_function,
    distributions,
    l_functional,
    mean_value,
    reversible_chains,
    total_variation,
    weighted_inner,
)


def test_chi2_hand_value():
    # (1/6)^2/(2/3) + (1/6)^2/(1/3) = 1/24 + 1/12 = 1/8
    got = mc.chi2_contrast([0.5, 0.5], [2.0 / 3.0, 1.0 / 3.0])
    assert got == pytest.approx(0.125, rel=1e-13)


def test_total_variation_hand_value():
    got = total_variation([0.5, 0.5], [2.0 / 3.0, 1.0 / 3.0])
    assert got == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_contrasts_vanish_on_equal_inputs():
    mu = [0.2, 0.3, 0.5]
    assert mc.chi2_contrast(mu, mu) == 0.0
    assert total_variation(mu, mu) == 0.0


def test_zero_mass_rejected():
    with pytest.raises(ZeroMass):
        mc.chi2_contrast([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ZeroMass):
        mc.density_ratio_bound([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ZeroMass):
        mc.mass_floor_bound([1.0, 0.0])


def test_start_constants_two_state(two_state):
    delta0 = np.array([1.0, 0.0])
    # nu/pi - 1 = (0.5, -1) so the density bound is 1; 1/min(pi) = 3.
    assert mc.density_ratio_bound(delta0, two_state.pi) == pytest.approx(1.0, rel=1e-13)
    assert mc.mass_floor_bound(two_state.pi) == pytest.approx(3.0, rel=1e-13)
    assert mc.density_ratio_bound(two_state.pi, two_state.pi) == pytest.approx(0.0, abs=1e-14)


@given(st.data())
@settings(max_examples=40)
def test_contrast_properties(data):
    d = data.draw(st.integers(min_value=2, max_value=6))
    nu = data.draw(distributions(d))
    mu = data.draw(distributions(d))
    tv = total_variation(nu, mu)
    chi2 = mc.chi2_contrast(nu, mu)
    assert 0.0 <= tv <= 1.0 + 1e-15
    assert chi2 >= 0.0
    assert tv == pytest.approx(total_variation(mu, nu), rel=1e-12)
    # Cauchy--Schwarz: (2 TV)^2 <= chi2.
    assert (2.0 * tv) ** 2 <= chi2 * (1.0 + 1e-10) + 1e-15


@given(st.data())
@settings(max_examples=40)
def test_chi2_bounded_by_density_ratio(data):
    # chi2(nu, mu) = sum nu (nu/mu) - 1 <= max(nu/mu) - 1 <= ||nu/mu - 1||_inf.
    d = data.draw(st.integers(min_value=2, max_value=6))
    nu = data.draw(distributions(d))
    mu = data.draw(distributions(d))
    chi2 = mc.chi2_contrast(nu, mu)
    assert chi2 <= mc.density_ratio_bound(nu, mu) * (1.0 + 1e-10) + 1e-15


# ---------------------------------------------------------------------------
# Deviation functions d_k = (nu P^k)/pi - 1
# ---------------------------------------------------------------------------

def test_deviation_function_two_state_values(two_state):
    delta0 = np.array([1.0, 0.0])
    d0 = deviation_function(two_state, delta0, 0)
    assert d0.values == pytest.approx([0.5, -1.0], abs=1e-12)
    assert d0.norm_l2 == pytest.approx(math.sqrt(0.5), rel=1e-12)

    # nu P = (0.7, 0.3): ratios (1.05, 0.9), so d_1 = (0.05, -0.1).
    d1 = deviation_function(two_state, delta0, 1)
    assert d1.values == pytest.approx([0.05, -0.1], abs=1e-12)
    assert d1.norm_l2 == pytest.approx(0.1 * math.sqrt(0.5), rel=1e-11)
    assert d1.k == 1


def test_deviation_norms_match_definitions(suite):
    for name, chain in suite.items():
        delta0 = np.eye(chain.size)[0]
        for k in (0, 1, 4):
            dev = deviation_function(chain, delta0, k)
            pushed = apply_to_distribution(chain, delta0, k)
            assert dev.norm_l2**2 == pytest.approx(
                mc.chi2_contrast(pushed, chain.pi), rel=1e-11, abs=1e-14
            ), name
            assert dev.norm_l1 == pytest.approx(
                2.0 * total_variation(pushed, chain.pi), rel=1e-11, abs=1e-14
            ), name
            assert dev.norm_linf == pytest.approx(
                np.max(np.abs(dev.values)), rel=1e-14
            ), name


@given(reversible_chains(max_states=5), st.integers(min_value=0, max_value=8))
@settings(max_examples=30)
def test_deviation_is_mean_zero(chain, k):
    nu = np.eye(chain.size)[0]
    dev = deviation_function(chain, nu, k)
    assert abs(mean_value(dev.values, chain.pi)) < 1e-10


def test_stationary_start_has_zero_deviation(bd3):
    dev = deviation_function(bd3, bd3.pi, 3)
    assert np.max(np.abs(dev.values)) < 1e-10


def test_l_functional_matches_inner_product(bd3):
    nu = np.array([1.0, 0.0, 0.0])
    h = np.array([0.5, -1.0, 2.0])
    k = 2
    dev = deviation_function(bd3, nu, k)
    expected = weighted_inner(dev.values, h, bd3.pi)
    assert l_functional(bd3, nu, k, h) == pytest.approx(expected, rel=1e-13)


def test_l_functional_requires_positive_k(bd3):
    with pytest.raises(ValueError):
        l_functional(bd3, bd3.pi, 0, np.ones(3))
