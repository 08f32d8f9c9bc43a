"""Validation, stationary recovery and spectral decomposition tests."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcmc_certify as mc
from mcmc_certify.chain import _MAX_STATES
from mcmc_certify.errors import (
    NotErgodic,
    NotReversible,
    NotStochastic,
    TooLarge,
    ZeroMass,
)

from chain_strategies import (
    apply_to_distribution,
    apply_to_function,
    mean_value,
    operator_norm_on_mean_zero,
    reversible_chains,
    state_functions,
)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_size_cap_refuses_before_the_dense_copy():
    # Neither input is materialized: one-entry rows, and a zero-stride view.
    with pytest.raises(TooLarge, match=f"{_MAX_STATES + 1} rows"):
        mc.build_chain([[1.0]] * (_MAX_STATES + 1))
    huge = np.broadcast_to(0.0, (_MAX_STATES + 1, _MAX_STATES + 1))
    with pytest.raises(TooLarge):
        mc.as_transition_matrix(huge)
    assert _MAX_STATES >= 4096  # far above the 600 states of the benchmark


def test_rejects_row_sum_off():
    with pytest.raises(NotStochastic):
        mc.build_chain([[0.7, 0.31], [0.6, 0.4]])


def test_rejects_negative_entry():
    with pytest.raises(NotStochastic):
        mc.build_chain([[1.1, -0.1], [0.5, 0.5]])


def test_rejects_non_square():
    with pytest.raises(NotStochastic):
        mc.as_transition_matrix([[0.5, 0.5]])
    with pytest.raises(NotStochastic, match="must be square"):  # a scalar has no len
        mc.build_chain(0.5)


def test_rejects_nonreversible_cycle():
    # Deterministic 3-cycle: doubly stochastic, uniform pi, but the flux
    # pi[x] P[x][y] is grossly asymmetric.
    cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    with pytest.raises(NotReversible):
        mc.build_chain(cycle)


def _path_matrix(d: int, zero_up=None, zero_down=None):
    """Constant-rate birth--death matrix with one up- or down-rate set to 0."""
    up, down = np.full(d - 1, 0.3), np.full(d - 1, 0.3)
    if zero_up is not None:
        up[zero_up] = 0.0
    if zero_down is not None:
        down[zero_down] = 0.0
    return mc.birth_death_matrix(up, down)


@pytest.mark.parametrize(
    "P",
    [
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ],
        # State 0 reaches state 1 but not back: only the backward search fails.
        [[0.5, 0.5], [0.0, 1.0]],
        # Long paths cut in the middle, one per search direction.
        _path_matrix(64, zero_up=31),
        _path_matrix(64, zero_down=31),
    ],
    ids=["two-blocks", "one-way", "path64-no-up", "path64-no-down"],
)
def test_rejects_reducible(P):
    with pytest.raises(NotErgodic, match="cannot be reached"):
        mc.build_chain(P)


def test_accepts_long_path():
    # Diameter 63: the reachability frontier advances one state per step.
    chain = mc.build_chain(_path_matrix(64))
    assert chain.pi == pytest.approx(np.full(64, 1.0 / 64), rel=1e-10)


def test_rejects_absorbing_state():
    with pytest.raises(NotErgodic):
        mc.build_chain([[1.0, 0.0], [0.5, 0.5]])


def test_rejects_zero_mass_pi():
    with pytest.raises(ZeroMass):
        mc.build_chain([[0.7, 0.3], [0.6, 0.4]], pi=[1.0, 0.0])


def test_rejects_pi_of_wrong_length():
    P = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="stationary distribution has length 2, chain has 3 states"):
        mc.build_chain(P, pi=[0.5, 0.5])
    with pytest.raises(ValueError, match="has length 4, chain has 3 states"):
        mc.build_chain(P, pi=[0.25] * 4)


def test_rejects_noninvariant_pi():
    with pytest.raises((NotReversible, NotErgodic)):
        mc.build_chain([[0.7, 0.3], [0.6, 0.4]], pi=[0.5, 0.5])


def test_as_distribution_returns_its_input_within_tolerance():
    # Checked like a row of P and used as given, so a second pass changes
    # nothing; a division by the float sum moves 21% of these starts again.
    rng = np.random.default_rng(2009)
    for _ in range(2000):
        raw = rng.random(int(rng.integers(2, 30)))
        nu = raw / raw.sum()
        once = mc.as_distribution(nu)
        assert once.tobytes() == nu.tobytes()
        assert mc.as_distribution(once).tobytes() == once.tobytes()
    assert mc.as_distribution([0.5, 0.5 + 1e-13]).tolist() == [0.5, 0.5 + 1e-13]
    with pytest.raises(ValueError, match="sums to"):
        mc.as_distribution([0.6, 0.5])


# ---------------------------------------------------------------------------
# Stationary distribution and spectral structure
# ---------------------------------------------------------------------------

def test_two_state_stationary_recovered(two_state):
    # pi P = pi with P = [[.7,.3],[.6,.4]] solves to (2/3, 1/3).
    assert two_state.pi == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-13)
    assert two_state.reversibility_residual <= mc.REV_TOL


def test_two_state_spectrum(two_state):
    dec = mc.spectral_decompose(two_state)
    # trace - 1 = 0.1 is the only nontrivial eigenvalue.
    assert dec.eigenvalues == pytest.approx([1.0, 0.1], abs=1e-12)
    assert dec.beta1 == pytest.approx(0.1, abs=1e-12)
    assert dec.beta == pytest.approx(0.1, abs=1e-12)


def test_antithetic_spectrum(antithetic):
    dec = mc.spectral_decompose(antithetic)
    assert dec.beta1 == pytest.approx(-0.7, abs=1e-12)
    assert dec.beta == pytest.approx(0.7, abs=1e-12)


def test_uniform_chain_has_zero_gap_complement(suite):
    dec = mc.spectral_decompose(suite["uniform_three"])
    assert dec.beta == pytest.approx(0.0, abs=1e-12)


def test_single_state_chain():
    chain = mc.build_chain([[1.0]])
    dec = mc.spectral_decompose(chain)
    assert chain.pi == pytest.approx([1.0])
    assert dec.beta1 == 0.0 and dec.beta == 0.0


def test_a_copy_keeps_the_decomposition(monkeypatch):
    # The decomposition lives on the chain object, so a copy carries it and
    # eigh runs once.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
    chain = mc.build_chain([[0.7, 0.3, 0.0], [0.2, 0.5, 0.3], [0.0, 0.4, 0.6]])
    dec = mc.spectral_decompose(chain)
    assert mc.spectral_decompose(copy.copy(chain)) is dec
    assert calls == [(3, 3)]


def test_lazy_transform_shifts_spectrum(bd3):
    # Q = (I + P)/2 has eigenvalues (1 + lambda_k)/2 and the same pi.
    d = bd3.size
    lazy = mc.build_chain(0.5 * (np.eye(d) + bd3.P), pi=bd3.pi)
    lam = mc.spectral_decompose(bd3).eigenvalues
    lam_lazy = mc.spectral_decompose(lazy).eigenvalues
    assert lam_lazy == pytest.approx((1.0 + np.asarray(lam)) / 2.0, abs=1e-11)


def test_eigenfunctions_pi_orthonormal(suite):
    for name, chain in suite.items():
        dec = mc.spectral_decompose(chain)
        U = dec.eigenfunctions
        gram = U.T @ (chain.pi[:, None] * U)
        assert np.max(np.abs(gram - np.eye(chain.size))) < 1e-10, name
        # The trivial eigenfunction is the constant 1, sign-normalized.
        assert dec.eigenfunctions[:, 0] == pytest.approx(np.ones(chain.size), abs=1e-10)


def test_eigenfunctions_satisfy_eigenvalue_equation(suite):
    for name, chain in suite.items():
        dec = mc.spectral_decompose(chain)
        resid = chain.P @ dec.eigenfunctions - dec.eigenfunctions * dec.eigenvalues
        assert np.max(np.abs(resid)) < 1e-10, name


def test_suite_betas(suite):
    expected = {
        "two_state": 0.1,
        "two_state_antithetic": 0.7,
        "uniform_three": 0.0,
    }
    for name, beta in expected.items():
        assert mc.spectral_decompose(suite[name]).beta == pytest.approx(beta, abs=1e-12)
    # The birth--death chains just need a genuine gap.
    for name in ("ring_five_lazy", "birth_death_six", "birth_death_ten"):
        assert 0.0 < mc.spectral_decompose(suite[name]).beta < 1.0


# ---------------------------------------------------------------------------
# Operator application and functionals
# ---------------------------------------------------------------------------

def test_apply_to_function_matches_matrix_power(bd3):
    f = np.array([1.0, -2.0, 0.5])
    k = 5
    expected = np.linalg.matrix_power(bd3.P, k) @ f
    assert apply_to_function(bd3, f, k) == pytest.approx(expected, rel=1e-13)


def test_apply_to_distribution_matches_matrix_power(bd3):
    nu = np.array([1.0, 0.0, 0.0])
    k = 7
    expected = nu @ np.linalg.matrix_power(bd3.P, k)
    out = apply_to_distribution(bd3, nu, k)
    assert out == pytest.approx(expected, rel=1e-13)
    assert out.sum() == pytest.approx(1.0, abs=1e-14)


def test_apply_zero_steps_is_identity(bd3):
    f = np.array([0.3, -1.0, 2.0])
    assert apply_to_function(bd3, f, 0) == pytest.approx(f)


def test_weighted_norms_hand_values(two_state):
    f = np.array([1.0, 0.0])
    pi = two_state.pi
    assert mc.weighted_norm(f, pi, 1) == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert mc.weighted_norm(f, pi, 2) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-13)
    assert mc.weighted_norm(f, pi, 4) == pytest.approx((2.0 / 3.0) ** 0.25, rel=1e-13)
    assert mc.weighted_norm(f, pi, np.inf) == 1.0
    assert mean_value(f, pi) == pytest.approx(2.0 / 3.0, rel=1e-13)
    with pytest.raises(ValueError):
        mc.weighted_norm(f, pi, 3)


@given(reversible_chains(max_states=5), st.data())
def test_norm_ordering_holds(chain, data):
    """||f||_1 <= ||f||_2 <= ||f||_4 <= ||f||_inf (Jensen on a probability space)."""
    f = data.draw(state_functions(chain.size))
    pi = chain.pi
    n1 = mc.weighted_norm(f, pi, 1)
    n2 = mc.weighted_norm(f, pi, 2)
    n4 = mc.weighted_norm(f, pi, 4)
    ninf = mc.weighted_norm(f, pi, np.inf)
    slack = 1.0 + 1e-12
    assert n1 <= n2 * slack
    assert n2 <= n4 * slack
    assert n4 <= ninf * slack


def test_spectral_coefficients_parseval(suite):
    for name, chain in suite.items():
        dec = mc.spectral_decompose(chain)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(chain.size)
        a = mc.spectral_coefficients(dec, f, chain.pi)
        assert a @ a == pytest.approx(mc.weighted_norm(f, chain.pi, 2) ** 2, rel=1e-10)
        # Reconstruction in the eigenbasis.
        assert dec.eigenfunctions @ a == pytest.approx(f, abs=1e-10)
        assert a[0] == pytest.approx(mean_value(f, chain.pi), abs=1e-12)


def test_operator_norm_p2_equals_beta_power(suite):
    for name, chain in suite.items():
        if chain.size == 1:
            continue
        beta = mc.spectral_decompose(chain).beta
        for n in (1, 3):
            got = operator_norm_on_mean_zero(chain, n, 2)
            assert got == pytest.approx(beta**n, rel=1e-10, abs=1e-12), (name, n)


def test_operator_norm_validates_arguments(two_state):
    with pytest.raises(ValueError):
        operator_norm_on_mean_zero(two_state, 0, 2)
    with pytest.raises(ValueError):
        operator_norm_on_mean_zero(two_state, 1, 3)


# ---------------------------------------------------------------------------
# Randomized structural properties
# ---------------------------------------------------------------------------

@given(reversible_chains())
def test_random_chains_are_valid(chain):
    P, pi = chain.P, chain.pi
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < mc.ROW_TOL
    assert np.max(np.abs(pi @ P - pi)) < 1e-10
    flux = pi[:, None] * P
    assert np.max(np.abs(flux - flux.T)) <= mc.REV_TOL


@given(reversible_chains())
@settings(max_examples=30)
def test_random_chain_spectrum_in_unit_interval(chain):
    dec = mc.spectral_decompose(chain)
    lam = np.asarray(dec.eigenvalues)
    assert lam[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(lam[1:] > -1.0 + mc.SPEC_TOL)
    assert np.all(lam[1:] <= dec.beta1 + 1e-12)
    assert 0.0 <= dec.beta < 1.0 - mc.SPEC_TOL


# stationary_error, asymptotic_constant and exact_error take every lam[1:] in
# (-1, 1) as given: they rely on this refusal.
@pytest.mark.parametrize(
    "P",
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[2.5e-9, 1.0 - 2.5e-9], [1.0 - 2.5e-9, 2.5e-9]],
        [[1.0 - 2.5e-9, 2.5e-9], [2.5e-9, 1.0 - 2.5e-9]],
    ],
    ids=["periodic", "lam-near-minus-one", "lam1-near-one"],
)
def test_spectral_decompose_refuses_spectrum_within_spec_tol_of_the_unit_circle(P):
    chain = mc.build_chain(P)
    with pytest.raises(NotErgodic, match="numerically non-ergodic"):
        mc.spectral_decompose(chain)


def test_spectral_decompose_accepts_spectrum_just_inside_spec_tol():
    eps = 5e-8
    dec = mc.spectral_decompose(mc.build_chain([[eps, 1.0 - eps], [1.0 - eps, eps]]))
    assert dec.eigenvalues[1] == pytest.approx(-1.0 + 1e-7, abs=1e-15)
    assert dec.beta < 1.0 - mc.SPEC_TOL


@given(reversible_chains(max_states=5), st.integers(min_value=0, max_value=6))
@settings(max_examples=30)
def test_apply_is_power_of_kernel(chain, k):
    f = np.arange(chain.size, dtype=float)
    expected = np.linalg.matrix_power(chain.P, k) @ f
    assert apply_to_function(chain, f, k) == pytest.approx(expected, abs=1e-11)


def test_chain_arrays_are_readonly(two_state):
    with pytest.raises(ValueError):
        two_state.P[0, 0] = 0.5
    with pytest.raises(ValueError):
        two_state.pi[0] = 0.5


def test_build_and_decompose_peak_at_three_dense_buffers():
    # Beyond what it held before, build_chain peaks at about 3 d x d float64
    # buffers and spectral_decompose at about 2 (tracemalloc: 3.16 and 2.07 at
    # d = 512).  build_chain holds its copy of P, the flux and flux - flux^T,
    # whose absolute value overwrites the flux; a separate imbalance buffer reads
    # 4.1.  spectral_decompose builds A in one buffer and drops it after eigh,
    # which leaves V and U, made from V reversed: a second A, or a re-sorted
    # copy of V, reads 3.1 or more.
    d = 512
    P = mc.birth_death_matrix(np.full(d - 1, 0.306), np.full(d - 1, 0.3))
    w = np.cumprod(np.concatenate([[1.0], np.full(d - 1, 1.02)]))

    def peak(call, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call(*args)
        return out, (tracemalloc.get_traced_memory()[1] - before) / (8.0 * d * d)

    tracemalloc.start()
    try:
        chain, built = peak(mc.build_chain, P, w / w.sum())
        _, decomposed = peak(mc.spectral_decompose, chain)
    finally:
        tracemalloc.stop()
    assert built <= 1.1 * 3, built
    assert decomposed <= 1.1 * 2, decomposed
