"""End-to-end acceptance gate.

One test per headline guarantee, each at an explicit tolerance and each
printing a single PASS line with its measured margins (visible under
``pytest -s`` or in the captured-output section of a failure).

Float comparisons that realize a mathematical identity or inequality carry
a relative slack of ~1e-10..1e-12 plus a tiny absolute floor where both
sides can be pure rounding noise (e.g. a chain whose true contraction rate
is 0); the floors sit twenty-plus orders of magnitude below every genuine
scale in the suite.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import mcmc_certify as mc
from mcmc_certify import cli

from chain_strategies import (
    apply_to_distribution,
    l_functional,
    operator_norm_on_mean_zero,
    path_enumeration_oracle,
    worst_case_stationary,
)

REL = 1.0 + 1e-10
ATOL_NOISE = 1e-25   # products of pure rounding noise (squared contrasts)
ATOL_LINALG = 1e-12  # one matvec/inner-product worth of rounding


def report(line: str) -> None:
    print(line, flush=True)


@pytest.fixture(scope="module")
def grid_chains():
    return {
        "two_state": mc.build_chain([[0.7, 0.3], [0.6, 0.4]]),
        "two_state_antithetic": mc.build_chain([[0.1, 0.9], [0.8, 0.2]]),
        "three_state_bd": mc.build_chain(mc.birth_death_matrix([0.3, 0.2], [0.25, 0.35])),
    }


@pytest.fixture(scope="module")
def oracle_grid(grid_chains):
    """Every (chain, nu, f, window) case with its brute-force oracle value."""
    cases = []
    for name, chain in grid_chains.items():
        d = chain.size
        starts = [("point", np.eye(d)[0]), ("uniform", np.full(d, 1.0 / d)), ("pi", np.array(chain.pi))]
        ramp = np.arange(d, dtype=float) / (d - 1)
        alternating = np.array([(-1.0) ** i * (1.0 + 0.5 * i) for i in range(d)])
        functions = [("indicator", np.eye(d)[0]), ("ramp", ramp), ("alternating", alternating)]
        for total in range(1, 9):
            for n in range(1, total + 1):
                spec = mc.EstimatorSpec(n=n, n0=total - n)
                for nu_name, nu in starts:
                    for f_name, f in functions:
                        oracle = path_enumeration_oracle(chain, nu, f, spec)
                        cases.append((name, chain, nu_name, nu, f_name, f, spec, oracle))
    return cases


def test_acceptance_budget_table_reproduction():
    """Published optimal splits at C = 1e30, both bound kinds, plus the
    closed-form suggestion within +-1 of its published ceiling."""
    t0 = time.monotonic()
    expected_opt = {
        (10_000, 0.9): 656,
        (100_000, 0.9): 656,
        (10_000, 0.99): 6867,
        (100_000, 0.99): 6873,
        (10_000, 0.999): 8001,
        (100_000, 0.999): 68977,
    }
    published_suggested = {0.9: 656, 0.99: 6873, 0.999: 69043}
    for (N, beta), n0_expected in expected_opt.items():
        query = mc.BudgetQuery(N=N, beta=beta, C=1e30)
        for kind in mc.BOUND_KINDS:
            plan = mc.optimize_burnin(query, kind)
            assert plan.n0 == n0_expected, (N, beta, kind, plan.n0)
    for beta, target in published_suggested.items():
        got = mc.suggested_burnin(beta, 1e30)
        assert abs(got - target) <= 1, (beta, got, target)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"budget scan took {elapsed:.2f}s (cap 5s)"
    report(
        f"PASS budget-table: 6 budget/rate pairs x 2 kinds exact, "
        f"suggested within +-1 of published ceilings, {elapsed:.2f}s"
    )


def test_acceptance_oracle_identity(oracle_grid):
    """exact_error agrees with exhaustive path enumeration to 1e-12 on the
    full small-chain grid (and the slow spectral-free route agrees too)."""
    t0 = time.monotonic()
    worst = 0.0
    worst_naive = 0.0
    for name, chain, nu_name, nu, f_name, f, spec, oracle in oracle_grid:
        scale = max(1.0, abs(oracle))
        fast = mc.exact_error(chain, nu, f, spec).mse
        gap = abs(fast - oracle) / scale
        worst = max(worst, gap)
        assert gap <= 1e-12, (name, nu_name, f_name, spec, fast, oracle)
        slow = mc.exact_error_naive(chain, nu, f, spec)
        gap_naive = abs(slow - oracle) / scale
        worst_naive = max(worst_naive, gap_naive)
        assert gap_naive <= 1e-12, (name, nu_name, f_name, spec)
    elapsed = time.monotonic() - t0
    assert len(oracle_grid) >= 400
    assert elapsed < 60.0, f"oracle grid took {elapsed:.2f}s (cap 60s)"
    report(
        f"PASS oracle-identity: {len(oracle_grid)} cases, worst relative gap "
        f"{worst:.2e} (spectral) / {worst_naive:.2e} (naive), {elapsed:.1f}s"
    )


def test_acceptance_worst_case_equality(suite):
    """stationary_error at the leading eigenfunction equals the closed-form
    worst case (1+b)/(n(1-b)) - 2b(1-b^n)/(n^2 (1-b)^2) to 1e-12, n=1..100."""
    worst = 0.0
    for name, chain in suite.items():
        dec = mc.spectral_decompose(chain)
        u1 = dec.eigenfunctions[:, 1]
        b = dec.beta1
        for n in range(1, 101):
            closed = (1.0 + b) / (n * (1.0 - b)) - 2.0 * b * (1.0 - b**n) / (
                n**2 * (1.0 - b) ** 2
            )
            got = mc.stationary_error(chain, u1, n)
            gap = abs(got - closed) / closed
            worst = max(worst, gap)
            assert gap <= 1e-12, (name, n, got, closed)
            # The closed form is also exactly the worst case over the unit ball.
            assert worst_case_stationary(chain, n) == pytest.approx(closed, rel=1e-12)
    report(
        f"PASS worst-case-equality: 6 chains x n=1..100, worst relative gap {worst:.2e}"
    )


def test_acceptance_bound_soundness(oracle_grid):
    """Closed-form bound >= sharp bound >= brute-force truth on every grid
    case and every norm route; zero violations."""
    checked = 0
    min_headroom = math.inf
    for name, chain, nu_name, nu, f_name, f, spec, oracle in oracle_grid:
        for kind in mc.NORM_KINDS:
            gen = mc.bound_general_start(chain, nu, f, spec, kind)
            thm = mc.bound_theorem(chain, nu, f, spec, kind)
            assert oracle <= gen.total * REL + 1e-15, (name, nu_name, f_name, spec, kind)
            assert gen.total <= thm.total * REL + 1e-15, (name, nu_name, f_name, spec, kind)
            if oracle > 0:
                min_headroom = min(min_headroom, gen.total / oracle)
            checked += 1
    report(
        f"PASS bound-soundness: {checked} (case, norm) pairs, zero violations, "
        f"tightest sharp-bound/truth ratio {min_headroom:.3f}"
    )


def test_acceptance_inequality_suites(suite):
    """The five certified inequality families, zero violations on the suite:

    1. chi-square contrast contracts at rate beta^2 per step (k = 0..50);
    2. operator norm of P^n on mean-zero functions: <= beta^n in l2 and
       <= 2 sqrt(2) beta^(n/2) in l4 (n = 1..20, trial-set maxima — these
       are lower estimates of the true norms, so the check is sound);
    3. the window weight W(n, x) is nondecreasing in x and capped by
       2n/(1-x), including every chain's beta1;
    4. start-deviation functionals: |L_k(h)| <= beta^k sqrt(C_pi) sqrt(C) ||h||_1
       and |L_k(h)| <= beta^k sqrt(C) ||h||_2 (k = 1..30);
    5. aggregate caps V <= 2/(1-x)^2 and U <= 4 sqrt(2)/((1-x)(1-sqrt(x)))
       on a 200-point rate grid.
    """
    counts = [0] * 5

    # -- 1: chi-square contraction ------------------------------------------
    # The contrast is the square of a decayed deviation, so the k-step matvec
    # noise (~1e-15) enters through a cross term of order 1e-15 * beta^k; the
    # slack tracks that floor while staying ~15 orders below a real breach.
    for name, chain in suite.items():
        beta = mc.spectral_decompose(chain).beta
        d = chain.size
        for nu in (np.eye(d)[0], np.full(d, 1.0 / d)):
            chi0 = mc.chi2_contrast(nu, chain.pi)
            for k in range(0, 51):
                pushed = apply_to_distribution(chain, nu, k)
                lhs = mc.chi2_contrast(pushed, chain.pi)
                rhs = beta ** (2 * k) * chi0
                assert lhs <= rhs * (1.0 + 1e-5) + 1e-21, (name, k)
                counts[0] += 1

    # -- 2: operator norm decay ----------------------------------------------
    sqrt2 = math.sqrt(2.0)
    for name, chain in suite.items():
        beta = mc.spectral_decompose(chain).beta
        for n in range(1, 21):
            n2 = operator_norm_on_mean_zero(chain, n, 2)
            assert n2 <= beta**n * REL + ATOL_LINALG, (name, n)
            n4 = operator_norm_on_mean_zero(chain, n, 4)
            assert n4 <= 2.0 * sqrt2 * beta ** (n / 2.0) * REL + ATOL_LINALG, (name, n)
            counts[1] += 2

    # -- 3: window weight monotone in x, capped ------------------------------
    beta1s = [mc.spectral_decompose(c).beta1 for c in suite.values()]
    x_grid = sorted(set(np.linspace(-0.999, 0.995, 97)) | set(beta1s))
    for n in (1, 2, 5, 20, 100, 200):
        values = [mc.w_factor(n, x) for x in x_grid]
        for (x, w), w_next in zip(zip(x_grid, values), values[1:]):
            assert w <= w_next * REL + 1e-15, (n, x)
            counts[2] += 1
        for x, w in zip(x_grid, values):
            assert w <= 2.0 * n / (1.0 - x) * REL, (n, x)
            counts[2] += 1

    # -- 4: start-deviation functional bounds --------------------------------
    for name, chain in suite.items():
        beta = mc.spectral_decompose(chain).beta
        d = chain.size
        c_pi = mc.mass_floor_bound(chain.pi)
        hs = [
            np.eye(d)[0],
            np.arange(d, dtype=float) / max(d - 1, 1),
            np.array([(-1.0) ** i for i in range(d)]),
        ]
        for nu in (np.eye(d)[0], np.full(d, 1.0 / d)):
            c_density = mc.density_ratio_bound(nu, chain.pi)
            for k in range(1, 31):
                damp = beta**k
                for h in hs:
                    lhs = abs(l_functional(chain, nu, k, h))
                    rhs1 = damp * math.sqrt(c_pi) * math.sqrt(c_density) * mc.weighted_norm(h, chain.pi, 1)
                    rhs2 = damp * math.sqrt(c_density) * mc.weighted_norm(h, chain.pi, 2)
                    assert lhs <= rhs1 * REL + ATOL_LINALG, (name, k)
                    assert lhs <= rhs2 * REL + ATOL_LINALG, (name, k)
                    counts[3] += 2

    # -- 5: aggregate caps on a 200-point rate grid ---------------------------
    sqrt2 = math.sqrt(2.0)
    for x in np.linspace(0.0, 0.995, 200):
        for n in (1, 10, 100, 10_000):
            v = mc.v_aggregate(float(x), n)
            u = mc.u_aggregate(float(x), n)
            assert v <= 2.0 / (1.0 - x) ** 2 * REL, (x, n)
            s = math.sqrt(x)
            assert u <= 4.0 * sqrt2 / ((1.0 - x) * (1.0 - s)) * REL if x > 0 else u == 0.0, (x, n)
            counts[4] += 2

    report(
        "PASS inequality-suites: zero violations "
        f"(chi2 decay {counts[0]}, operator norms {counts[1]}, window weight {counts[2]}, "
        f"start functionals {counts[3]}, aggregate caps {counts[4]} checks)"
    )


def test_acceptance_asymptotic_regime(two_state):
    """n * MSE approaches the asymptotic variance constant (within 1% at
    n = 1e4), and the half-budget penalty approaches sqrt(2) (within 1% at
    N = 1e8)."""
    nu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    const = 22.0 / 81.0  # sum of a_k^2 (1+lambda_k)/(1-lambda_k), by hand
    rep = mc.exact_error(two_state, nu, f, mc.EstimatorSpec(n=10_000, n0=0))
    gap = abs(10_000 * rep.mse - const)
    assert gap <= 0.01 * const, gap
    assert rep.asymptotic_constant == pytest.approx(const, rel=1e-12)

    plan = mc.half_budget_plan(mc.BudgetQuery(N=10**8, beta=0.99, C=1e30), "binf")
    penalty_gap = abs(plan.penalty_vs_stationary - math.sqrt(2.0))
    assert penalty_gap <= 0.01 * math.sqrt(2.0)
    report(
        f"PASS asymptotics: |n*mse - const|/const = {gap / const:.2e} at n=1e4, "
        f"half-budget penalty off sqrt(2) by {penalty_gap:.2e} at N=1e8"
    )


def test_acceptance_statistical_validation(capsys):
    """Seeded simulation at R = 1e5 within 4 standard errors of the exact MSE
    on all 18 suite cases, with bit-identical results across BLAS/OpenMP
    thread counts."""
    t0 = time.monotonic()
    code = cli.main(["simulate-check", "--replications", "100000", "--seed", "20240801", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["all_pass"] is True
    assert len(doc["results"]) == 18
    worst_z = max(case["z"] for case in doc["results"])
    assert worst_z <= 4.0

    probe = (
        "import numpy as np, mcmc_certify as mc\n"
        "chain = mc.build_chain(mc.birth_death_matrix([0.35]*5, [0.15]*5))\n"
        "nu = np.eye(6)[0]; f = np.arange(6.0)/5\n"
        "for n, n0 in [(4, 2), (8, 0), (6, 5)]:\n"
        "    r = mc.estimate_error(chain, nu, f, mc.SimulationConfig(\n"
        "        replications=100000, seed=20240801, spec=mc.EstimatorSpec(n=n, n0=n0)))\n"
        "    print(repr(r.mse_hat), repr(r.std_error))\n"
    )
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        run = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1], "thread count changed the seeded results"

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"statistical suite took {elapsed:.1f}s (cap 120s)"
    report(
        f"PASS statistical: 18/18 cases at R=1e5 within 4 sigma (worst z={worst_z:.2f}), "
        f"bit-identical across thread counts, {elapsed:.1f}s"
    )


def test_acceptance_figure_reproduction(tmp_path, capsys):
    """Curve-family properties of the reproduction CSVs: the stationary
    reference decreases in N, no strategy beats the optimized split, the
    adaptive curves agree within 5% at the largest budget, and the
    permanent-half split pays its designed sqrt(2) premium there."""
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--target", "figure1", "--out", str(out)]) == 0
    assert cli.main(["reproduce", "--target", "figure2", "--out", str(out)]) == 0
    capsys.readouterr()

    def load(name):
        rows = {}
        lines = (out / name).read_text().strip().splitlines()
        assert lines[0] == "N,n0,kind,value"
        for line in lines[1:]:
            n_str, _, label, value = line.split(",")
            rows.setdefault(label, {})[int(n_str)] = float(value)
        return rows

    for name in ("figure1.csv", "figure2.csv"):
        curves = load(name)
        stationary = curves["stationary"]
        grid = sorted(stationary)
        for a, b in zip(grid, grid[1:]):
            assert stationary[b] < stationary[a], (name, a, b)
        if "b4[optimized]" in curves:
            for label, series in curves.items():
                if label == "stationary":
                    continue
                for N, v in series.items():
                    assert curves["b4[optimized]"][N] <= v * (1.0 + 1e-12), (name, label, N)

    fig1 = load("figure1.csv")
    top = max(sorted(fig1["stationary"]))
    finals = {label: series[top] for label, series in fig1.items() if top in series}
    spread = max(finals.values()) / min(finals.values())
    assert spread <= 1.05, finals

    fig2 = load("figure2.csv")
    half_ratio = fig2["b4[half]"][top] / fig2["stationary"][top]
    assert half_ratio == pytest.approx(math.sqrt(2.0), rel=0.01)
    assert fig2["b4[suggested]"][top] / fig2["stationary"][top] <= 1.05

    report(
        f"PASS figure-reproduction: stationary monotone, optimized minimal, "
        f"largest-budget spread {100 * (spread - 1):.2f}% (cap 5%), "
        f"half/stationary = {half_ratio:.4f} ~ sqrt(2)"
    )
