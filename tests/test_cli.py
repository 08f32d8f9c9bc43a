"""Command-line interface: JSON contracts, exit codes, CSV reproduction."""

import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mcmc_certify as mc
from mcmc_certify import cli
from mcmc_certify.chain import _MAX_STATES

TWO_STATE = {
    "labels": ["a", "b"],
    "P": [[0.7, 0.3], [0.6, 0.4]],
    "nu": [1.0, 0.0],
    "f": [1.0, 0.0],
}


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "two_state.json"
    path.write_text(json.dumps(TWO_STATE))
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_json(capsys, chain_file):
    code, doc = run_json(capsys, ["analyze", chain_file, "--json"])
    assert code == 0
    assert doc["states"] == 2
    assert doc["labels"] == ["a", "b"]
    assert doc["beta1"] == pytest.approx(0.1, abs=1e-12)
    assert doc["beta"] == pytest.approx(0.1, abs=1e-12)
    assert doc["C_pi"] == pytest.approx(3.0, rel=1e-12)
    assert doc["C_density"] == pytest.approx(1.0, rel=1e-12)
    assert doc["chi2_start"] == pytest.approx(0.5, rel=1e-12)
    assert doc["reversibility_residual"] <= mc.REV_TOL
    assert doc["eigen_residual"] < 1e-12


def test_analyze_human_output(capsys, chain_file):
    assert cli.main(["analyze", chain_file]) == 0
    out = capsys.readouterr().out
    assert "beta1" in out and "C_pi" in out


def test_analyze_without_nu_omits_start_constants(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"P": TWO_STATE["P"]}))
    code, doc = run_json(capsys, ["analyze", str(path), "--json"])
    assert code == 0
    assert doc["C_density"] is None and doc["chi2_start"] is None


# ---------------------------------------------------------------------------
# error
# ---------------------------------------------------------------------------

def test_error_json_document(capsys, chain_file):
    code, doc = run_json(capsys, ["error", chain_file, "4", "2", "--exact", "--json"])
    assert code == 0
    assert doc["n"] == 4 and doc["n0"] == 2
    assert set(doc["bounds"]) == set(mc.NORM_KINDS)
    mse = doc["exact"]["mse"]
    # 927043/14400000, by exact-rational path enumeration
    assert mse == pytest.approx(0.0643779861111111, rel=1e-12)
    for kind, b in doc["bounds"].items():
        for family in ("theorem", "general"):
            rep = b[family]
            assert rep["total"] == pytest.approx(
                rep["leading_term"] + rep["correction_term"], rel=1e-12
            )
            assert rep["rmse"] == pytest.approx(math.sqrt(rep["total"]), rel=1e-12)
        assert mse <= b["general"]["total"] * (1 + 1e-12)
        assert b["general"]["total"] <= b["theorem"]["total"] * (1 + 1e-12)
    assert doc["asymptotic_constant"] == pytest.approx(22.0 / 81.0, rel=1e-12)
    assert doc["constants"]["C_pi"] == pytest.approx(3.0, rel=1e-12)


def test_error_single_norm_and_simulation(capsys, chain_file):
    code, doc = run_json(
        capsys,
        ["error", chain_file, "4", "2", "--norm", "l2", "--simulate", "5000", "3", "--json"],
    )
    assert code == 0
    assert list(doc["bounds"]) == ["l2"]
    assert doc["exact"] is None
    sim = doc["simulation"]
    assert sim["replications"] == 5000 and sim["seed"] == 3
    # Deterministic: rerunning gives the identical estimate.
    _, doc2 = run_json(
        capsys,
        ["error", chain_file, "4", "2", "--norm", "l2", "--simulate", "5000", "3", "--json"],
    )
    assert doc2["simulation"]["mse_hat"] == sim["mse_hat"]


def test_error_human_output(capsys, chain_file):
    # The text mode prints the numbers of the JSON document to 6 digits.
    argv = ["error", chain_file, "30", "3", "--exact", "--simulate", "2000", "1"]
    code, doc = run_json(capsys, [*argv, "--json"])
    assert code == 0
    assert cli.main(argv) == 0

    def g(x):
        return format(x, ".6g")

    want = ["window n=30  burn-in n0=3", f"asymptotic constant: {g(doc['asymptotic_constant'])}"]
    for kind in mc.NORM_KINDS:
        thm, gen = doc["bounds"][kind]["theorem"], doc["bounds"][kind]["general"]
        want.append(f"bound[{kind}]   closed-form: {g(thm['total'])} "
                    f"(lead {g(thm['leading_term'])}, corr {g(thm['correction_term'])})")
        want.append(f"bound[{kind}]   sharp:       {g(gen['total'])}")
    exact, sim = doc["exact"], doc["simulation"]
    want.append(f"exact mse: {g(exact['mse'])} (stationary {g(exact['stationary_mse'])}, "
                f"correction {g(exact['correction'])})")
    want.append(f"simulated mse: {g(sim['mse_hat'])} +- {g(sim['std_error'])} (R=2000, seed=1)")
    assert capsys.readouterr().out.splitlines() == want


def test_error_requires_function(capsys, tmp_path):
    path = tmp_path / "no_f.json"
    path.write_text(json.dumps({"P": TWO_STATE["P"]}))
    assert cli.main(["error", str(path), "2", "0", "--json"]) == 2
    assert 'no "f"' in capsys.readouterr().err


def test_error_machine_output_round_trips(capsys, chain_file):
    code, doc = run_json(capsys, ["error", chain_file, "3", "1", "--exact", "--json"])
    assert code == 0
    # JSON floats print with repr (shortest round-trip): parsing the output
    # must reproduce the exact binary value.
    again = mc.exact_error(
        mc.build_chain(TWO_STATE["P"]),
        np.array(TWO_STATE["nu"]),
        np.array(TWO_STATE["f"]),
        mc.EstimatorSpec(n=3, n0=1),
    )
    assert doc["exact"]["mse"] == again.mse


# ---------------------------------------------------------------------------
# burnin
# ---------------------------------------------------------------------------

def test_burnin_suggested_json(capsys):
    code, doc = run_json(
        capsys,
        ["burnin", "--beta", "0.5", "--C", "1024", "--N", "4096", "--json"],
    )
    assert code == 0
    assert doc["strategy"] == "suggested"
    assert doc["n0"] == 10 and doc["n"] == 4086
    assert doc["borderline"] is True
    assert doc["kind"] == "binf"


def test_burnin_optimize_json(capsys):
    code, doc = run_json(
        capsys,
        [
            "burnin", "--beta", "0.99", "--C", "1e30", "--N", "10000",
            "--strategy", "optimize", "--kind", "b4", "--json",
        ],
    )
    assert code == 0
    assert doc["n0"] == 6867
    query = mc.BudgetQuery(N=10000, beta=0.99, C=1e30)
    assert doc["bound_value"] == mc.bound_function(query, doc["n"], doc["n0"], "b4")


def test_burnin_half_json(capsys):
    code, doc = run_json(
        capsys,
        [
            "burnin", "--beta", "0.9", "--C", "1e6", "--N", "100000000",
            "--strategy", "half", "--json",
        ],
    )
    assert code == 0
    assert doc["n0"] == 50000000
    assert doc["penalty_vs_stationary"] == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_burnin_optimize_huge_budget(capsys):
    """A 10^12 budget is planned exactly, with no pass over every split."""
    code, doc = run_json(
        capsys,
        [
            "burnin", "--beta", "0.99", "--C", "1e30", "--N", "1000000000000",
            "--strategy", "optimize", "--json",
        ],
    )
    assert code == 0
    query = mc.BudgetQuery(N=10**12, beta=0.99, C=1e30)
    n0 = doc["n0"]
    assert doc["bound_value"] == mc.bound_function(query, query.N - n0, n0, "binf")
    for other in (n0 - 1, n0 + 1):
        assert mc.bound_function(query, query.N - other, other, "binf") >= doc["bound_value"]


def test_burnin_budget_above_2_pow_53_exits_2(package_env):
    run = subprocess.run(
        [sys.executable, "-m", "mcmc_certify.cli", "burnin", "--beta", "0.9",
         "--C", "10", "--N", "100000000000000000000", "--strategy", "half"],
        capture_output=True, text=True, env=package_env,
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error: budget N must be an integer in [2, 2**53]")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("C, n0", [("10", 1), ("0.5", 0)])
def test_burnin_zero_beta_suggests_the_smallest_sufficient_burnin(capsys, C, n0):
    """The smallest n0 with C 0^n0 <= 1, which is optimize's split; the
    borderline flag is a boolean, as suggested_burnin_detail reads beta = 0
    as POWER_FLOOR."""
    argv = ["burnin", "--beta", "0", "--C", C, "--N", "100", "--json"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert (doc["n0"], doc["borderline"]) == (n0, False)
    _, opt = run_json(capsys, argv + ["--strategy", "optimize"])
    assert (doc["n0"], doc["bound_value"]) == (opt["n0"], opt["bound_value"])


def test_burnin_infeasible_suggestion_exits_2(capsys):
    code = cli.main(["burnin", "--beta", "0.999", "--C", "1e30", "--N", "100", "--json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_validation_failure(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(
        json.dumps({"P": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]})
    )
    assert cli.main(["analyze", str(path), "--json"]) == 2
    assert "NotReversible" in capsys.readouterr().err


def test_exit_code_stationary_distribution_of_wrong_length(capsys, tmp_path):
    path = tmp_path / "short_pi.json"
    path.write_text(json.dumps({"P": np.full((3, 3), 1.0 / 3.0).tolist(), "pi": [0.5, 0.5]}))
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "stationary distribution has length 2, chain has 3 states" in err
    assert "broadcast" not in err


def test_exit_code_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert cli.main(["analyze", str(path)]) == 2


def test_exit_code_missing_file(capsys, tmp_path):
    assert cli.main(["analyze", str(tmp_path / "absent.json")]) == 4


def test_exit_code_resource_cap(capsys, tmp_path):
    # One row more than the chain size cap; refused before any array is built.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"P": [[1.0]] * (_MAX_STATES + 1)}))
    assert cli.main(["analyze", str(path), "--json"]) == 3
    assert "TooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("length", [50, 5000])
def test_exit_code_matrix_not_a_list(capsys, tmp_path, length):
    # A string is refused by its key, also one longer than the state cap.
    path = tmp_path / "text.json"
    path.write_text(json.dumps({"P": "x" * length}))
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f'error: {path}: required key "P" must be a list of rows\n'


def test_exit_code_memory_error(capsys, chain_file, monkeypatch):
    # An allocation the machine refuses is a resource cap: one line, no traceback.
    def refused(*args):
        raise MemoryError("Unable to allocate 32.0 MiB for an array with shape (2048, 2048)")

    monkeypatch.setattr(cli, "exact_error", refused)
    assert cli.main(["error", chain_file, "10", "2", "--exact"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: MemoryError: Unable to allocate 32.0 MiB for an array with shape (2048, 2048)"
    ]


def test_exit_code_simulation_seed_beyond_philox(capsys, chain_file):
    argv = ["error", chain_file, "4", "2", "--simulate", "100", str(2**128), "--json"]
    assert cli.main(argv) == 2
    assert "seed must be an integer in [0, 2**128)" in capsys.readouterr().err


def test_exit_code_window_above_2_pow_53(capsys, chain_file):
    assert cli.main(["error", chain_file, str(2**53 + 1), "0"]) == 2
    err = capsys.readouterr().err
    assert "window length n must be an integer in [1, 2**53], got 9007199254740993" in err


def test_exit_code_replication_cap(capsys, chain_file):
    # Refused before the R window sums (72.8 TiB here) are allocated.
    argv = ["error", chain_file, "4", "2", "--simulate", str(10**13), "1", "--json"]
    assert cli.main(argv) == 3
    assert "BudgetOverflow: replications must be at most" in capsys.readouterr().err


def _huge_function_file(tmp_path):
    chain = mc.validation_suite()["birth_death_six"]
    doc = {"P": np.asarray(chain.P).tolist(), "nu": np.eye(6)[0].tolist(),
           "f": (1e160 * np.arange(6.0)).tolist()}
    path = tmp_path / "huge_f.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_error_of_a_huge_function_reports_inf_bounds(capsys, tmp_path):
    # ||f||_inf = 5e160: every bound overflows to inf, printed as null, and
    # the verb exits 0 instead of ending in a traceback, with no warning.
    code, out = run_json(capsys, ["error", _huge_function_file(tmp_path), "100", "5", "--json"])
    assert code == 0
    assert out["asymptotic_constant"] is None
    for kind in mc.NORM_KINDS:
        for route in ("theorem", "general"):
            assert out["bounds"][kind][route]["total"] is None, (kind, route)


def test_exact_error_of_a_huge_function_is_a_budget_overflow(capsys, tmp_path):
    # Its exact MSE is not finite in float64: exit 3 with one line on
    # stderr, not a null MSE after numpy's overflow warnings.
    argv = ["error", _huge_function_file(tmp_path), "100", "5", "--exact", "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: BudgetOverflow: the exact MSE overflows float64"), line


def test_simulated_error_of_a_huge_function_is_a_budget_overflow(capsys, tmp_path):
    # The simulated MSE is about 3e321: exit 3, as with --exact, not a null
    # mse_hat after numpy's overflow warnings.
    argv = ["error", _huge_function_file(tmp_path), "100", "5", "--simulate", "200", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*argv, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: BudgetOverflow: the simulated MSE overflows float64"), line


# pi_min 3.3e-10: the least-squares pi is 5.4e-4 off there, and more than
# 1e-12 off the pi that detailed balance gives, which is the second file's.
_TINY_PI = {"P": [[0.999999999818, 1.82e-10], [0.548, 0.452]], "nu": [0.0, 1.0], "f": [0.0, 1.0]}
_BALANCED_PI = [0.9999999996678832, 3.321167882108663e-10]


def _tiny_pi_files(tmp_path):
    solved, balanced = tmp_path / "solved.json", tmp_path / "balanced.json"
    solved.write_text(json.dumps(_TINY_PI))
    balanced.write_text(json.dumps({**_TINY_PI, "pi": _BALANCED_PI}))
    return str(solved), str(balanced)


def test_a_chain_file_without_pi_reports_on_its_balanced_chain(capsys, tmp_path):
    # Bounds and exact error come from one chain: every sharp bound is at least
    # the exact MSE (the unbalanced pi put 8.789884e-13 under 8.789885e-13).
    solved, balanced = _tiny_pi_files(tmp_path)
    argv = ["1000", "100", "--exact", "--json"]
    _, doc = run_json(capsys, ["error", solved, *argv])
    assert all(b["general"]["total"] >= doc["exact"]["mse"] for b in doc["bounds"].values())
    assert run_json(capsys, ["error", balanced, *argv])[1] == doc


def test_a_chain_file_is_decomposed_once(capsys, tmp_path, monkeypatch):
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
    solved, _ = _tiny_pi_files(tmp_path)
    assert cli.main(["error", solved, "1000", "100", "--exact", "--json"]) == 0
    assert calls == [(2, 2)]


# Reversible only within REV_TOL, pi not given: the pi balanced along the search
# tree leaves a residual of 2.9e-10, so build_chain refuses it.
NEARLY_REVERSIBLE = {
    "P": [[0.9991983965035871, 0.0004008018932064128, 0.0004008016032064128],
          [0.4, 0.19999999970999996, 0.40000000029000005],
          [0.40000000029000005, 0.4, 0.19999999970999996]],
    "nu": [0.0, 0.0, 1.0],
    "f": [0.0, 1.0, 2.0],
}


def test_a_chain_file_is_reported_on_a_chain_that_build_chain_admits(capsys, tmp_path):
    # The file's chain keeps its own pi where the balanced one breaks REV_TOL:
    # the residual was 2.9e-10 and the exact MSE 9.1e-8 off the MSE of P.
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEARLY_REVERSIBLE))
    _, doc = run_json(capsys, ["analyze", str(path), "--json"])
    assert doc["reversibility_residual"] <= 1e-10
    _, doc = run_json(capsys, ["error", str(path), "1000", "10", "--exact", "--json"])
    naive = mc.exact_error_naive(mc.build_chain(NEARLY_REVERSIBLE["P"]), NEARLY_REVERSIBLE["nu"],
                                 NEARLY_REVERSIBLE["f"], mc.EstimatorSpec(n=1000, n0=10))
    assert abs(doc["exact"]["mse"] / naive - 1) <= 1e-9


def test_exit_code_trapped_start(capsys, tmp_path):
    # The start holds pi = 1e-30 and keeps the chain for 1e6 steps on
    # average; a window past the 4096 exact steps is refused.
    P = [[1.0 - 1e-6, 1e-6, 0.0], [2e-36, 0.5 - 2e-36, 0.5], [0.0, 0.5, 0.5]]
    doc = {"P": P, "pi": [1e-30, 0.5, 0.5], "nu": [1.0, 0.0, 0.0], "f": [0.0, 1.0, 2.0]}
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["error", str(path), "5000", "0", "--exact", "--json"]) == 3
    assert "BudgetOverflow" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

GOLDEN_TABLE1 = """N,beta,n_opt_b4,n_opt_binf,n0_suggested
10000,0.9,656,656,656
100000,0.9,656,656,656
10000,0.99,6867,6867,6874
100000,0.99,6873,6873,6874
10000,0.999,8001,8001,69044
100000,0.999,68977,68977,69044
"""


# SHA-256 of the figure CSVs, which must keep their bytes.
GOLDEN_FIGURES = {
    "figure1": "4eef4e9a218a8f0075cc8c54a3f7fcd3c3573070c8625e5480732ab86b3e6638",
    "figure2": "aa95882bb534d707460eeb623abb24fc0037cff9b452561e3be453c873aa8752",
}


def test_reproduce_table1(capsys, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["reproduce", "--target", "table1", "--out", str(out)]) == 0
    assert (out / "table1.csv").read_text() == GOLDEN_TABLE1


@pytest.mark.parametrize("target", sorted(GOLDEN_FIGURES))
def test_reproduce_figures_keep_their_bytes(capsys, tmp_path, target):
    assert cli.main(["reproduce", "--target", target, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{target}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_FIGURES[target]


def test_module_entry_point_runs(tmp_path, package_env):
    """``python -m mcmc_certify.cli`` dispatches to ``main`` like the script."""
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-m", "mcmc_certify.cli", "reproduce",
         "--target", "table1", "--out", str(out)],
        capture_output=True, text=True, env=package_env,
    )
    assert run.returncode == 0, run.stderr
    assert (out / "table1.csv").read_text() == GOLDEN_TABLE1


def test_package_entry_point_runs(package_env):
    """``python -m mcmc_certify`` runs the CLI."""
    run = subprocess.run(
        [sys.executable, "-m", "mcmc_certify", "--help"],
        capture_output=True, text=True, env=package_env,
    )
    assert run.returncode == 0, run.stderr
    assert "reproduce" in run.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--target", "table1"],
        ["burnin", "--beta", "0.99", "--C", "1e30", "--N", "100000", "--strategy", "optimize"],
        ["burnin", "--beta", "0.99", "--C", "1e30", "--N", "100000", "--strategy", "half"],
        ["burnin", "--beta", "0.99", "--C", "1e30", "--N", "100000", "--strategy", "suggested"],
        ["burnin", "--beta", "0.5", "--C", "128", "--N", "100", "--strategy", "suggested"],
    ],
)
def test_common_path_runs_without_mpmath(argv, monkeypatch, tmp_path):
    """The runtime needs numpy alone: every verb runs with mpmath blocked,
    including a suggestion whose ratio log 128 / log 2 = 7 is an exact
    integer that float64 cannot settle."""
    monkeypatch.setitem(sys.modules, "mpmath", None)
    if argv[0] == "reproduce":
        argv = argv + ["--out", str(tmp_path)]
    assert cli.main(argv) == 0


def test_reproduce_figure2_schema(capsys, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["reproduce", "--target", "figure2", "--out", str(out)]) == 0
    lines = (out / "figure2.csv").read_text().strip().splitlines()
    assert lines[0] == "N,n0,kind,value"
    labels = {row.split(",")[2] for row in lines[1:]}
    assert labels == {"b4[half]", "b4[suggested]", "stationary"}
    # Values round-trip exactly through repr formatting.
    for row in lines[1:]:
        parts = row.split(",")
        assert repr(float(parts[3])) == parts[3]


# ---------------------------------------------------------------------------
# simulate-check
# ---------------------------------------------------------------------------

def test_simulate_check_small(capsys):
    code, doc = run_json(
        capsys, ["simulate-check", "--replications", "3000", "--seed", "5", "--json"]
    )
    assert code == 0
    assert doc["all_pass"] is True
    assert doc["replications"] == 3000 and doc["seed"] == 5
    assert len(doc["results"]) == 18  # six chains x three window settings
    for case in doc["results"]:
        assert case["pass"] is True
        assert case["z"] <= 4.0
        assert case["tightest_bound"] >= case["mse_hat"] - 4.0 * case["std_error"]
        # The deterministic soundness check, reported beside the 4-sigma one.
        assert case["exact_within_bound"] is True
        assert case["tightest_bound"] >= case["exact_mse"]


@pytest.mark.parametrize("replications, seed, code, verdict",
                         [(3000, 5, 0, "all checks passed"), (2, 1, 1, "FAILURES detected")])
def test_simulate_check_human_output(capsys, replications, seed, code, verdict):
    # One line a case, with the case's numbers and status, then the verdict.
    argv = ["simulate-check", "--replications", str(replications), "--seed", str(seed)]
    _, doc = run_json(capsys, [*argv, "--json"])
    assert cli.main(argv) == code
    *lines, last = capsys.readouterr().out.splitlines()
    assert last == verdict and len(lines) == len(doc["results"]) == 18
    for line, case in zip(lines, doc["results"]):
        z = "inf" if case["z"] is None else f"{case['z']:.2f}"
        assert line == (
            f"{case['chain']:<22} n={case['n']} n0={case['n0']} "
            f"exact={format(case['exact_mse'], '.6g')} emp={format(case['mse_hat'], '.6g')} "
            f"se={format(case['std_error'], '.6g')} z={z} {'ok' if case['pass'] else 'FAIL'}"
        )


# SHA-256 of repr([(mse_hat, std_error), ...]) over the 18 cases of
# `simulate-check --json --replications 20000`: the seeded simulation keeps
# its bits.  The walks never reach LAPACK, but mse_hat sums g, centred on
# chain.pi, which lstsq solves for the suite's chains.  So the digest may
# differ between BLAS builds, as exact_mse and tightest_bound (not pinned)
# may in their last bits.
GOLDEN_SIMULATION = "6ce905225702c53fe90a25db5996792417bde36a86cc851cc149073b1870842b"


def test_simulate_check_keeps_its_simulated_bits(capsys):
    code, doc = run_json(capsys, ["simulate-check", "--replications", "20000", "--json"])
    assert code == 0 and len(doc["results"]) == 18
    pairs = repr([(case["mse_hat"], case["std_error"]) for case in doc["results"]])
    assert hashlib.sha256(pairs.encode()).hexdigest() == GOLDEN_SIMULATION


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_simulate_check_tiny_replications_reports_instead_of_crashing(capsys):
    # With R = 2 both replications often give the same squared error, so the
    # standard error is 0; such a case fails unless the estimate is exact.
    # Its infinite z goes out as null, so a strict parser reads the document.
    code = cli.main(["simulate-check", "--replications", "2", "--seed", "1", "--json"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert code in (0, 1)
    assert code == (0 if doc["all_pass"] else 1)
    infinite = 0
    for case in doc["results"]:
        if case["std_error"] == 0.0 and case["mse_hat"] != case["exact_mse"]:
            assert case["z"] is None and case["pass"] is False
            infinite += 1
    assert infinite > 0
