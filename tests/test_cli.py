"""Command-line interface: JSON contracts, exit codes, CSV reproduction."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import mcmc_certify as mc
from mcmc_certify import cli

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


def test_exit_code_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert cli.main(["analyze", str(path)]) == 2


def test_exit_code_missing_file(capsys, tmp_path):
    assert cli.main(["analyze", str(tmp_path / "absent.json")]) == 4


def test_exit_code_resource_cap(capsys, chain_file):
    # 2e6 replications of 100 steps exceed the simulation block cap, which
    # refuses before allocating anything.
    assert cli.main(["error", chain_file, "100", "0", "--simulate", "2000000", "1", "--json"]) == 3
    assert "BudgetOverflow" in capsys.readouterr().err


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


def test_reproduce_table1(capsys, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["reproduce", "--target", "table1", "--out", str(out)]) == 0
    assert (out / "table1.csv").read_text() == GOLDEN_TABLE1


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
