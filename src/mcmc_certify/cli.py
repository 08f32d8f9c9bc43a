"""Command-line surface: validate, analyze, bound, plan, simulate, reproduce.

Verbs
-----
analyze        print size, spectral summary and start constants of a chain file
error          exact MSE (opt-in), certified bounds and asymptotic constant
burnin         plan a budget split by one of the three strategies
reproduce      write the reference table / figure-curve CSV files
simulate-check run the seeded statistical soundness suite

Exit codes: 0 success, 1 simulate-check found a failing case, 2 validation
error (including a count -- window, burn-in, budget, exponent -- above
2**53), 3 resource cap (``TooLarge``: a chain of more than 4096 states;
``BudgetOverflow``: a simulated replication longer than 2**27 steps, more
than 2**27 replications, an exact error whose start stays trapped, an exact
error that overflows float64, or a simulated MSE that overflows float64;
``MemoryError``: an allocation the machine refused, as one stderr line and
no traceback), 4 I/O error.
Machine output: ``--json`` dumps a schema-stable JSON document (non-finite
floats as ``null``); CSV files use shortest-round-trip float formatting, so
they are bit-stable across platforms.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bounds import (
    NORM_KINDS,
    bound_general_start,
    bound_theorem,
    chi2_contrast,
    density_ratio_bound,
    mass_floor_bound,
)
from .burnin import (
    BOUND_KINDS,
    BudgetQuery,
    figure_series,
    half_budget_plan,
    optimize_burnin,
    suggested_burnin,
    suggested_burnin_detail,
    suggested_plan,
)
from .chain import spectral_decompose
from .chainfile import load_chain_file
from .errors import BudgetOverflow, ChainError, TooLarge
from .exact_error import EstimatorSpec, asymptotic_constant, exact_error
from .simulate import SimulationConfig, estimate_error
from .suite import validation_suite

__all__ = ["main", "console_main", "build_parser"]

_TABLE1_COMBOS = [
    (10**4, 0.9),
    (10**5, 0.9),
    (10**4, 0.99),
    (10**5, 0.99),
    (10**4, 0.999),
    (10**5, 0.999),
]
_TABLE1_C = 1e30
_FIGURE_QUERY = dict(N=10**7, beta=0.99, C=1e30)
_FIGURE1_CHOICES = (6000, 6400, 8000)
_CHECK_SETTINGS = [(4, 2), (8, 0), (6, 5)]


def _fmt(x: float) -> str:
    """Human-facing float formatting (6 significant digits)."""
    return format(float(x), ".6g")


def _machine(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _finite_or_null(value):
    """``value`` with every non-finite float, however nested, made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _emit_json(doc) -> None:
    # JSON has no Infinity or NaN, so they go out as null; a verdict such as
    # simulate-check's "pass" still carries the outcome.
    print(json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False))


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def cmd_analyze(args) -> int:
    data = load_chain_file(args.file)
    chain = data.chain
    dec = spectral_decompose(chain)
    eig_residual = float(
        np.max(
            np.abs(chain.P @ dec.eigenfunctions - dec.eigenfunctions * dec.eigenvalues)
        )
    )
    doc = {
        "states": chain.size,
        "labels": data.labels,
        "beta1": dec.beta1,
        "beta": dec.beta,
        "reversibility_residual": chain.reversibility_residual,
        "leading_eigenvalue_residual": abs(float(dec.eigenvalues[0]) - 1.0),
        "eigen_residual": eig_residual,
        "C_pi": mass_floor_bound(chain.pi),
        "C_density": None,
        "chi2_start": None,
    }
    if data.nu is not None:
        doc["C_density"] = density_ratio_bound(data.nu, chain.pi)
        doc["chi2_start"] = chi2_contrast(data.nu, chain.pi)
    if args.json:
        _emit_json(doc)
        return 0
    print(f"states:                  {doc['states']}")
    if data.labels is not None:
        print(f"labels:                  {', '.join(data.labels)}")
    print(f"beta1:                   {_fmt(doc['beta1'])}")
    print(f"beta:                    {_fmt(doc['beta'])}")
    print(f"reversibility residual:  {_fmt(doc['reversibility_residual'])}")
    print(f"leading eigval residual: {_fmt(doc['leading_eigenvalue_residual'])}")
    print(f"eigenpair residual:      {_fmt(doc['eigen_residual'])}")
    print(f"sup 1/pi (C_pi):         {_fmt(doc['C_pi'])}")
    if data.nu is not None:
        print(f"sup |nu/pi - 1| (C):     {_fmt(doc['C_density'])}")
        print(f"chi2(nu, pi):            {_fmt(doc['chi2_start'])}")
    return 0


def _bound_doc(report) -> dict:
    return {
        "leading_term": report.leading_term,
        "correction_term": report.correction_term,
        "total": report.total,
        "rmse": math.sqrt(report.total),
    }


def cmd_error(args) -> int:
    data = load_chain_file(args.file)
    chain = data.chain
    if data.f is None:
        raise ValueError(f'{args.file}: no "f" in file; the error verb needs a function')
    nu = data.nu if data.nu is not None else chain.pi
    f = data.f
    spec = EstimatorSpec(n=args.n, n0=args.n0)
    kinds = NORM_KINDS if args.norm == "all" else (args.norm,)

    bounds_doc = {}
    constants = None
    for kind in kinds:
        thm = bound_theorem(chain, nu, f, spec, kind)
        gen = bound_general_start(chain, nu, f, spec, kind)
        constants = thm.constants
        bounds_doc[kind] = {
            "theorem": _bound_doc(thm),
            "general": _bound_doc(gen),
        }

    exact_doc = None
    if args.exact:
        report = exact_error(chain, nu, f, spec)
        exact_doc = {
            "mse": report.mse,
            "stationary_mse": report.stationary_mse,
            "correction": report.correction,
            "correction_diagonal": report.correction_diagonal,
            "correction_cross": report.correction_cross,
            "rmse": math.sqrt(max(report.mse, 0.0)),
        }

    sim_doc = None
    if args.simulate is not None:
        replications, seed = args.simulate
        sim = estimate_error(
            chain, nu, f, SimulationConfig(replications=replications, seed=seed, spec=spec)
        )
        sim_doc = {
            "mse_hat": sim.mse_hat,
            "std_error": sim.std_error,
            "replications": sim.replications,
            "seed": sim.seed,
        }

    doc = {
        "n": spec.n,
        "n0": spec.n0,
        "asymptotic_constant": asymptotic_constant(chain, f),
        "constants": {
            "beta1": constants.beta1,
            "beta": constants.beta,
            "C_density": constants.C_density,
            "C_pi": constants.C_pi,
        },
        "bounds": bounds_doc,
        "exact": exact_doc,
        "simulation": sim_doc,
    }
    if args.json:
        _emit_json(doc)
        return 0

    print(f"window n={spec.n}  burn-in n0={spec.n0}")
    print(f"asymptotic constant: {_fmt(doc['asymptotic_constant'])}")
    for kind in kinds:
        b = bounds_doc[kind]
        print(
            f"bound[{kind}]   closed-form: {_fmt(b['theorem']['total'])} "
            f"(lead {_fmt(b['theorem']['leading_term'])}, "
            f"corr {_fmt(b['theorem']['correction_term'])})"
        )
        print(f"bound[{kind}]   sharp:       {_fmt(b['general']['total'])}")
    if exact_doc is not None:
        print(
            f"exact mse: {_fmt(exact_doc['mse'])} "
            f"(stationary {_fmt(exact_doc['stationary_mse'])}, "
            f"correction {_fmt(exact_doc['correction'])})"
        )
    if sim_doc is not None:
        print(
            f"simulated mse: {_fmt(sim_doc['mse_hat'])} "
            f"+- {_fmt(sim_doc['std_error'])} (R={sim_doc['replications']}, "
            f"seed={sim_doc['seed']})"
        )
    return 0


def cmd_burnin(args) -> int:
    query = BudgetQuery(N=args.N, beta=args.beta, C=args.C)
    borderline = None
    if args.strategy == "optimize":
        plan = optimize_burnin(query, args.kind)
    elif args.strategy == "half":
        plan = half_budget_plan(query, args.kind)
    else:
        plan = suggested_plan(query, args.kind)
        borderline = suggested_burnin_detail(query.beta, query.C).borderline
    doc = {
        "strategy": plan.strategy,
        "kind": args.kind,
        "N": query.N,
        "beta": query.beta,
        "C": query.C,
        "n0": plan.n0,
        "n": plan.n,
        "bound_value": plan.bound_value,
        "penalty_vs_stationary": plan.penalty_vs_stationary,
        "borderline": borderline,
    }
    if args.json:
        _emit_json(doc)
        return 0
    extra = ""
    if plan.penalty_vs_stationary is not None:
        extra = f" penalty={_fmt(plan.penalty_vs_stationary)}"
    if borderline:
        extra += " (borderline ratio)"
    print(
        f"{plan.strategy:<11} kind={args.kind} N={query.N} beta={_fmt(query.beta)} "
        f"C={_fmt(query.C)} n0={plan.n0} n={plan.n} "
        f"bound={_fmt(plan.bound_value)}{extra}"
    )
    return 0


def _reproduce_table1(out_dir: str) -> str:
    rows = []
    for N, beta in _TABLE1_COMBOS:
        query = BudgetQuery(N=N, beta=beta, C=_TABLE1_C)
        rows.append(
            [
                str(N),
                _machine(beta),
                str(optimize_burnin(query, "b4").n0),
                str(optimize_burnin(query, "binf").n0),
                str(suggested_burnin(beta, _TABLE1_C)),
            ]
        )
    path = os.path.join(out_dir, "table1.csv")
    _write_csv(path, "N,beta,n_opt_b4,n_opt_binf,n0_suggested", rows)
    return path


def _figure_rows_csv(rows) -> list:
    return [[str(r.N), str(r.n0), r.kind, _machine(r.value)] for r in rows]


def _reproduce_figure(out_dir: str, which: str) -> str:
    query = BudgetQuery(**_FIGURE_QUERY)
    if which == "figure1":
        rows = figure_series(query, _FIGURE1_CHOICES, "b4")
        keep = [r for r in rows if r.kind != "b4[half]"]
        path = os.path.join(out_dir, "figure1.csv")
    else:
        rows = figure_series(query, (), "b4")
        wanted = {"b4[half]", "b4[suggested]", "stationary"}
        keep = [r for r in rows if r.kind in wanted]
        path = os.path.join(out_dir, "figure2.csv")
    _write_csv(path, "N,n0,kind,value", _figure_rows_csv(keep))
    return path


def cmd_reproduce(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.target == "table1":
        path = _reproduce_table1(args.out)
    else:
        path = _reproduce_figure(args.out, args.target)
    print(f"wrote {path}")
    return 0


def cmd_simulate_check(args) -> int:
    chains = validation_suite()
    results = []
    all_pass = True
    for name, chain in chains.items():
        d = chain.size
        nu = np.zeros(d)
        nu[0] = 1.0
        f = np.arange(d, dtype=np.float64) / (d - 1)
        for n, n0 in _CHECK_SETTINGS:
            spec = EstimatorSpec(n=n, n0=n0)
            exact = exact_error(chain, nu, f, spec).mse
            emp = estimate_error(
                chain,
                nu,
                f,
                SimulationConfig(replications=args.replications, seed=args.seed, spec=spec),
            )
            gap = abs(emp.mse_hat - exact)
            if emp.std_error > 0.0:
                z = gap / emp.std_error
            else:  # every replication gave the same squared error
                z = 0.0 if gap == 0.0 else math.inf
            bound_floor = min(
                bound_theorem(chain, nu, f, spec, kind).total for kind in NORM_KINDS
            )
            sound = bound_floor >= emp.mse_hat - 4.0 * emp.std_error
            passed = bool(z <= 4.0 and sound)
            all_pass = all_pass and passed
            results.append(
                {
                    "chain": name,
                    "n": n,
                    "n0": n0,
                    "exact_mse": exact,
                    "mse_hat": emp.mse_hat,
                    "std_error": emp.std_error,
                    "z": z,
                    "tightest_bound": bound_floor,
                    "exact_within_bound": bound_floor >= exact,
                    "pass": passed,
                }
            )
    if args.json:
        _emit_json(
            {
                "replications": args.replications,
                "seed": args.seed,
                "results": results,
                "all_pass": all_pass,
            }
        )
        return 0 if all_pass else 1
    for r in results:
        status = "ok" if r["pass"] else "FAIL"
        print(
            f"{r['chain']:<22} n={r['n']} n0={r['n0']} "
            f"exact={_fmt(r['exact_mse'])} emp={_fmt(r['mse_hat'])} "
            f"se={_fmt(r['std_error'])} z={r['z']:.2f} {status}"
        )
    print("all checks passed" if all_pass else "FAILURES detected")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmc-certify",
        description="Exact errors and certified bounds for finite-state MCMC averages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate a chain file and print its spectral summary")
    p.add_argument("file", help="JSON chain description")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("error", help="certified error bounds (and exact MSE) for a window")
    p.add_argument("file", help="JSON chain description (needs f; nu defaults to pi)")
    p.add_argument("n", type=int, help="number of averaged states")
    p.add_argument("n0", type=int, help="burn-in steps")
    p.add_argument("--norm", choices=(*NORM_KINDS, "all"), default="all")
    p.add_argument("--exact", action="store_true", help="also compute the exact MSE")
    p.add_argument(
        "--simulate",
        nargs=2,
        type=int,
        metavar=("R", "SEED"),
        help="also run R seeded replications",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_error)

    p = sub.add_parser("burnin", help="plan a burn-in under a fixed budget")
    p.add_argument("--beta", type=float, required=True, help="spectral bound in [0,1)")
    p.add_argument("--C", type=float, required=True, help="start-quality constant")
    p.add_argument("--N", type=int, required=True, help="total budget n + n0")
    p.add_argument("--kind", choices=BOUND_KINDS, default="binf")
    p.add_argument(
        "--strategy", choices=("suggested", "optimize", "half"), default="suggested"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_burnin)

    p = sub.add_parser("reproduce", help="write the reference table/figure CSVs")
    p.add_argument("--target", choices=("table1", "figure1", "figure2"), required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "simulate-check", help="seeded statistical soundness suite on the validation chains"
    )
    p.add_argument("--replications", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetOverflow, TooLarge, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ChainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
