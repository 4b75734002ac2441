"""Command-line entry point.

Subcommands: simulate, reproduce, exchprob, bias, calibrate, estimate.
Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 reproduction-check failure. Diagnostics go to stderr; data to stdout or
--out files. PECLAB_SEED provides a fallback seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import worlds
from .biasfactor import figure2_grid, report, report_from_data
from .calibrate import apply_calibration, fit_calibration
from .datagen import generate_scenario, generate_table2_world
from .errors import PeclabError
from .estimate import g_computation, ipw_gps_aee, naive_regression_aee
from .exchprob import empirical_table
from .harness import METHODS, reproduce, run_study
from .model import Dataset, Estimand, Link, load_scenario, validate_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REPRO_FAIL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("PECLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PeclabError(f"PECLAB_SEED={env!r} is not an integer") from None
    return worlds.DEFAULT_SEED


def _out_stream(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def build_parser() -> _Parser:
    p = _Parser(prog="peclab", description=__doc__)
    sub = p.add_subparsers(dest="command", metavar="command")

    sim = sub.add_parser("simulate", help="run a scenario file across replications")
    sim.add_argument("--scenario", required=True, help="scenario file path")
    sim.add_argument("--runs", type=int, default=None, help="override replications")
    sim.add_argument("--n", type=int, default=None, help="override observations per run")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--jobs", type=int, default=_default_jobs(), help="parallel workers")
    sim.add_argument("--methods", default="naive_cep,naive_cep_vep,rc",
                     help=f"comma-separated method names (choices: {', '.join(sorted(METHODS))})")
    sim.add_argument("--out", default=None, help="results CSV path (default stdout)")
    sim.add_argument("--emit-csv", default=None, metavar="PATH",
                     help="also write replication 0 as a dataset CSV")

    rep = sub.add_parser("reproduce", help="reproduce a published table cell by cell")
    rep.add_argument("--table", required=True,
                     choices=["table2", "table3", "table4", "table5"])
    rep.add_argument("--runs", type=int, default=None)
    rep.add_argument("--n", type=int, default=None)
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--jobs", type=int, default=_default_jobs())
    rep.add_argument("--out", default=None, help="report CSV path (default stdout)")

    exch = sub.add_parser("exchprob", help="estimate an exchangeability-probability table")
    src = exch.add_mutually_exclusive_group(required=True)
    src.add_argument("--from-csv", default=None, help="dataset CSV with X, Xep, Y columns")
    src.add_argument("--table2", action="store_true",
                     help="generate the discrete exposure-only world")
    exch.add_argument("--n", type=int, default=1_000_000, help="rows for --table2")
    exch.add_argument("--seed", type=int, default=None)
    exch.add_argument("--grid", action="store_true",
                      help="print the probability grid plus row sums to stdout")
    exch.add_argument("--out", default=None, help="long-format CSV path")

    bias = sub.add_parser("bias", help="bias-factor report (lambda, P_RD, bounds)")
    bias.add_argument("--gamma1", type=float, default=None)
    bias.add_argument("--var-x", type=float, default=None)
    bias.add_argument("--var-u", type=float, default=None)
    bias.add_argument("--from-csv", default=None, help="dataset CSV with X and Xep")
    bias.add_argument("--adjust", default="", help="comma-separated adjustment columns")
    bias.add_argument("--figure2", default=None, metavar="PATH",
                      help="write the (gamma1, P, lambda) curve grid CSV")
    bias.add_argument("--out", default=None, help="report CSV path")

    cal = sub.add_parser("calibrate", help="multiple regression calibration")
    cal.add_argument("--condition", choices=["one", "two"], default="two")
    cal.add_argument("--in", dest="input", required=True, help="dataset CSV")
    cal.add_argument("--out", required=True, help="calibrated dataset CSV")
    cal.add_argument("--coef-out", default=None, help="fitted coefficients CSV")
    cal.add_argument("--validation-fraction", type=float, default=None)

    est = sub.add_parser("estimate", help="causal effect estimation on a dataset CSV")
    est.add_argument("--method", required=True, choices=["naive", "gcomp", "ipw"])
    est.add_argument("--in", dest="input", required=True, help="dataset CSV")
    est.add_argument("--exposure", required=True, help="treatment/exposure column")
    est.add_argument("--adjust", default="", help="comma-separated adjustment columns")
    est.add_argument("--delta", type=float, default=1.0)
    est.add_argument("--estimand", choices=["rd", "rr"], default="rd")
    est.add_argument("--truncate-quantile", type=float, default=None,
                     help="optional IPW weight truncation quantile, e.g. 0.995")
    est.add_argument("--out", default=None, help="result CSV path (default stdout)")
    return p


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.n is not None:
        scenario = dataclasses.replace(scenario, n=args.n)
    if args.runs is not None:
        scenario = dataclasses.replace(scenario, replications=args.runs)
    if args.seed is not None or "PECLAB_SEED" in os.environ:
        scenario = dataclasses.replace(scenario, seed=_resolve_seed(args.seed))
    violations = validate_scenario(scenario)
    if violations:
        raise PeclabError("invalid scenario: " + "; ".join(violations))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.emit_csv:
        generate_scenario(scenario, 0).to_csv(args.emit_csv)
    results = run_study(scenario, methods, jobs=max(args.jobs, 1))
    fh, close = _out_stream(args.out)
    try:
        # runtime stays off the CSV so identical invocations are bit-identical
        fh.write("scenario,method,estimand,mean,mc_sd,runs\n")
        for r in results:
            fh.write(
                f"{r.scenario_name},{r.method},{r.estimand.value},{_fmt(r.mean_estimate)},"
                f"{_fmt(r.mc_sd)},{r.replications}\n"
            )
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    report_ = reproduce(
        args.table,
        n=args.n,
        runs=args.runs,
        seed=args.seed if args.seed is not None else _resolve_seed(None),
        jobs=max(args.jobs, 1),
    )
    fh, close = _out_stream(args.out)
    try:
        report_.write_csv(fh)
    finally:
        if close:
            fh.close()
    print(
        f"{args.table}: {report_.n_pass}/{len(report_.cells)} cells within tolerance "
        f"({report_.runtime_ms} ms)",
        file=sys.stderr,
    )
    return EXIT_OK if report_.all_pass else EXIT_REPRO_FAIL


def _cmd_exchprob(args) -> int:
    if args.table2:
        ds = generate_table2_world(args.n, _resolve_seed(args.seed))
    else:
        ds = Dataset.from_csv(args.from_csv)
    table = empirical_table(ds)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("xep,x,y,p,mode\n")
            for xep, x, y, p in table.rows():
                fh.write(f"{_fmt(xep)},{_fmt(x)},{_fmt(y)},{_fmt(p)},{table.mode.value}\n")
    if args.grid or not args.out:
        cols = table.grid_columns()
        header = ["xep"] + [f"x={_fmt(x)};y={_fmt(y)}" for x, y in cols] + ["sum"]
        print(",".join(header))
        for xep in table.xep_support:
            row = [table.cell(xep, x, y) for x, y in cols]
            print(
                ",".join([_fmt(xep)] + [_fmt(v) for v in row] + [_fmt(table.slice_sum(xep))])
            )
    return EXIT_OK


def _cmd_bias(args) -> int:
    if args.figure2:
        with open(args.figure2, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("gamma1,p,lambda\n")
            for g, p, lam in figure2_grid():
                fh.write(f"{_fmt(g)},{_fmt(p)},{_fmt(lam)}\n")
        if args.gamma1 is None and args.from_csv is None:
            return EXIT_OK
    if args.from_csv is not None:
        ds = Dataset.from_csv(args.from_csv)
        ds.require("X", "Xep")
        adjust = [c.strip() for c in args.adjust.split(",") if c.strip()]
        rep = report_from_data(ds["X"], ds["Xep"], [ds[c] for c in adjust])
    else:
        if args.gamma1 is None or args.var_x is None or args.var_u is None:
            raise PeclabError("bias needs either --from-csv or all of --gamma1/--var-x/--var-u")
        rep = report(args.gamma1, args.var_x, args.var_u)
    lines = [
        ("lambda", rep.lambda_),
        ("gamma1", rep.gamma1),
        ("p_rd", rep.p_rd),
        ("r_squared_check", rep.r_squared_check),
        ("surrogate_lower", rep.surrogate_lower),
        ("surrogate_upper", rep.surrogate_upper),
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("quantity,value\n")
            for k, v in lines:
                fh.write(f"{k},{_fmt(v)}\n")
    else:
        width = max(len(k) for k, _ in lines)
        for k, v in lines:
            print(f"{k:<{width}}  {_fmt(v)}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    ds = Dataset.from_csv(args.input)
    fits = fit_calibration(
        ds, condition=args.condition, validation_fraction=args.validation_fraction
    )
    calibrated = apply_calibration(fits, ds)
    calibrated.to_csv(args.out)
    if args.coef_out:
        with open(args.coef_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("target,term,coefficient,residual_sd\n")
            for fit in fits:
                names = ("intercept",) + fit.regressors
                for name, coef in zip(names, fit.coefficients.coefficients):
                    fh.write(f"{fit.target},{name},{_fmt(coef)},{_fmt(fit.residual_sd)}\n")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    ds = Dataset.from_csv(args.input)
    adjust = [c.strip() for c in args.adjust.split(",") if c.strip()]
    estimand = Estimand.RISK_DIFFERENCE if args.estimand == "rd" else Estimand.RISK_RATIO
    if args.method == "naive":
        if estimand is Estimand.RISK_RATIO:
            raise PeclabError("naive regression reports risk differences only")
        est = naive_regression_aee(ds, args.exposure, adjust, Link.IDENTITY, delta=args.delta)
    elif args.method == "gcomp":
        rd, rr = g_computation(ds, args.exposure, adjust, delta=args.delta)
        est = rr if estimand is Estimand.RISK_RATIO else rd
    else:
        if estimand is Estimand.RISK_RATIO:
            raise PeclabError("ipw reports risk differences only")
        est = ipw_gps_aee(
            ds, args.exposure, adjust, delta=args.delta,
            truncate_quantile=args.truncate_quantile,
        )
    fh, close = _out_stream(args.out)
    try:
        fh.write("method,estimand,delta,value\n")
        fh.write(f"{est.method.value},{est.estimand.value},{_fmt(est.delta)},{_fmt(est.value)}\n")
    finally:
        if close:
            fh.close()
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "reproduce": _cmd_reproduce,
    "exchprob": _cmd_exchprob,
    "bias": _cmd_bias,
    "calibrate": _cmd_calibrate,
    "estimate": _cmd_estimate,
}


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse exits itself for --help; keep its code for that path
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except PeclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
