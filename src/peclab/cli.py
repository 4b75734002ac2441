"""Command-line entry point.

Subcommands: simulate, reproduce, exchprob, bias, calibrate, estimate.
Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 reproduction-check failure. Diagnostics go to stderr; data to stdout or
--out files. PECLAB_SEED provides a fallback seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import signal
import sys

from . import worlds
from .biasfactor import figure2_grid, report, report_from_data
from .calibrate import apply_calibration, fit_calibration
from .datagen import generate_scenario, generate_table2_world
from .errors import PeclabError
from .estimate import g_computation, ipw_gps_aee, naive_regression_aee
from .exchprob import empirical_table
from .harness import METHODS, TABLE2_N, TABLES, _fmt, reproduce, run_study
from .model import Dataset, Estimand, load_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REPRO_FAIL = 3


# the method label the estimate CSV reports for each --method choice
_ESTIMATE_LABELS = {"naive": "naive", "gcomp": "gComputation", "ipw": "ipwGps"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _names(text: str) -> list[str]:
    """A comma-separated list of names, blanks dropped."""
    return [name.strip() for name in text.split(",") if name.strip()]


def _reject_given(args, names, option: str) -> None:
    """Reject, in one message, the named options given beside ``option``."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise PeclabError(f"{option} takes no {', '.join(given)}")


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


@contextlib.contextmanager
def _output(path):
    """The stream a data-writing option names: stdout for None or "-"."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def build_parser() -> _Parser:
    p = _Parser(prog="peclab", description=__doc__)
    sub = p.add_subparsers(dest="command", metavar="command")

    sim = sub.add_parser("simulate", help="run a scenario file across replications")
    sim.add_argument("--scenario", required=True, help="scenario file path")
    sim.add_argument("--runs", type=int, default=None, help="override replications")
    sim.add_argument("--n", type=int, default=None, help="override observations per run")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--jobs", type=int, default=_default_jobs(), help="parallel workers")
    sim.add_argument("--methods", type=_names, default="naive_cep,naive_cep_vep,rc",
                     help=f"comma-separated method names (choices: {', '.join(sorted(METHODS))})")
    sim.add_argument("--out", default=None, help="results CSV path (default stdout)")
    sim.add_argument("--emit-csv", default=None, metavar="PATH",
                     help="also write replication 0 as a dataset CSV (- for stdout)")

    rep = sub.add_parser("reproduce", help="reproduce a published table cell by cell")
    rep.add_argument("--table", required=True, choices=TABLES)
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
    exch.add_argument("--n", type=int, default=None, help=f"rows for --table2 (default {TABLE2_N})")
    exch.add_argument("--seed", type=int, default=None)
    exch.add_argument("--grid", action="store_true",
                      help="print the probability grid plus row sums to stdout")
    exch.add_argument("--out", default=None, help="long-format CSV path (- for stdout)")

    bias = sub.add_parser("bias", help="bias-factor report (lambda, P_RD, bounds)")
    bias.add_argument("--gamma1", type=float, default=None)
    bias.add_argument("--var-x", type=float, default=None)
    bias.add_argument("--var-u", type=float, default=None)
    bias.add_argument("--from-csv", default=None, help="dataset CSV with X and Xep")
    bias.add_argument("--adjust", type=_names, default="",
                      help="comma-separated adjustment columns")
    bias.add_argument("--figure2", default=None, metavar="PATH",
                      help="write the (gamma1, P, lambda) curve grid CSV (- for stdout)")
    bias.add_argument("--out", default=None, help="report CSV path (- for stdout)")

    cal = sub.add_parser("calibrate", help="multiple regression calibration")
    cal.add_argument("--condition", choices=["one", "two"], default="two")
    cal.add_argument("--in", dest="input", required=True, help="dataset CSV")
    cal.add_argument("--out", required=True, help="calibrated dataset CSV (- for stdout)")
    cal.add_argument("--coef-out", default=None, help="fitted coefficients CSV (- for stdout)")
    cal.add_argument("--validation-fraction", type=float, default=None)

    est = sub.add_parser("estimate", help="causal effect estimation on a dataset CSV")
    est.add_argument("--method", required=True, choices=["naive", "gcomp", "ipw"])
    est.add_argument("--in", dest="input", required=True, help="dataset CSV")
    est.add_argument("--exposure", required=True, help="treatment/exposure column")
    est.add_argument("--adjust", type=_names, default="",
                     help="comma-separated adjustment columns")
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
    results = run_study([scenario], args.methods, jobs=args.jobs)
    # written once run_study has accepted the scenario and the methods
    if args.emit_csv:
        world = generate_scenario(scenario, 0)
        with _output(args.emit_csv) as fh:
            world.write_csv(fh)
    with _output(args.out) as fh:
        # runtime stays off the CSV so identical invocations are bit-identical
        fh.write("scenario,method,estimand,mean,mc_sd,runs\n")
        for r in results:
            fh.write(
                f"{r.scenario_name},{r.method},{r.estimand.value},{_fmt(r.mean_estimate)},"
                f"{_fmt(r.mc_sd)},{r.replications}\n"
            )
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    report_ = reproduce(
        args.table,
        n=args.n,
        runs=args.runs,
        seed=_resolve_seed(args.seed),
        jobs=args.jobs,
    )
    with _output(args.out) as fh:
        report_.write_csv(fh)
    print(
        f"{args.table}: {report_.n_pass}/{len(report_.cells)} cells within tolerance "
        f"({report_.runtime_ms} ms)",
        file=sys.stderr,
    )
    return EXIT_OK if report_.all_pass else EXIT_REPRO_FAIL


def _cmd_exchprob(args) -> int:
    if args.table2:
        ds = generate_table2_world(TABLE2_N if args.n is None else args.n, _resolve_seed(args.seed))
    else:
        _reject_given(args, ("n", "seed"), "--from-csv")
        ds = Dataset.from_csv(args.from_csv)
    table = empirical_table(ds)
    if args.out:
        with _output(args.out) as fh:
            fh.write("xep,x,y,p,mode\n")
            for xep, x, y, p in table.rows():
                fh.write(f"{_fmt(xep)},{_fmt(x)},{_fmt(y)},{_fmt(p)},{table.mode.value}\n")
    if args.grid or not args.out:
        # the (x, y) cells with mass in any Xep row, in (x, y) order
        mask = (table.probs > 0).any(axis=0)
        j, k = mask.nonzero()
        cols = [f"x={_fmt(x)};y={_fmt(y)}" for x, y in zip(table.x_support[j], table.y_support[k])]
        print(",".join(["xep", *cols, "sum"]))
        for xep, probs in zip(table.xep_support, table.probs):
            row = [_fmt(xep), *map(_fmt, probs[mask].tolist()), _fmt(table.slice_sum(xep))]
            print(",".join(row))
    return EXIT_OK


def _cmd_bias(args) -> int:
    if args.from_csv is None and args.adjust:
        raise PeclabError("--adjust needs --from-csv")
    # the report is checked and computed before any output is opened
    closed_form = (args.gamma1, args.var_x, args.var_u)
    rep = None
    if args.from_csv is not None:
        _reject_given(args, ("gamma1", "var_x", "var_u"), "--from-csv")
        rep = report_from_data(Dataset.from_csv(args.from_csv), args.adjust)
    elif not args.figure2 or args.out or any(v is not None for v in closed_form):
        if None in closed_form:
            raise PeclabError("bias needs either --from-csv or all of --gamma1/--var-x/--var-u")
        rep = report(*closed_form)
    if args.figure2:
        with _output(args.figure2) as fh:
            fh.write("gamma1,p,lambda\n")
            for g, p, lam in figure2_grid():
                fh.write(f"{_fmt(g)},{_fmt(p)},{_fmt(lam)}\n")
    if rep is None:
        return EXIT_OK
    # lambda_ reports as lambda
    lines = [(f.name.rstrip("_"), getattr(rep, f.name)) for f in dataclasses.fields(rep)]
    if args.out:
        with _output(args.out) as fh:
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
    with _output(args.out) as fh:
        calibrated.write_csv(fh)
    if args.coef_out:
        with _output(args.coef_out) as fh:
            fh.write("target,term,coefficient,residual_sd\n")
            for fit in fits:
                names = ("intercept",) + fit.regressors
                for name, coef in zip(names, fit.coefficients.coefficients):
                    fh.write(f"{fit.target},{name},{_fmt(coef)},{_fmt(fit.residual_sd)}\n")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.truncate_quantile is not None and args.method != "ipw":
        raise PeclabError("--truncate-quantile applies to --method ipw only")
    if args.estimand == "rr" and args.method != "gcomp":
        raise PeclabError("--method naive|ipw reports risk differences only")
    ds = Dataset.from_csv(args.input)
    estimand = Estimand.RISK_DIFFERENCE if args.estimand == "rd" else Estimand.RISK_RATIO
    if args.method == "naive":
        value = naive_regression_aee(ds, args.exposure, args.adjust, delta=args.delta)
    elif args.method == "gcomp":
        rd, rr = g_computation(ds, args.exposure, args.adjust, delta=args.delta)
        value = rr if estimand is Estimand.RISK_RATIO else rd
    else:
        value = ipw_gps_aee(
            ds, args.exposure, args.adjust, delta=args.delta,
            truncate_quantile=args.truncate_quantile,
        )
    with _output(args.out) as fh:
        fh.write("method,estimand,delta,value\n")
        fh.write(
            f"{_ESTIMATE_LABELS[args.method]},{estimand.value},{_fmt(args.delta)},{_fmt(value)}\n"
        )
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
    # a closed stdout (peclab ... | head) ends peclab silently, as it does cat;
    # dispatch, which runs in process too, leaves the signal as it finds it
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
