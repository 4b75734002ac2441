import argparse
import io
import multiprocessing
import os
import pickle
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from peclab import harness, worlds
from peclab.calibrate import apply_calibration, fit_calibration
from peclab.cli import build_parser
from peclab.datagen import generate_scenario, generate_table2_world
from peclab.errors import ConvergenceError, ParameterError, PeclabError, SingularDesignError
from peclab.exchprob import aee_from_table, empirical_table
from peclab.harness import (
    METHODS,
    PUBLISHED_TABLE2,
    STUDY_TABLES,
    TABLES,
    ReproReport,
    _replicate,
    _table2_fits,
    reproduce,
    run_study,
)
from peclab.model import Dataset, DistributionSpec, Estimand, ErrorKind
from peclab.regress import INTERCEPT, ColumnFactor, design_with_intercept, ols

RD = Estimand.RISK_DIFFERENCE
RR = Estimand.RISK_RATIO


def test_published_grid_has_45_cells():
    assert len(PUBLISHED_TABLE2) == 45
    zero_cells = sum(1 for v in PUBLISHED_TABLE2.values() if v == 0)
    assert zero_cells == 18


def test_single_replication_mean_equals_estimate_and_zero_sd():
    s = worlds.table3_scenario(1, n=2000, replications=1, seed=7)
    results = run_study([s], ["naive_cep"])
    assert len(results) == 1
    r = results[0]
    assert r.replications == 1
    assert r.mc_sd == 0.0
    again = run_study([s], ["naive_cep"])[0]
    assert again.mean_estimate == r.mean_estimate


def test_run_study_deterministic():
    s = worlds.table3_scenario(2, n=2000, replications=6, seed=11)
    a = run_study([s], ["naive_cep", "rc"])
    b = run_study([s], ["naive_cep", "rc"])
    for ra, rb in zip(a, b):
        assert ra.mean_estimate == rb.mean_estimate
        assert ra.mc_sd == rb.mc_sd


def test_parallel_jobs_reduce_identically():
    s = worlds.table3_scenario(1, n=2000, replications=8, seed=13)
    serial = run_study([s], STUDY_TABLES["table3"].methods, jobs=1)
    parallel = run_study([s], STUDY_TABLES["table3"].methods, jobs=2)
    assert [(r.method, r.estimand, r.mean_estimate, r.mc_sd) for r in serial] == [
        (r.method, r.estimand, r.mean_estimate, r.mc_sd) for r in parallel
    ]


def test_two_seeds_agree_within_clt_band():
    kwargs = dict(n=2000, replications=40)
    a = run_study([worlds.table3_scenario(1, seed=101, **kwargs)], ["naive_cep"])[0]
    b = run_study([worlds.table3_scenario(1, seed=202, **kwargs)], ["naive_cep"])[0]
    band = 4 * (a.mc_sd + b.mc_sd) / np.sqrt(kwargs["replications"])
    assert abs(a.mean_estimate - b.mean_estimate) < band


def test_replication_estimates_uncorrelated():
    # 1600 replications put the null sd of the lag-1 autocorrelation at
    # 0.025, so the 0.05 bound is a real independence check
    s = worlds.table3_scenario(1, n=250, replications=1600, seed=17)
    from peclab.datagen import generate_scenario
    from peclab.estimate import naive_regression_aee

    vals = np.array(
        [
            naive_regression_aee(generate_scenario(s, rep), "Xep", ["Cep"])
            for rep in range(1600)
        ]
    )
    vals = vals - vals.mean()
    lag1 = float(np.sum(vals[:-1] * vals[1:]) / np.sum(vals * vals))
    assert abs(lag1) < 0.05


def test_unknown_method_rejected():
    s = worlds.table3_scenario(1, n=100, replications=1)
    with pytest.raises(ParameterError):
        run_study([s], ["definitely_not_a_method"])
    with pytest.raises(ParameterError):
        run_study([s], [])
    with pytest.raises(ParameterError, match=r"^repeated method\(s\): naive_cep$"):
        run_study([s], ["naive_cep", "naive_cep"])


def test_results_come_in_method_order_rd_before_rr():
    s = worlds.table4_scenario(1, n=2000, replications=2, seed=19)
    results = run_study([s], ["naive_cep", "gcomp_cep", "rc"])
    assert [(r.method, r.estimand) for r in results] == [
        ("naive_cep", RD), ("gcomp_cep", RD), ("gcomp_cep", RR), ("rc", RD),
    ]


def test_binary_methods_return_both_estimands():
    s = worlds.table4_scenario(1, n=4000, replications=2, seed=19)
    results = run_study([s], ["gcomp_true_cv"])
    estimands = {r.estimand for r in results}
    assert estimands == {Estimand.RISK_DIFFERENCE, Estimand.RISK_RATIO}


def test_table4_replication_fits_each_outcome_model_once(monkeypatch):
    import peclab.estimate

    fits = []
    irls = peclab.estimate.logistic_irls

    def counting_irls(*args, **kwargs):
        fits.append(kwargs.get("column_names"))
        return irls(*args, **kwargs)

    monkeypatch.setattr(peclab.estimate, "logistic_irls", counting_irls)
    s = worlds.table4_scenario(1, n=4000, replications=1, seed=19)
    out = _replicate(s, 0, STUDY_TABLES["table4"].methods)
    # gcomp_rc's design maps from gcomp_cep_vep's, so it takes that fit
    assert len(fits) == 3
    assert len(set(fits)) == 3
    assert len(out) == 8


def _counting_calibrations(monkeypatch) -> list:
    import peclab.harness

    calls = []
    fit = peclab.harness.fit_calibration

    def counting_fit(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(peclab.harness, "fit_calibration", counting_fit)
    return calls


@pytest.mark.parametrize("name", METHODS)
def test_every_method_row_runs(name, monkeypatch):
    kind = METHODS[name][0]
    calibrations = _counting_calibrations(monkeypatch)
    build = worlds.table4_scenario if kind == "gcomp" else worlds.table3_scenario
    results = run_study([build(1, n=2000, replications=2, seed=23)], [name])
    assert {r.estimand for r in results} == ({RD, RR} if kind == "gcomp" else {RD})
    assert all(np.isfinite(r.mean_estimate) for r in results)
    # one calibration per replication for the rows on calibrated columns
    assert len(calibrations) == (2 if name == "rc" or name.endswith("_rc") else 0)


def _dispatch_worlds():
    """(method, scenario) for every METHODS row: the naive and ipw rows on
    a table3 world, the gcomp rows on a table4 and on a table5 world."""
    for seed in (5, 11):
        size = dict(n=2000, replications=1, seed=seed)
        for name, (kind, _, _) in METHODS.items():
            if kind == "gcomp":
                yield name, worlds.table4_scenario(2, **size)
                yield name, worlds.table5_scenario(0.0, 0.5, **size)
            else:
                yield name, worlds.table3_scenario(2, **size)


@pytest.mark.parametrize("name, scenario", _dispatch_worlds())
def test_estimate_kind_on_a_saved_world_is_the_replication(name, scenario, tmp_path):
    # the CSV round trip is exact, so the saved world has the same factor
    # and fits as the one the replication generates
    kind, exposure, adjust = METHODS[name]
    path = tmp_path / "world.csv"
    generate_scenario(scenario, 0).to_csv(path)
    ds = Dataset.from_csv(path)
    if exposure.endswith("_RC"):
        ds = apply_calibration(fit_calibration(ds, condition="two"), ds)
    got = harness.estimate_kind(kind, ds, exposure, adjust)
    assert list(got) == ([RD, RR] if kind == "gcomp" else [RD])
    assert [((name, e), v) for e, v in got.items()] == list(_replicate(scenario, 0, [name]).items())


def test_calibration_runs_once_per_replication(monkeypatch):
    calibrations = _counting_calibrations(monkeypatch)
    s = worlds.table3_scenario(1, n=2000, replications=3, seed=23)
    run_study([s], STUDY_TABLES["table3"].methods)  # rc and ipw_rc share it
    assert len(calibrations) == 3


def test_worker_error_reaches_caller_alike_at_any_jobs():
    # a constant confounder makes the oracle's design singular in C; alone,
    # and as the second scenario of a table after one that runs cleanly
    def singular(idx):
        s = worlds.table3_scenario(idx, n=500, replications=2, seed=3)
        return replace(s, c_model=replace(s.c_model, noise=DistributionSpec.point_mass(0.0)))

    good = worlds.table3_scenario(1, n=500, replications=2, seed=3)
    for scenarios, failing in (([singular(1)], "table3-1"), ([good, singular(2)], "table3-2")):
        errors = []
        for jobs in (1, 2):
            with pytest.raises(SingularDesignError) as err:
                run_study(scenarios, ["oracle_true"], jobs=jobs)
            assert err.value.columns == ["C"]
            errors.append(err.value)
        assert str(errors[0]) == str(errors[1])
        assert str(errors[0]).startswith(f"scenario {failing}: design matrix is rank deficient")
        for exc in errors:
            assert isinstance(exc.__cause__, SingularDesignError)
            assert exc.__cause__.columns == ["C"]
    trace = pickle.loads(pickle.dumps(ConvergenceError("no", trace=[1.0, 2.0]))).trace
    assert trace == [1.0, 2.0]


def test_worker_error_keeps_its_class_and_attributes(monkeypatch):
    from peclab import harness

    def diverge(*args, **kwargs):
        raise ConvergenceError("IRLS did not converge", trace=[-3.0, -2.5])

    monkeypatch.setattr(harness, "naive_regression_aee", diverge)
    s = worlds.table3_scenario(1, n=200, replications=1, seed=3)
    with pytest.raises(ConvergenceError) as err:
        run_study([s], ["naive_cep"], jobs=1)
    assert str(err.value) == "scenario table3-1: IRLS did not converge"
    assert err.value.trace == [-3.0, -2.5]
    assert err.value.__cause__.trace == [-3.0, -2.5]


def _forbidden(*args, **kwargs):
    pytest.fail("a worker process or a draw was started where none may be")


def _forbid_workers_and_draws(monkeypatch):
    from peclab import harness

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _forbidden)
    monkeypatch.setattr(harness, "generate_scenario", _forbidden)


def _count_children(monkeypatch) -> list:
    """Record the (start, stop) block of each child process started."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting(process):
        started.append(process._args[3:])
        return start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
    return started


@pytest.mark.parametrize("jobs", [1, 2])
def test_berkson_confounder_error_rejected_before_any_worker(jobs, monkeypatch):
    _forbid_workers_and_draws(monkeypatch)

    def berkson(idx):
        s = worlds.table3_scenario(idx, n=200, replications=2, seed=3)
        return replace(s, confounder_error=replace(s.confounder_error, kind=ErrorKind.PURE_BERKSON))

    good = worlds.table3_scenario(1, n=200, replications=2, seed=3)
    for scenarios, failing in (([berkson(1)], "table3-1"), ([good, berkson(2)], "table3-2")):
        with pytest.raises(ParameterError, match=rf"^scenario {failing}: confounder_error\.kind "):
            run_study(scenarios, ["naive_cep"], jobs=jobs)


@pytest.mark.parametrize("field", ["seed", "n", "replications"])
def test_run_study_rejects_scenarios_that_disagree(field, monkeypatch):
    _forbid_workers_and_draws(monkeypatch)
    a = worlds.table3_scenario(1, n=200, replications=2, seed=3)
    b = replace(worlds.table3_scenario(2, n=200, replications=2, seed=3), **{field: 4})
    with pytest.raises(ParameterError, match=f"^scenarios of one study must share {field}, "):
        run_study([a, b], ["naive_cep"], jobs=2)
    with pytest.raises(ParameterError, match="^scenarios must be non-empty$"):
        run_study([], ["naive_cep"], jobs=2)


def test_table5_draws_each_stream_once_per_replication_in_one_pool(monkeypatch):
    from collections import Counter

    from peclab import datagen, harness

    calls = {"sample": Counter(), "uniforms": Counter()}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            key = args[1] if name == "sample" else args[0]
            calls[name][key.replication_index] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(datagen, "sample", counting("sample", datagen.sample))
    monkeypatch.setattr(datagen, "uniforms", counting("uniforms", datagen.uniforms))
    serial = io.StringIO()
    reproduce("table5", n=500, runs=2, seed=worlds.DEFAULT_SEED, jobs=1).write_csv(serial)
    # 7 scenarios x 2 replications, each of the 8 streams drawn once per replication
    assert calls == {"sample": Counter({0: 7, 1: 7}), "uniforms": Counter({0: 1, 1: 1})}

    started = _count_children(monkeypatch)
    parallel = io.StringIO()
    reproduce("table5", n=500, runs=2, seed=worlds.DEFAULT_SEED, jobs=2).write_csv(parallel)
    # one set of 2 workers for all 7 scenarios, one replication each
    assert started == [(0, 1), (1, 2)]
    assert parallel.getvalue() == serial.getvalue()
    assert multiprocessing.active_children() == []


def test_uneven_blocks_give_the_serial_results_at_any_jobs(monkeypatch):
    s = worlds.table3_scenario(2, n=300, replications=5, seed=11)
    serial = run_study([s], ["naive_cep", "rc"], jobs=1)
    assert len(serial) == 2
    # contiguous blocks whose sizes differ by at most one, at most one per replication
    for jobs, blocks in (
        (2, [(0, 2), (2, 5)]),
        (3, [(0, 1), (1, 3), (3, 5)]),
        (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    ):
        started = _count_children(monkeypatch)
        assert run_study([s], ["naive_cep", "rc"], jobs=jobs) == serial
        assert started == blocks
        assert multiprocessing.active_children() == []


def test_one_replication_starts_no_child(monkeypatch):
    s = worlds.table3_scenario(1, n=200, replications=1, seed=3)
    serial = run_study([s], ["naive_cep"], jobs=1)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _forbidden)
    assert run_study([s], ["naive_cep"], jobs=2) == serial


# a monkeypatch in this process reaches a child only through fork
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the children are not forked"
)


@fork_only
def test_a_childs_other_exception_keeps_its_class(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not a peclab error")

    monkeypatch.setattr(harness, "naive_regression_aee", broken)
    s = worlds.table3_scenario(1, n=200, replications=2, seed=3)
    with pytest.raises(ValueError) as err:
        run_study([s], ["naive_cep"], jobs=2)
    assert str(err.value) == "not a peclab error"
    # the child's traceback comes as a note
    assert "in broken" in err.value.__notes__[-1]
    assert multiprocessing.active_children() == []


@fork_only
def test_a_child_that_exits_without_replying_is_one_error(monkeypatch):
    # the first block's child exits at once; the second's would stall for a minute
    def vanish_or_stall(scenario, rep, *args):
        if rep == 0:
            os._exit(7)
        time.sleep(60)

    monkeypatch.setattr(harness, "_replicate", vanish_or_stall)
    s = worlds.table3_scenario(1, n=200, replications=4, seed=3)
    start = time.monotonic()
    with pytest.raises(
        RuntimeError,
        match=r"^the worker for replications 0\.\.1 exited with code 7 before it replied$",
    ):
        run_study([s], ["naive_cep"], jobs=2)
    # the stalled child was terminated, not waited for
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_reproduce_table2_report_shape():
    report = reproduce("table2", n=200_000, seed=worlds.DEFAULT_SEED)
    # 45 grid cells + 2 AEE rows + 2 calibration rows + 1 r-squared row
    assert len(report.cells) == 50
    fh = io.StringIO()
    report.write_csv(fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "scenario,method,estimand,mean,mc_sd,runs,paper_value,abs_diff,pass"
    assert len(lines) == 51


@pytest.mark.parametrize("runs, message", [(7, "table2 draws one world and takes no runs"),
                                           (1, "table2 draws one world and takes no runs"),
                                           (0, "runs must be >= 1")])
def test_reproduce_table2_rejects_runs_it_would_ignore(runs, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        reproduce("table2", n=2000, runs=runs)


TABLE2_FITS = (("calibration", "gamma0"), ("calibration", "gamma1"), ("p_rd", "r_squared"))


@pytest.mark.parametrize("seed", [worlds.DEFAULT_SEED, 12])
def test_table2_calibration_cells_are_the_exact_moments(seed):
    # the world's columns are integers, so gamma0, gamma1 and the R^2 are
    # exact rationals of their moments: the cells are within 4 ulps of
    # those, and agree with tall ols fits to rounding
    n = 100_000
    ds = generate_table2_world(n, seed)
    cells = {(c.method, c.estimand): c.mean for c in reproduce("table2", n=n, seed=seed).cells}
    e, x = (ds[name].astype(np.int64) for name in ("Xep", "X"))
    se, sx = int(e.sum()), int(x.sum())
    s_ee = Fraction(n * int(e @ e) - se * se, n)
    s_xx = Fraction(n * int(x @ x) - sx * sx, n)
    s_ex = Fraction(n * int(e @ x) - se * sx, n)
    gamma1 = s_ex / s_ee
    exact = (Fraction(sx, n) - gamma1 * Fraction(se, n), gamma1, s_ex * s_ex / (s_ee * s_xx))
    g0, g1 = ols(design_with_intercept(ds["Xep"]), ds["X"]).coefficients
    tall = (g0, g1, ols(design_with_intercept(ds["X"]), ds["Xep"]).r_squared)
    for key, want, fitted in zip(TABLE2_FITS, exact, tall):
        assert abs(Fraction(cells[key]) - want) <= 4 * Fraction(np.spacing(float(want))), key
        assert cells[key] == pytest.approx(fitted, rel=1e-12, abs=0), key


def _table2_qr_fits(ds, table):
    """Reference: table2's (gamma0, gamma1, R^2) as one QR of [1, Xep, X]
    gave them, after the AEEs' support checks."""
    aee_from_table(table, 10.0, 9.0)
    aee_from_table(table, 11.0, 9.0)
    factor = ColumnFactor.of({"Xep": ds["Xep"]}, {"X": ds["X"]})
    g0, g1 = factor.fit((INTERCEPT, "Xep"), "X").coefficients
    return g0, g1, factor.fit((INTERCEPT, "X"), "Xep").r_squared


def _outcome(call):
    try:
        return call()
    except PeclabError as exc:
        return type(exc), str(exc), getattr(exc, "columns", None)


def test_table2_small_worlds_match_the_qr_fits(monkeypatch):
    # every world small enough to lack a stratum or to have a constant
    # column: the report raises what the QR reference raises on its world
    # (the report's stream, concatenated) and table, in the same order, or
    # reports the reference's fits to rounding
    tabulated = []

    def recording_table(blocks):
        tabulated.append(empirical_table(blocks))
        return tabulated[-1]

    monkeypatch.setattr(harness, "empirical_table", recording_table)
    kinds = Counter()
    for n in range(1, 13):
        for seed in range(200):
            got = _outcome(lambda: reproduce("table2", n=n, seed=seed))
            world = generate_table2_world(n, seed)
            want = _outcome(lambda: _table2_qr_fits(world, tabulated[-1]))
            if isinstance(got, ReproReport):
                cells = {(c.method, c.estimand): c.mean for c in got.cells}
                assert [cells[key] for key in TABLE2_FITS] == pytest.approx(
                    want, rel=0, abs=1e-12
                ), (n, seed)
                kinds["report"] += 1
            else:
                assert got == want, (n, seed)
                kinds[got[0].__name__] += 1
    assert len(tabulated) == 12 * 200
    assert kinds["report"] > 0 and kinds["SupportError"] > 0
    assert kinds["SingularDesignError"] > 0


def test_table2_constant_measured_exposure_is_named_first():
    # both columns constant: the calibration design [1, Xep] is the one named
    ones = np.ones(6)
    for x in (9 * ones, np.array([8.0, 9, 10, 8, 9, 10])):
        table = empirical_table(Dataset({"X": x, "Xep": 9 * ones, "Y": ones}))
        with pytest.raises(SingularDesignError, match=r"offending columns: Xep\)$") as err:
            _table2_fits(table)
        assert err.value.columns == ["Xep"]


def test_table2_rank_deficient_fit_names_the_column():
    # at this seed and size X is constant while Xep covers 9..11, so the
    # tabulation succeeds and the R^2 design [1, X] is singular
    with pytest.raises(SingularDesignError) as err:
        reproduce("table2", n=3, seed=152)
    assert err.value.columns == ["X"]


def test_reproduce_rejects_unknown_table():
    with pytest.raises(ParameterError):
        reproduce("table9")


def test_reproduce_csv_bit_identical():
    a, b = io.StringIO(), io.StringIO()
    reproduce("table2", n=150_000, seed=77).write_csv(a)
    reproduce("table2", n=150_000, seed=77).write_csv(b)
    assert a.getvalue() == b.getvalue()


def test_reproduce_small_table3_runs():
    report = reproduce("table3", n=1500, runs=3, seed=5, jobs=2)
    assert len(report.cells) == 15
    assert all(c.runs == 3 for c in report.cells)


# documented report sizes: table2 is 45 grid cells + 5 worked-example rows;
# the study tables are scenarios x published cells (3x5, 3x8, 7x8)
REPORT_CELLS = {"table2": 50, "table3": 15, "table4": 24, "table5": 56}


@pytest.mark.parametrize("table", TABLES)
def test_every_table_reproduces_at_tiny_size(table):
    # table2 draws one world and rejects runs
    runs = None if table == "table2" else 2
    report = reproduce(table, n=2000, runs=runs, seed=worlds.DEFAULT_SEED)
    assert len(report.cells) == REPORT_CELLS[table]
    keys = [(c.scenario, c.method, c.estimand) for c in report.cells]
    assert len(set(keys)) == len(keys)
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    table_flag = next(
        a for a in subcommands.choices["reproduce"]._actions if a.dest == "table"
    )
    assert list(table_flag.choices) == list(TABLES)
