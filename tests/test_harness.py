import io

import numpy as np
import pytest

from peclab import worlds
from peclab.errors import ParameterError
from peclab.harness import (
    PUBLISHED_TABLE2,
    TABLE3_METHODS,
    TABLE4_METHODS,
    _replicate,
    reproduce,
    run_study,
)
from peclab.model import Estimand


def test_published_grid_has_45_cells():
    assert len(PUBLISHED_TABLE2) == 45
    zero_cells = sum(1 for v in PUBLISHED_TABLE2.values() if v == 0)
    assert zero_cells == 18


def test_single_replication_mean_equals_estimate_and_zero_sd():
    s = worlds.table3_scenario(1, n=2000, replications=1, seed=7)
    results = run_study(s, ["naive_cep"])
    assert len(results) == 1
    r = results[0]
    assert r.replications == 1
    assert r.mc_sd == 0.0
    again = run_study(s, ["naive_cep"])[0]
    assert again.mean_estimate == r.mean_estimate


def test_run_study_deterministic():
    s = worlds.table3_scenario(2, n=2000, replications=6, seed=11)
    a = run_study(s, ["naive_cep", "rc"])
    b = run_study(s, ["naive_cep", "rc"])
    for ra, rb in zip(a, b):
        assert ra.mean_estimate == rb.mean_estimate
        assert ra.mc_sd == rb.mc_sd


def test_parallel_jobs_reduce_identically():
    s = worlds.table3_scenario(1, n=2000, replications=8, seed=13)
    serial = run_study(s, TABLE3_METHODS, jobs=1)
    parallel = run_study(s, TABLE3_METHODS, jobs=2)
    assert [(r.method, r.estimand, r.mean_estimate, r.mc_sd) for r in serial] == [
        (r.method, r.estimand, r.mean_estimate, r.mc_sd) for r in parallel
    ]


def test_two_seeds_agree_within_clt_band():
    kwargs = dict(n=2000, replications=40)
    a = run_study(worlds.table3_scenario(1, seed=101, **kwargs), ["naive_cep"])[0]
    b = run_study(worlds.table3_scenario(1, seed=202, **kwargs), ["naive_cep"])[0]
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
            naive_regression_aee(generate_scenario(s, rep), "Xep", ["Cep"]).value
            for rep in range(1600)
        ]
    )
    vals = vals - vals.mean()
    lag1 = float(np.sum(vals[:-1] * vals[1:]) / np.sum(vals * vals))
    assert abs(lag1) < 0.05


def test_unknown_method_rejected():
    s = worlds.table3_scenario(1, n=100, replications=1)
    with pytest.raises(ParameterError):
        run_study(s, ["definitely_not_a_method"])
    with pytest.raises(ParameterError):
        run_study(s, [])


def test_binary_methods_return_both_estimands():
    s = worlds.table4_scenario(1, n=4000, replications=2, seed=19)
    results = run_study(s, ["gcomp_true_cv"])
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
    out = _replicate(s, 0, TABLE4_METHODS)
    assert len(fits) == 4
    assert len(set(fits)) == 4
    assert len(out) == 8


def test_reproduce_table2_report_shape():
    report = reproduce("table2", n=200_000, seed=worlds.DEFAULT_SEED)
    # 45 grid cells + 2 AEE rows + 2 calibration rows + 1 r-squared row
    assert len(report.cells) == 50
    fh = io.StringIO()
    report.write_csv(fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "scenario,method,estimand,mean,mc_sd,runs,paper_value,abs_diff,pass"
    assert len(lines) == 51


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
