"""The per-world QR factor: its fits against the explicit-design kernels, the
calibrated designs that map from the measured one, and the counters that
say each world is factorised once and each column space fitted once."""

import re
from dataclasses import replace

import numpy as np
import pytest

from peclab import estimate, harness, regress, worlds
from peclab.calibrate import apply_calibration, fit_calibration
from peclab.datagen import generate_scenario
from peclab.errors import ParameterError, SchemaError, SingularDesignError
from peclab.estimate import g_computation, naive_regression_aee, stabilized_weights
from peclab.harness import METHODS, STUDY_TABLES, _replicate
from peclab.model import Dataset, DistributionSpec
from peclab.regress import (
    INTERCEPT,
    ColumnFactor,
    _sigmoid,
    design_with_intercept,
    logistic_irls,
    ols,
)

REL = 1e-12


def _calibrated(scenario, rep=0):
    ds = generate_scenario(scenario, rep)
    return apply_calibration(fit_calibration(ds, condition="two"), ds)


def _explicit(ds, names):
    return design_with_intercept(*[ds[c] for c in names[1:]])


def _assert_same_fit(got, want):
    np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=REL, atol=0)
    assert got.residual_variance == pytest.approx(want.residual_variance, rel=REL, abs=0)
    assert got.r_squared == pytest.approx(want.r_squared, rel=REL, abs=0)


# ---------------------------------------------------------------------------
# Fits from R against ols on the explicit design


@pytest.mark.parametrize("idx", [1, 2, 3])
def test_factor_fits_equal_ols_for_every_method_design(idx):
    ds = _calibrated(worlds.table3_scenario(idx, n=10_000, seed=61))
    factor = ds.factor()
    for name, (_, exposure, adjust) in METHODS.items():
        outcome = (INTERCEPT, exposure, *adjust)
        want = ols(_explicit(ds, outcome), ds["Y"], column_names=outcome)
        _assert_same_fit(factor.fit(outcome, "Y"), want)
        gps = (INTERCEPT, *adjust)
        want = ols(_explicit(ds, gps), ds[exposure], column_names=gps)
        _assert_same_fit(factor.fit(gps, exposure), want)


def test_factor_calibration_equals_ols():
    ds = generate_scenario(worlds.table3_scenario(2, n=10_000, seed=62), 0)
    fits = fit_calibration(ds, condition="two")
    for f in fits:
        names = (INTERCEPT, *f.regressors)
        want = ols(_explicit(ds, names), ds[f.target], column_names=names)
        _assert_same_fit(f.coefficients, want)
        # the leading block of R is the triangular system ols solves
        np.testing.assert_array_equal(f.coefficients.coefficients, want.coefficients)


def test_factor_on_a_csv_dataset_without_measured_columns():
    rng = np.random.default_rng(63)
    n = 500
    c, v = rng.normal(size=n), rng.normal(size=n)
    x = 0.5 * c + rng.normal(size=n)
    ds = Dataset({"X": x, "C": c, "V": v, "Y": 1.0 + x - c + rng.normal(size=n)})
    names = (INTERCEPT, "X", "C", "V")
    _assert_same_fit(ds.factor().fit(names, "Y"), ols(_explicit(ds, names), ds["Y"]))
    # a design in another order than the factor's is a permutation of its basis
    names = (INTERCEPT, "V", "X")
    _assert_same_fit(ds.factor().fit(names, "Y"), ols(_explicit(ds, names), ds["Y"]))


def test_factor_with_fewer_rows_than_columns_still_fits():
    rng = np.random.default_rng(64)
    ds = Dataset({k: rng.normal(size=6) for k in ("X", "Xep", "C", "Cep", "V", "Vep", "Y")})
    names = (INTERCEPT, "Xep", "Cep")
    _assert_same_fit(ds.factor().fit(names, "Y"), ols(_explicit(ds, names), ds["Y"]))
    with pytest.raises(ParameterError, match="need n > p"):
        ds.factor().fit((INTERCEPT, "X", "C", "V", "Xep", "Cep"), "Y")


# ---------------------------------------------------------------------------
# Calibrated designs map from the measured design's fit

_BINARY_WORLDS = [worlds.table4_scenario(i, n=10_000, seed=65) for i in (1, 2, 3)] + [
    worlds.table5_scenario(a, b, n=10_000, seed=65) for a, b in [(0.5, -0.5), (-0.5, 0.5)]
]


@pytest.mark.parametrize("delta", [1.0, 0.5])
@pytest.mark.parametrize("scenario", _BINARY_WORLDS, ids=lambda s: s.name)
def test_mapped_rc_fits_equal_direct_fits(scenario, delta, monkeypatch):
    ds = _calibrated(scenario)
    names = (INTERCEPT, "X_RC", "C_RC", "V_RC")
    design = _explicit(ds, names)

    direct = logistic_irls(design, ds["Y"], column_names=names)
    eta = direct.predict(design)
    p0 = _sigmoid(eta).mean()
    p1 = _sigmoid(eta + delta * direct.coefficients[1]).mean()

    fitted = []
    irls = estimate.logistic_irls

    def recording_irls(*args, **kwargs):
        fitted.append(kwargs["column_names"])
        return irls(*args, **kwargs)

    monkeypatch.setattr(estimate, "logistic_irls", recording_irls)
    rd, rr = g_computation(ds, "X_RC", ["C_RC", "V_RC"], delta=delta)
    assert fitted == [(INTERCEPT, "Xep", "Cep", "Vep")]
    assert rd == pytest.approx(p1 - p0, rel=REL, abs=0)
    assert rr == pytest.approx(p1 / p0, rel=REL, abs=0)

    want = ols(design, ds["Y"]).coefficients[1] * delta
    assert naive_regression_aee(ds, "X_RC", ["C_RC", "V_RC"], delta=delta) == pytest.approx(
        want, rel=REL, abs=0
    )


@pytest.mark.parametrize("table, method, basis_method", [
    ("table3", "rc", "naive_cep_vep"),
    ("table4", "gcomp_rc", "gcomp_cep_vep"),
])
def test_mapped_fit_does_not_depend_on_method_order(table, method, basis_method):
    s = STUDY_TABLES[table].build(2, n=4000, replications=1, seed=66)
    alone = _replicate(s, 0, [method])
    after = _replicate(s, 0, [basis_method, method])
    before = _replicate(s, 0, [method, basis_method])
    for key, value in alone.items():
        assert after[key] == value
        assert before[key] == value


def _x_is_c(scenario):
    """X = C exactly, so the calibrated X_RC and C_RC are the same column."""
    return replace(
        scenario,
        x_model=replace(
            scenario.x_model, intercept=0.0, coef_c=1.0, coef_v=0.0,
            noise=DistributionSpec.point_mass(0.0),
        ),
    )


def test_singular_map_raises_as_a_direct_fit_does():
    for build in (worlds.table3_scenario, worlds.table4_scenario):
        s = _x_is_c(build(1, n=2000, replications=1, seed=3))
        with pytest.raises(SingularDesignError) as err:
            _replicate(s, 0, ["naive_cep_vep", "rc"])
        assert err.value.columns == ["C_RC"]
        # the GPS design [1, C_RC, V_RC] has full rank; its treatment X_RC
        # is C_RC itself
        with pytest.raises(ParameterError, match="zero residual variance"):
            _replicate(s, 0, ["ipw_rc"])
    s = _x_is_c(worlds.table4_scenario(1, n=2000, replications=1, seed=3))
    for methods in (["gcomp_rc"], ["gcomp_cep_vep", "gcomp_rc"]):
        with pytest.raises(SingularDesignError) as err:
            _replicate(s, 0, methods)
        assert err.value.columns == ["C_RC"]
    # the explicit design names the same column
    ds = _calibrated(s)
    names = (INTERCEPT, "X_RC", "C_RC", "V_RC")
    with pytest.raises(SingularDesignError) as err:
        logistic_irls(_explicit(ds, names), ds["Y"], column_names=names)
    assert err.value.columns == ["C_RC"]


# ---------------------------------------------------------------------------
# One factorisation per world, one fit per column space


def _counting_tall_qr(monkeypatch):
    """Record each QR of a tall matrix, and whether ColumnFactor.of made it."""
    calls = []
    qr = np.linalg.qr
    of = ColumnFactor.of.__func__
    inside = []

    def counting_qr(a, *args, **kwargs):
        if np.shape(a)[0] > 100:
            calls.append(bool(inside))
        return qr(a, *args, **kwargs)

    def counting_of(cls, *args, **kwargs):
        inside.append(True)
        try:
            return of(cls, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(ColumnFactor, "of", classmethod(counting_of))
    return calls


def test_table3_world_is_factorised_once(monkeypatch):
    calls = _counting_tall_qr(monkeypatch)
    s = worlds.table3_scenario(1, n=2000, replications=1, seed=67)
    _replicate(s, 0, STUDY_TABLES["table3"].methods)
    # the world matrix's two blocks; the IPW outcome slopes are weighted
    # moments, with no design to factorise
    assert calls == [True, True]


@pytest.mark.parametrize("table", ["table4", "table5"])
def test_binary_world_has_no_tall_rank_check(table, monkeypatch):
    calls = _counting_tall_qr(monkeypatch)
    study = STUDY_TABLES[table]
    s = study.build(next(iter(study.published)), n=2000, replications=1, seed=67)
    _replicate(s, 0, study.methods)
    assert calls == [True, True]


def test_calibrated_dataset_shares_the_factor_and_its_fits():
    ds = generate_scenario(worlds.table3_scenario(1, n=2000, seed=68), 0)
    measured = ds.factor().fit((INTERCEPT, "Xep", "Cep", "Vep"), "Y")
    cal = apply_calibration(fit_calibration(ds, condition="two"), ds)
    assert cal.factor().r is ds.factor().r
    rc = cal.factor().fit((INTERCEPT, "X_RC", "C_RC", "V_RC"), "Y")
    assert rc.residual_variance == measured.residual_variance


def test_linear_and_logistic_fits_of_one_column_space_are_memoised_apart():
    # the naive and g-computation models share a design and a response; each
    # must read its own fit whichever runs first on the world
    s = worlds.table4_scenario(1, n=2000, seed=68)
    args = ("Xep", ["Cep", "Vep"])
    naive = naive_regression_aee(generate_scenario(s, 0), *args)
    gcomp = g_computation(generate_scenario(s, 0), *args)
    ds = generate_scenario(s, 0)
    g_computation(ds, *args)
    assert naive_regression_aee(ds, *args) == naive
    ds = generate_scenario(s, 0)
    naive_regression_aee(ds, *args)
    assert g_computation(ds, *args) == gcomp


def test_truncation_quantile_rejected_before_the_factor_fit(monkeypatch):
    ds = generate_scenario(worlds.table3_scenario(1, n=500, seed=69), 0)

    def no_fit(*args, **kwargs):
        raise AssertionError("the GPS was fitted before the quantile was checked")

    monkeypatch.setattr(ColumnFactor, "fit", no_fit)
    with pytest.raises(ParameterError, match="truncate_quantile"):
        stabilized_weights(ds, "X", ["C", "V"], truncate_quantile=1.5)


@pytest.mark.parametrize("table", ["table4", "table5"])
def test_binary_replication_builds_no_calibrated_rows(table, monkeypatch):
    # gcomp_rc maps from the factor, so nothing reads X_RC, C_RC or V_RC
    calibrated = []
    apply = harness.apply_calibration

    def keeping_apply(fits, ds):
        calibrated.append(apply(fits, ds))
        return calibrated[-1]

    monkeypatch.setattr(harness, "apply_calibration", keeping_apply)
    study = STUDY_TABLES[table]
    s = study.build(next(iter(study.published)), n=2000, replications=1, seed=67)
    _replicate(s, 0, study.methods)
    (cal,) = calibrated
    assert [cal._columns[c] for c in ("X_RC", "C_RC", "V_RC")] == [None, None, None]


# ---------------------------------------------------------------------------
# Dataset.with_coordinates


def test_with_coordinates_checks_no_rows(monkeypatch):
    ds = generate_scenario(worlds.table3_scenario(1, n=50, seed=70), 0)
    checked = []
    isfinite = np.isfinite

    def counting_isfinite(a, *args, **kwargs):
        checked.append(np.shape(a))
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    out = ds.with_coordinates({"Z": {INTERCEPT: 1.0, "X": 2.0}})
    assert checked == []
    assert out.names == [*ds.names, "Z"]
    assert "Z" in out and "Z" not in ds
    out.require("X", "Z")
    np.testing.assert_array_equal(out["Z"], design_with_intercept(ds["X"]) @ np.array([1.0, 2.0]))


def test_an_intercept_only_coordinate_column_is_read():
    n = 20
    ds = Dataset({"X": np.arange(n, dtype=float), "Y": np.ones(n)})
    np.testing.assert_array_equal(
        ds.with_coordinates({"K": {INTERCEPT: 2.0}})["K"], np.full(n, 2.0)
    )


@pytest.mark.parametrize("new, message", [
    ({"Z": {INTERCEPT: 1.0, "X": 2.0, "W": 1.0}, "Z2": {"X_RC": 1.0}}, "is missing column(s): W, X_RC"),
    ({"Y": {"X": 1.0}}, "already has column(s): Y"),
])
def test_with_coordinates_rejects_an_absent_source_or_a_taken_name(new, message):
    ds = generate_scenario(worlds.table3_scenario(1, n=50, seed=70), 0)
    with pytest.raises(SchemaError, match=f"^dataset {re.escape(message)}$"):
        ds.with_coordinates(new)


def _rows_from_combination(ds, combination):
    """A coordinate column's rows as the combination itself spells them:
    [1, regressors] @ [intercept coefficient, regressor coefficients], in
    the combination's order."""
    regressors = [c for c in combination if c != INTERCEPT]
    coefficients = [combination.get(INTERCEPT, 0.0), *(combination[c] for c in regressors)]
    return design_with_intercept(*[ds[c] for c in regressors]) @ np.array(coefficients)


@pytest.mark.parametrize("validation_fraction", [None, 0.5])
@pytest.mark.parametrize("condition", ["one", "two"])
@pytest.mark.parametrize("seed", [5, 11])
def test_calibrated_rows_are_the_combination_rows(seed, condition, validation_fraction):
    scenarios = [
        worlds.table3_scenario(1, n=2000, seed=seed),
        worlds.table4_scenario(1, n=2000, seed=seed),
        worlds.table5_scenario(0.5, -0.5, n=2000, seed=seed),
    ]
    for scenario in scenarios:
        ds = generate_scenario(scenario, 0)
        fits = fit_calibration(ds, condition=condition, validation_fraction=validation_fraction)
        cal = apply_calibration(fits, ds)
        assert [f.calibrated_name for f in fits] == ["X_RC", "C_RC", "V_RC"][: len(fits)]
        for f in fits:
            want = _rows_from_combination(ds, f.coordinates)
            assert np.array_equal(cal[f.calibrated_name], want), (scenario.name, f.target)


def _counting_of(monkeypatch):
    calls = []
    of = ColumnFactor.of.__func__

    def counting_of(cls, *args, **kwargs):
        calls.append(True)
        return of(cls, *args, **kwargs)

    monkeypatch.setattr(ColumnFactor, "of", classmethod(counting_of))
    return calls


def test_with_coordinates_factorises_a_dataset_without_a_factor_once(monkeypatch):
    ds = generate_scenario(worlds.table4_scenario(1, n=2000, seed=71), 0)
    calls = _counting_of(monkeypatch)
    cal = ds.with_coordinates({"Z": {INTERCEPT: 1.0, "Xep": 2.0}})
    assert len(calls) == 1
    assert cal.factor() is not ds.factor() and cal.factor().r is ds.factor().r
    cal.factor().fit((INTERCEPT, "Z", "Cep"), "Y")
    naive_regression_aee(cal, "Z", ["Cep", "Vep"])
    g_computation(cal.with_coordinates({"W": {"Cep": 1.0}}), "Z", ["W"])
    cal["Z"]
    ds.with_coordinates({"W": {"X": 1.0}})["W"]
    assert len(calls) == 1


def test_a_column_on_a_coordinate_column_reads_the_composed_coordinates():
    rng = np.random.default_rng(72)
    n = 300
    x = rng.normal(size=n)
    ds = Dataset({"X": x, "Y": 1.0 + 0.5 * x + rng.normal(size=n)})
    composed = ds.with_coordinates({"A": {"X": 2.0}}).with_coordinates({"B": {"A": 3.0}})
    assert np.array_equal(composed["B"], design_with_intercept(x) @ np.array([0.0, 6.0]))
    on_x = composed.factor().fit((INTERCEPT, "X"), "Y")
    on_b = composed.factor().fit((INTERCEPT, "B"), "Y")
    want = on_x.coefficients * np.array([1.0, 1.0 / 6.0])
    np.testing.assert_allclose(on_b.coefficients, want, rtol=1e-12, atol=0)
    assert on_b.residual_variance == pytest.approx(on_x.residual_variance, rel=1e-12, abs=0)


def test_an_empty_combination_is_a_zero_column_that_a_fit_names():
    ds = generate_scenario(worlds.table3_scenario(1, n=50, seed=70), 0)
    new = {"Z": {}, "A": {INTERCEPT: 1.0, "X": -2.0}, "B": {"Cep": 0.5, "Xep": -0.0}}
    out = ds.with_coordinates(new)
    assert np.array_equal(out["Z"], np.zeros(ds.n))
    with pytest.raises(SingularDesignError, match=r"offending columns: Z\)$") as err:
        out.factor().fit((INTERCEPT, "Z"), "Y")
    assert err.value.columns == ["Z"]
    # every other coordinate keeps the bytes of a sum that starts from its
    # first term
    factor = ds.factor()
    for name in ("A", "B"):
        terms = [coef * factor.coordinates([src])[:, 0] for src, coef in new[name].items()]
        want = terms[0]
        for term in terms[1:]:
            want = want + term
        assert out.factor().coordinates([name])[:, 0].tobytes() == want.tobytes(), name


def test_with_coordinates_rejects_a_column_named_intercept():
    ds = Dataset({"X": np.arange(5.0), "intercept": np.ones(5), "Y": np.arange(5.0) ** 2})
    with pytest.raises(SchemaError, match="'intercept' is taken by the ones column"):
        ds.with_coordinates({"Z": {"X": 2.0}})


def test_factor_rejects_an_unknown_column():
    ds = generate_scenario(worlds.table3_scenario(1, n=50, seed=70), 0)
    with pytest.raises(SchemaError, match="no column 'X_RC'"):
        ds.factor().fit((INTERCEPT, "X_RC"), "Y")


def test_a_column_named_intercept_is_rejected():
    ds = Dataset({"X": np.arange(5.0), "intercept": np.ones(5), "Y": np.arange(5.0) ** 2})
    with pytest.raises(SchemaError, match="'intercept' is taken by the ones column"):
        naive_regression_aee(ds, "X", [])


def test_tracer_wrap_sites_are_still_defined():
    # perfbench/spans.py wraps these module globals by name
    assert estimate.ols is regress.ols
    from peclab import calibrate

    assert calibrate.ols is regress.ols
