import numpy as np
import pytest

from peclab import worlds
from peclab.calibrate import apply_calibration, fit_calibration
from peclab.datagen import generate_scenario
from peclab.errors import ParameterError, SchemaError
from peclab.model import Dataset, DistributionSpec, ErrorKind, ErrorModel, Scenario
from peclab.regress import design_with_intercept, ols


def test_table2_world_exposure_only_calibration(table2_dataset):
    fits = fit_calibration(table2_dataset, condition="one")
    assert [f.target for f in fits] == ["X"]
    g0, g1 = fits[0].coefficients.coefficients
    assert g0 == pytest.approx(4.5, abs=0.01)
    assert g1 == pytest.approx(0.5, abs=0.01)


def test_table2_calibrated_values(table2_dataset):
    fits = fit_calibration(table2_dataset, condition="one")
    cal = apply_calibration(fits, table2_dataset)
    xep = cal["Xep"]
    xrc = cal["X_RC"]
    # Xep = 9 -> X_RC = 9 and Xep = 11 -> X_RC = 10 under (4.5, 0.5)
    assert np.allclose(xrc[xep == 9], 9.0, atol=0.05)
    assert np.allclose(xrc[xep == 11], 10.0, atol=0.05)


def test_no_error_world_identity_fits():
    s = worlds.table3_scenario(1, n=20_000, seed=17)
    none = ErrorModel(kind=ErrorKind.NONE)
    s = Scenario(
        **{
            **s.__dict__,
            "exposure_error": none,
            "confounder_error": none,
            "v_error": none,
        }
    )
    ds = generate_scenario(s, 0)
    fits = fit_calibration(ds, condition="two")
    for fit in fits:
        coefs = fit.coefficients.coefficients
        own = 1 + fit.regressors.index({"X": "Xep", "C": "Cep", "V": "Vep"}[fit.target])
        assert coefs[own] == pytest.approx(1.0, abs=1e-8)
        others = [c for i, c in enumerate(coefs) if i not in (own,)]
        np.testing.assert_allclose(others, 0.0, atol=1e-7)
        assert fit.residual_sd == pytest.approx(0.0, abs=1e-8)


def test_identity_fits_passthrough(table2_dataset):
    fits = fit_calibration(table2_dataset, condition="one")
    # overwrite with an identity fit: slope 1, intercept 0
    identity = fits[0].coefficients.__class__(coefficients=np.array([0.0, 1.0]))
    fit = fits[0].__class__(
        target="X", regressors=("Xep",), coefficients=identity, residual_sd=0.0
    )
    cal = apply_calibration([fit], table2_dataset)
    np.testing.assert_array_equal(cal["X_RC"], table2_dataset["Xep"])


def test_shared_design_fits_equal_separate_ols_calls():
    s = worlds.table3_scenario(2, n=10_000, seed=21)
    ds = generate_scenario(s, 0)
    fits = fit_calibration(ds, condition="two")
    assert [f.target for f in fits] == ["X", "C", "V"]
    for f in fits:
        design = design_with_intercept(*[ds[c] for c in f.regressors])
        single = ols(design, ds[f.target], column_names=("intercept",) + f.regressors)
        np.testing.assert_array_equal(f.coefficients.coefficients, single.coefficients)
        # residual_sd is read from the factor's R, as every other factor fit
        assert f.residual_sd == pytest.approx(np.sqrt(single.residual_variance), rel=1e-12, abs=0)


@pytest.mark.parametrize("fraction", [None, 0.5])
def test_calibrated_rows_are_the_fits_linear_predictor(fraction):
    ds = generate_scenario(worlds.table3_scenario(1, n=2000, seed=23), 0)
    fits = fit_calibration(ds, condition="two", validation_fraction=fraction)
    cal = apply_calibration(fits, ds)
    for fit in fits:
        design = design_with_intercept(*[ds[c] for c in fit.regressors])
        want = design @ fit.coefficients.coefficients
        np.testing.assert_array_equal(cal[fit.calibrated_name], want)


def test_condition_two_residuals_are_berkson():
    # regressing X - X_RC on X_RC gives slope ~ 0: the calibrated variable is
    # independent of its own residual
    s = worlds.table3_scenario(2, n=100_000, seed=18)
    ds = generate_scenario(s, 0)
    cal = apply_calibration(fit_calibration(ds, condition="two"), ds)
    resid = cal["X"] - cal["X_RC"]
    fit = ols(design_with_intercept(cal["X_RC"]), resid)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=0.02)


def test_berkson_property_all_columns():
    # every calibrated column's residual is orthogonal to every calibrated
    # column (4 standard errors)
    s = worlds.table3_scenario(1, n=50_000, seed=19)
    ds = generate_scenario(s, 0)
    cal = apply_calibration(fit_calibration(ds, condition="two"), ds)
    n = cal.n
    for target, rc in (("X", "X_RC"), ("C", "C_RC"), ("V", "V_RC")):
        resid = cal[target] - cal[rc]
        design = design_with_intercept(cal["X_RC"], cal["C_RC"], cal["V_RC"])
        fit = ols(design, resid)
        sd = np.sqrt(fit.residual_variance)
        for j, col in enumerate(("X_RC", "C_RC", "V_RC"), start=1):
            se = sd / (np.std(cal[col]) * np.sqrt(n))
            assert abs(fit.coefficients[j]) < 4 * se + 1e-9, (target, col)


def test_calibrated_outcome_regression_recovers_beta1():
    # E over replications of the calibrated-outcome slope is the true effect
    s = worlds.table3_scenario(3, n=10_000, seed=20)
    slopes = []
    for rep in range(25):
        ds = generate_scenario(s, rep)
        cal = apply_calibration(fit_calibration(ds, condition="two"), ds)
        fit = ols(
            design_with_intercept(cal["X_RC"], cal["C_RC"], cal["V_RC"]), cal["Y"]
        )
        slopes.append(fit.coefficients[1])
    assert np.mean(slopes) == pytest.approx(1.0, abs=0.02)


def test_raw_berkson_exposure_with_calibrated_confounder():
    # X = Xep + V + U with E[V] = 0: raw Xep with the C calibration alone
    # recovers the exposure effect
    rng = np.random.default_rng(212)
    slopes = []
    for _ in range(25):
        n = 10_000
        c = rng.gamma(1, 1, n)
        v = rng.normal(0, 0.5, n)
        xep = rng.normal(0.3 * c + 5, 0.5)
        x = xep + v + rng.normal(0, 0.3, n)
        y = 5 + x - 1.23 * c + rng.normal(0, 1, n)
        cep = 0.7 + 0.89 * c + rng.normal(0, 0.15, n)
        ds = Dataset({"X": x, "Xep": xep, "C": c, "Cep": cep, "Y": y})
        fits = fit_calibration(ds, condition="one")
        c_fit = [f for f in fits if f.target == "C"]
        cal = apply_calibration(c_fit, ds)
        slopes.append(
            ols(design_with_intercept(cal["Xep"], cal["C_RC"]), cal["Y"]).coefficients[1]
        )
    assert np.mean(slopes) == pytest.approx(1.0, abs=0.02)


def test_calibration_residuals_uncorrelated_with_regressors():
    s = worlds.table3_scenario(1, n=50_000, seed=21)
    ds = generate_scenario(s, 0)
    fits = fit_calibration(ds, condition="two")
    cal = apply_calibration(fits, ds)
    n = cal.n
    for fit in fits:
        resid = cal[fit.target] - cal[fit.calibrated_name]
        for reg in fit.regressors:
            corr = np.corrcoef(resid, cal[reg])[0, 1]
            assert abs(corr) < 4 / np.sqrt(n)


def test_validation_fraction_split():
    s = worlds.table3_scenario(1, n=40_000, seed=22)
    ds = generate_scenario(s, 0)
    fits_half = fit_calibration(ds, condition="two", validation_fraction=0.5)
    fits_full = fit_calibration(ds, condition="two")
    half = fits_half[0].coefficients.coefficients
    full = fits_full[0].coefficients.coefficients
    assert not np.allclose(half, full)
    assert np.allclose(half, full, atol=0.05)  # same population target
    with pytest.raises(ParameterError):
        fit_calibration(ds, condition="two", validation_fraction=1.5)


def test_missing_truth_is_a_validation_error():
    rng = np.random.default_rng(3)
    ds = Dataset({"Xep": rng.normal(size=100), "Y": rng.normal(size=100)})
    with pytest.raises(SchemaError, match="^validation data has Xep but no true column X$"):
        fit_calibration(ds, condition="one")
    # a true column without its measured one is no pair either
    ds = Dataset({"X": rng.normal(size=100), "Y": rng.normal(size=100)})
    with pytest.raises(SchemaError, match=r"^validation data contains no \(true, measured\) pairs$"):
        fit_calibration(ds, condition="one")


def test_unknown_condition_rejected():
    with pytest.raises(ParameterError):
        fit_calibration(Dataset({"X": np.zeros(3)}), condition="three")
