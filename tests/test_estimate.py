import numpy as np
import pytest

from peclab import worlds
from peclab.datagen import generate_binary_scenario, generate_scenario
from peclab.errors import ParameterError, SchemaError
from peclab.estimate import fit_gps, g_computation, ipw_gps_aee, naive_regression_aee
from peclab.model import Dataset, Estimand, Link
from peclab.regress import design_with_intercept, logistic_irls, ols


def _no_confounding_world(n=20_000, seed=7):
    rng = np.random.default_rng(seed)
    c = rng.normal(0, 1, n)
    v = rng.normal(0, 1, n)
    x = rng.normal(5, 1, n)  # independent of C, V
    y = 2.0 + 1.0 * x + 0.5 * c + rng.normal(0, 1, n)
    return Dataset({"X": x, "C": c, "V": v, "Y": y})


# ---------------------------------------------------------------------------
# Naive regression


def test_truth_recovery_without_error():
    ds = _no_confounding_world()
    est = naive_regression_aee(ds, "X", ["C", "V"])
    assert est.value == pytest.approx(1.0, abs=0.03)
    assert est.estimand is Estimand.RISK_DIFFERENCE


def test_table3_naive_values():
    means = {1: 0.55, 2: -0.21}
    for idx, want in means.items():
        s = worlds.table3_scenario(idx, n=10_000, seed=40)
        vals = [
            naive_regression_aee(generate_scenario(s, rep), "Xep", ["Cep"]).value
            for rep in range(12)
        ]
        assert np.mean(vals) == pytest.approx(want, abs=0.03)


def test_table3_naive2_adds_vep():
    s = worlds.table3_scenario(1, n=10_000, seed=41)
    vals = [
        naive_regression_aee(generate_scenario(s, rep), "Xep", ["Cep", "Vep"]).value
        for rep in range(12)
    ]
    assert np.mean(vals) == pytest.approx(0.71, abs=0.03)


def test_missing_column_is_schema_error():
    ds = _no_confounding_world()
    with pytest.raises(SchemaError):
        naive_regression_aee(ds, "Xep", ["C"])


# ---------------------------------------------------------------------------
# g-computation


def test_gcomp_identity_analogue_matches_ols_slope():
    # on a linear world the delta-shift standardization equals the fitted
    # exposure coefficient times delta; verify via the linear analogue
    ds = _no_confounding_world()
    fit = ols(design_with_intercept(ds["X"], ds["C"]), ds["Y"])
    delta = 0.7
    p0 = fit.predict(design_with_intercept(ds["X"], ds["C"]))
    p1 = fit.predict(design_with_intercept(ds["X"] + delta, ds["C"]))
    assert np.mean(p1) - np.mean(p0) == pytest.approx(fit.coefficients[1] * delta, rel=1e-10)


def test_gcomp_table4_true_adjustment():
    s = worlds.table4_scenario(2, n=10_000, seed=42)
    rds, rrs = [], []
    for rep in range(30):
        ds = generate_binary_scenario(s, rep)
        rd, rr = g_computation(ds, "X", ["C", "V"])
        rds.append(rd.value)
        rrs.append(rr.value)
    assert np.mean(rrs) == pytest.approx(1.35, abs=0.06)
    assert np.mean(rds) == pytest.approx(0.004, abs=0.003)


def test_gcomp_rare_outcome_rr_close_to_exp_beta():
    s = worlds.table4_scenario(1, n=10_000, seed=43)
    rrs = [
        g_computation(generate_binary_scenario(s, rep), "X", ["C", "V"])[1].value
        for rep in range(30)
    ]
    assert abs(np.mean(rrs) - np.exp(0.3)) / np.exp(0.3) < 0.05


def test_gcomp_rd_and_rr_come_from_one_fit():
    s = worlds.table4_scenario(2, n=5_000, seed=45)
    ds = generate_binary_scenario(s, 0)
    delta = 0.8
    rd, rr = g_computation(ds, "X", ["C", "V"], delta=delta)
    fit = logistic_irls(
        design_with_intercept(ds["X"], ds["C"], ds["V"]), ds["Y"],
        column_names=("intercept", "X", "C", "V"),
    )
    p0 = fit.predict_proba(design_with_intercept(ds["X"], ds["C"], ds["V"])).mean()
    p1 = fit.predict_proba(design_with_intercept(ds["X"] + delta, ds["C"], ds["V"])).mean()
    assert (rd.estimand, rr.estimand) == (Estimand.RISK_DIFFERENCE, Estimand.RISK_RATIO)
    assert rd.value == float(p1 - p0)
    assert rr.value == float(p1 / p0)
    assert rd.delta == rr.delta == delta


def test_gcomp_requires_binary_outcome():
    ds = _no_confounding_world()
    with pytest.raises(ParameterError):
        g_computation(ds, "X", ["C"])


def test_gcomp_requires_positive_delta():
    s = worlds.table4_scenario(1, n=2_000, seed=44)
    ds = generate_binary_scenario(s, 0)
    with pytest.raises(ParameterError):
        g_computation(ds, "X", ["C"], delta=0.0)


# ---------------------------------------------------------------------------
# GPS and IPW


def test_gps_independent_treatment_gives_unit_weights():
    ds = _no_confounding_world()
    gps = fit_gps(ds, "X", ["C", "V"])
    assert np.allclose(gps.mean_fit.coefficients[1:], 0.0, atol=0.05)
    w = gps.stabilized_weights(ds)
    assert np.all(np.abs(w - 1.0) < 0.2)


def test_gps_weight_mean_near_one():
    s = worlds.table3_scenario(1, n=10_000, seed=45)
    means = []
    for rep in range(10):
        ds = generate_scenario(s, rep)
        w = fit_gps(ds, "X", ["C", "V"]).stabilized_weights(ds)
        means.append(w.mean())
    assert 0.95 < np.mean(means) < 1.05
    assert all(np.isfinite(m) for m in means)


def test_gps_density_finite_positive():
    s = worlds.table3_scenario(1, n=10_000, seed=46)
    ds = generate_scenario(s, 0)
    gps = fit_gps(ds, "X", ["C", "V"])
    dens = gps.conditional_density(ds)
    assert np.all(np.isfinite(dens)) and np.all(dens > 0)


def test_gps_degenerate_treatment_rejected():
    ds = Dataset({"X": np.linspace(0, 1, 50), "C": np.linspace(0, 1, 50) * 2,
                  "Y": np.zeros(50)})
    with pytest.raises(ParameterError):
        fit_gps(ds, "X", ["C"])  # zero residual variance


def test_ipw_no_confounding_matches_unweighted_ols():
    ds = _no_confounding_world()
    est = ipw_gps_aee(ds, "X", ["C", "V"])
    unweighted = ols(design_with_intercept(ds["X"]), ds["Y"]).coefficients[1]
    assert est.value == pytest.approx(unweighted, abs=0.01)


def test_ipw_misspecified_covariates_stay_biased():
    # omitting the confounder C leaves the confounded slope in place
    rng = np.random.default_rng(48)
    good_vals, bad_vals = [], []
    for _ in range(10):
        n = 30_000
        c = rng.gamma(1, 1, n)
        v = rng.gamma(2, 1, n)
        x = rng.normal(0.5 * c + 5, 0.5)
        y = 1.0 * x + 1.0 * c + rng.normal(0, 1, n)
        ds = Dataset({"X": x, "C": c, "V": v, "Y": y})
        good_vals.append(ipw_gps_aee(ds, "X", ["C"]).value)
        bad_vals.append(ipw_gps_aee(ds, "X", ["V"]).value)
    assert np.mean(good_vals) == pytest.approx(1.0, abs=0.1)
    assert np.mean(bad_vals) > 1.3


def test_ipw_truncation_option_caps_weights():
    s = worlds.table3_scenario(1, n=10_000, seed=49)
    ds = generate_scenario(s, 0)
    gps = fit_gps(ds, "X", ["C", "V"])
    w_raw = gps.stabilized_weights(ds)
    w_cap = gps.stabilized_weights(ds, truncate_quantile=0.995)
    assert w_cap.max() <= np.quantile(w_raw, 0.995) + 1e-12
    with pytest.raises(ParameterError):
        gps.stabilized_weights(ds, truncate_quantile=1.5)


def test_estimator_coherence_on_linear_no_error_world():
    # naive regression and IPW agree on a no-confounding linear world
    ds = _no_confounding_world(seed=50)
    naive = naive_regression_aee(ds, "X", ["C", "V"]).value
    ipw = ipw_gps_aee(ds, "X", ["C", "V"]).value
    assert abs(naive - ipw) < 0.02
