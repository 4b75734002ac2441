import warnings

import numpy as np
import pytest

from peclab import estimate, worlds
from peclab.calibrate import apply_calibration, fit_calibration
from peclab.datagen import generate_scenario
from peclab.errors import ParameterError, SchemaError
from peclab.estimate import g_computation, ipw_gps_aee, naive_regression_aee, stabilized_weights
from peclab.model import Dataset
from peclab.regress import ColumnFactor, _sigmoid, design_with_intercept, logistic_irls, ols, wls


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
    assert est == pytest.approx(1.0, abs=0.03)
    assert type(est) is float


def test_table3_naive_values():
    means = {1: 0.55, 2: -0.21}
    for idx, want in means.items():
        s = worlds.table3_scenario(idx, n=10_000, seed=40)
        vals = [
            naive_regression_aee(generate_scenario(s, rep), "Xep", ["Cep"])
            for rep in range(12)
        ]
        assert np.mean(vals) == pytest.approx(want, abs=0.03)


def test_table3_naive2_adds_vep():
    s = worlds.table3_scenario(1, n=10_000, seed=41)
    vals = [
        naive_regression_aee(generate_scenario(s, rep), "Xep", ["Cep", "Vep"])
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
        ds = generate_scenario(s, rep)
        rd, rr = g_computation(ds, "X", ["C", "V"])
        rds.append(rd)
        rrs.append(rr)
    assert np.mean(rrs) == pytest.approx(1.35, abs=0.06)
    assert np.mean(rds) == pytest.approx(0.004, abs=0.003)


def test_gcomp_rare_outcome_rr_close_to_exp_beta():
    s = worlds.table4_scenario(1, n=10_000, seed=43)
    rrs = [
        g_computation(generate_scenario(s, rep), "X", ["C", "V"])[1]
        for rep in range(30)
    ]
    assert abs(np.mean(rrs) - np.exp(0.3)) / np.exp(0.3) < 0.05


def test_gcomp_rd_and_rr_come_from_one_fit(monkeypatch):
    s = worlds.table4_scenario(2, n=5_000, seed=45)
    ds = generate_scenario(s, 0)
    delta = 0.8
    fits = []

    def recording_irls(design, response, **kwargs):
        fit = logistic_irls(design, response, **kwargs)
        fits.append((np.array(design), fit))
        return fit

    monkeypatch.setattr(estimate, "logistic_irls", recording_irls)
    rd, rr = g_computation(ds, "X", ["C", "V"], delta=delta)
    assert len(fits) == 1
    design, fit = fits[0]
    eta = fit.predict(design)
    p0 = _sigmoid(eta).mean()
    p1 = _sigmoid(eta + delta * fit.coefficients[1]).mean()
    assert rd == float(p1 - p0)
    assert rr == float(p1 / p0)


def _shifted_design_reference(ds, exposure, adjust, delta):
    """g-computation as the mean predicted risk on a copy of the design with
    the exposure column shifted by delta."""
    adjusted = [ds[c] for c in adjust]
    observed = design_with_intercept(ds[exposure], *adjusted)
    fit = logistic_irls(observed, ds["Y"])
    p0 = _sigmoid(fit.predict(observed)).mean()
    p1 = _sigmoid(fit.predict(design_with_intercept(ds[exposure] + delta, *adjusted))).mean()
    return p1 - p0, p1 / p0


@pytest.mark.parametrize("delta", [1.0, 0.5])
@pytest.mark.parametrize(
    "scenario",
    [worlds.table4_scenario(i, n=3000, seed=47) for i in (1, 2, 3)]
    + [worlds.table5_scenario(a, b, n=3000, seed=47) for a, b in [(0.5, -0.5), (-0.5, 0.5)]],
    ids=lambda s: s.name,
)
def test_gcomp_shifted_predictor_matches_shifted_design(scenario, delta):
    ds = generate_scenario(scenario, 0)
    for exposure, adjust in [("X", ["C", "V"]), ("Xep", ["Cep"])]:
        rd, rr = g_computation(ds, exposure, adjust, delta=delta)
        want_rd, want_rr = _shifted_design_reference(ds, exposure, adjust, delta)
        assert rd == pytest.approx(want_rd, rel=1e-12, abs=0)
        assert rr == pytest.approx(want_rr, rel=1e-12, abs=0)


def _binary_input_cases():
    rng = np.random.default_rng(70)
    x, c = rng.normal(size=(2, 400))
    events = (rng.random(400) < 0.3).astype(float)
    return {
        "constant": (x, c, np.zeros(400)),
        "not-0-1": (x, c, rng.normal(size=400)),
        "rank-deficient": (x, 2.0 * x, events),
        # a gap of 2 between the classes, so the fitted probabilities saturate
        "separated": (x + np.sign(x), c, (x > 0).astype(float)),
    }


@pytest.mark.parametrize("case", list(_binary_input_cases()))
def test_gcomp_rejects_bad_inputs_as_the_cold_fit_does(case):
    # the warm start is read after the response and rank checks, so each
    # input fails as a cold fit of the explicit design fails, and no log(0)
    # or division warning comes first
    x, c, y = _binary_input_cases()[case]
    names = ("intercept", "X", "C")
    with pytest.raises(Exception) as cold:
        logistic_irls(design_with_intercept(x, c), y, column_names=names)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as warm:
            g_computation(Dataset({"X": x, "C": c, "Y": y}), "X", ["C"])
    assert type(warm.value) is type(cold.value)
    assert str(warm.value) == str(cold.value)


def test_gcomp_requires_binary_outcome():
    ds = _no_confounding_world()
    with pytest.raises(ParameterError):
        g_computation(ds, "X", ["C"])


def test_gcomp_requires_positive_delta():
    s = worlds.table4_scenario(1, n=2_000, seed=44)
    ds = generate_scenario(s, 0)
    with pytest.raises(ParameterError):
        g_computation(ds, "X", ["C"], delta=0.0)


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("estimator", [naive_regression_aee, ipw_gps_aee, g_computation])
def test_estimators_reject_non_finite_or_non_positive_delta(estimator, delta):
    ds = generate_scenario(worlds.table4_scenario(1, n=2_000, seed=44), 0)
    with pytest.raises(ParameterError, match=r"^delta must be finite and > 0$"):
        estimator(ds, "X", ["C"], delta=delta)


# ---------------------------------------------------------------------------
# GPS and IPW


def test_gps_independent_treatment_gives_unit_weights():
    ds = _no_confounding_world()
    gps = ols(design_with_intercept(ds["C"], ds["V"]), ds["X"])
    assert np.allclose(gps.coefficients[1:], 0.0, atol=0.05)
    w = stabilized_weights(ds, "X", ["C", "V"])
    assert np.all(np.abs(w - 1.0) < 0.2)


def test_gps_weight_mean_near_one():
    s = worlds.table3_scenario(1, n=10_000, seed=45)
    means = []
    for rep in range(10):
        ds = generate_scenario(s, rep)
        w = stabilized_weights(ds, "X", ["C", "V"])
        means.append(w.mean())
    assert 0.95 < np.mean(means) < 1.05
    assert all(np.isfinite(m) for m in means)


def test_gps_density_finite_positive():
    s = worlds.table3_scenario(1, n=10_000, seed=46)
    ds = generate_scenario(s, 0)
    # the weights divide by the conditional density, so they are finite and
    # positive exactly when that density is
    w = stabilized_weights(ds, "X", ["C", "V"])
    assert np.all(np.isfinite(w)) and np.all(w > 0)


def test_gps_degenerate_treatment_rejected():
    ds = Dataset({"X": np.linspace(0, 1, 50), "C": np.linspace(0, 1, 50) * 2,
                  "Y": np.zeros(50)})
    with pytest.raises(ParameterError):
        stabilized_weights(ds, "X", ["C"])  # zero residual variance


def test_ipw_no_confounding_matches_unweighted_ols():
    ds = _no_confounding_world()
    est = ipw_gps_aee(ds, "X", ["C", "V"])
    unweighted = ols(design_with_intercept(ds["X"]), ds["Y"]).coefficients[1]
    assert est == pytest.approx(unweighted, abs=0.01)


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
        good_vals.append(ipw_gps_aee(ds, "X", ["C"]))
        bad_vals.append(ipw_gps_aee(ds, "X", ["V"]))
    assert np.mean(good_vals) == pytest.approx(1.0, abs=0.1)
    assert np.mean(bad_vals) > 1.3


def test_ipw_truncation_option_caps_weights():
    s = worlds.table3_scenario(1, n=10_000, seed=49)
    ds = generate_scenario(s, 0)
    w_raw = stabilized_weights(ds, "X", ["C", "V"])
    w_cap = stabilized_weights(ds, "X", ["C", "V"], truncate_quantile=0.995)
    assert w_cap.max() <= np.quantile(w_raw, 0.995) + 1e-12
    with pytest.raises(ParameterError):
        stabilized_weights(ds, "X", ["C", "V"], truncate_quantile=1.5)


def test_truncation_quantile_rejected_before_the_gps_fit(monkeypatch):
    ds = _no_confounding_world(n=200)

    def no_fit(*args, **kwargs):
        raise AssertionError("the GPS was fitted before the quantile was checked")

    monkeypatch.setattr(ColumnFactor, "fit", no_fit)
    for q in (0.0, 1.5, float("nan")):
        with pytest.raises(ParameterError, match="truncate_quantile"):
            stabilized_weights(ds, "X", ["C", "V"], truncate_quantile=q)
        with pytest.raises(ParameterError, match="truncate_quantile"):
            ipw_gps_aee(ds, "X", ["C", "V"], truncate_quantile=q)


def test_gps_without_covariates_is_intercept_only():
    # N(mean, sd) over the intercept-only fit N(mean, residual sd): the same
    # density, so every weight is 1 and IPW is the unweighted slope
    ds = _no_confounding_world()
    w = stabilized_weights(ds, "X", [])
    assert np.max(np.abs(w - 1.0)) < 1e-12
    assert ipw_gps_aee(ds, "X", []) == pytest.approx(
        naive_regression_aee(ds, "X", []), rel=1e-12
    )


def _wls_slope(ds, treatment, covariates, **options):
    w = stabilized_weights(ds, treatment, covariates, **options)
    return wls(design_with_intercept(ds[treatment]), ds["Y"], w).coefficients[1]


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("row", [1, 2, 3])
def test_ipw_slope_is_the_weighted_least_squares_slope(row, seed):
    ds = generate_scenario(worlds.table3_scenario(row, n=10_000, seed=seed), 0)
    cal = apply_calibration(fit_calibration(ds, condition="two"), ds)
    for treatment, covariates in [("X", ["C", "V"]), ("X_RC", ["C_RC", "V_RC"])]:
        want = _wls_slope(cal, treatment, covariates)
        assert ipw_gps_aee(cal, treatment, covariates) == pytest.approx(want, rel=1e-12, abs=0)
    want = _wls_slope(cal, "X", ["C", "V"], truncate_quantile=0.995)
    got = ipw_gps_aee(cal, "X", ["C", "V"], truncate_quantile=0.995)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert ipw_gps_aee(cal, "X", []) == pytest.approx(_wls_slope(cal, "X", []), rel=1e-12, abs=0)


def test_ipw_slope_on_a_csv_dataset_is_the_weighted_least_squares_slope(tmp_path):
    path = tmp_path / "world.csv"
    generate_scenario(worlds.table3_scenario(2, n=2000, seed=5), 0).to_csv(path)
    ds = Dataset.from_csv(path)
    for treatment, covariates in [("X", ["C", "V"]), ("Xep", ["Cep"]), ("X", [])]:
        want = _wls_slope(ds, treatment, covariates)
        assert ipw_gps_aee(ds, treatment, covariates) == pytest.approx(want, rel=1e-12, abs=0)
    want = 0.5 * _wls_slope(ds, "X", ["C", "V"], truncate_quantile=0.995)
    got = ipw_gps_aee(ds, "X", ["C", "V"], delta=0.5, truncate_quantile=0.995)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("weight", ["zero", "infinite"])
def test_ipw_rejects_a_zero_or_infinite_weight(weight):
    # X follows C closely (residual sd 0.01). One outlier row either lies
    # far out on that line, where the marginal density underflows to 0, or
    # far off it, where the conditional one does and its weight is inf.
    rng = np.random.default_rng(71)
    c = rng.normal(size=5000)
    x = c + rng.normal(0, 0.01, 5000)
    if weight == "zero":
        c[0] = x[0] = 1000.0
    else:
        x[0] = c[0] + 1.0
    ds = Dataset({"X": x, "C": c, "Y": x + rng.normal(size=5000)})
    with np.errstate(divide="ignore"):
        w = stabilized_weights(ds, "X", ["C"])
        assert w[0] == (0.0 if weight == "zero" else np.inf)
        with pytest.raises(ParameterError, match=r"^weights must be positive and finite$"):
            ipw_gps_aee(ds, "X", ["C"])


def test_estimator_coherence_on_linear_no_error_world():
    # naive regression and IPW agree on a no-confounding linear world
    ds = _no_confounding_world(seed=50)
    naive = naive_regression_aee(ds, "X", ["C", "V"])
    ipw = ipw_gps_aee(ds, "X", ["C", "V"])
    assert abs(naive - ipw) < 0.02


_OUTCOME = "adjustment must not hold the outcome column(s): Y"
_EXPOSURE_Y = "exposure must not be the outcome column: Y"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ds: naive_regression_aee(ds, "X", ["C", "Y"]), _OUTCOME),
        (lambda ds: naive_regression_aee(ds, "Y", ["C"]), _EXPOSURE_Y),
        (lambda ds: naive_regression_aee(ds, "X", ["C", "X"]),
         "adjustment must not hold the exposure column(s): X"),
        (lambda ds: g_computation(ds, "X", ["Y"]), _OUTCOME),
        (lambda ds: g_computation(ds, "Y", []), _EXPOSURE_Y),
        (lambda ds: g_computation(ds, "Xep", ["Cep", "Xep", "Y"]),
         "adjustment must not hold the exposure or outcome column(s): Xep, Y"),
        (lambda ds: ipw_gps_aee(ds, "X", ["C", "Y"]), _OUTCOME),
        (lambda ds: ipw_gps_aee(ds, "Y", ["C"]), _EXPOSURE_Y),
        (lambda ds: ipw_gps_aee(ds, "X", ["X"]),
         "adjustment must not hold the exposure column(s): X"),
        (lambda ds: stabilized_weights(ds, "X", ["Y"]), _OUTCOME),
        (lambda ds: stabilized_weights(ds, "Y", []), _EXPOSURE_Y),
        (lambda ds: stabilized_weights(ds, "Xep", ["Cep", "Xep"]),
         "adjustment must not hold the exposure column(s): Xep"),
    ],
    ids=["naive-adjust-y", "naive-exposure-y", "naive-adjust-x", "gcomp-adjust-y",
         "gcomp-exposure-y", "gcomp-adjust-xep-y", "ipw-adjust-y", "ipw-treatment-y",
         "ipw-adjust-x", "weights-adjust-y", "weights-treatment-y", "weights-adjust-xep"],
)
def test_estimators_reject_the_outcome_and_the_exposure_as_inputs(monkeypatch, call, message):
    # with Y as an input a fit regresses Y on itself (the naive slope of Y
    # given Y reads ~1e-17); with the exposure beside itself it is singular
    ds = generate_scenario(worlds.table3_scenario(1, n=500), 0)
    monkeypatch.setattr(Dataset, "factor", lambda self: pytest.fail("fitted before the check"))
    with pytest.raises(ParameterError) as err:
        call(ds)
    assert str(err.value) == message
