import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peclab import biasfactor, worlds
from peclab.biasfactor import (
    ec_decomposition,
    epc_decomposition,
    figure2_grid,
    lambda_closed_form,
    p_rd_identity,
    p_rd_polynomial,
    p_rd_polynomial_from_data,
    predict_naive_slope_rr,
    report,
    report_from_data,
    surrogate_bounds,
    surrogate_ratio,
)
from peclab.datagen import generate_scenario
from peclab.errors import ParameterError, PeclabError
from peclab.harness import STUDY_TABLES
from peclab.model import Dataset, Link
from peclab.regress import ColumnFactor, design_with_intercept, logistic_irls, ols


def _rng():
    return np.random.default_rng(1729)


# ---------------------------------------------------------------------------
# Closed forms


def test_lambda_table2_parameters():
    assert lambda_closed_form(1.0, 0.5, 0.5) == pytest.approx(0.5)


def test_lambda_no_error():
    assert lambda_closed_form(1.0, 0.73, 0.0) == 1.0


def test_lambda_direct_evaluation_and_ols_cross_check():
    assert lambda_closed_form(2.0, 1.0, 1.0) == pytest.approx(0.4)
    rng = _rng()
    x = rng.normal(0, 1, 200_000)
    xep = 2.0 * x + rng.normal(0, 1, 200_000)
    slope = ols(design_with_intercept(xep), x).coefficients[1]
    assert slope == pytest.approx(0.4, abs=0.01)


def test_p_rd_table2():
    assert p_rd_identity(1.0, 0.5, 0.5) == pytest.approx(0.5)


def test_p_rd_no_noise():
    assert p_rd_identity(3.0, 2.0, 0.0) == 1.0


def test_p_rd_matches_fitted_r_squared():
    assert p_rd_identity(2.0, 1.0, 1.0) == pytest.approx(0.8)
    rng = _rng()
    x = rng.normal(0, 1, 100_000)
    xep = 2.0 * x + rng.normal(0, 1, 100_000)
    r2 = ols(design_with_intercept(x), xep).r_squared
    assert r2 == pytest.approx(0.8, abs=0.01)


def test_degenerate_denominator_raises():
    with pytest.raises(ParameterError):
        lambda_closed_form(0.0, 1.0, 0.0)


@pytest.mark.parametrize("form", [lambda_closed_form, p_rd_identity])
@pytest.mark.parametrize(
    "args, message",
    [
        ((float("nan"), 1.0, 1.0), "gamma1 must be finite, got nan"),
        ((float("-inf"), 1.0, 1.0), "gamma1 must be finite, got -inf"),
        ((1.0, float("inf"), 1.0), "var_x must be finite and >= 0, got inf"),
        ((1.0, 1.0, float("nan")), "var_u must be finite and >= 0, got nan"),
        ((1.0, -0.5, 1.0), "var_x must be finite and >= 0, got -0.5"),
        ((0.0, 1.0, 0.0), "the measured variance"),
        ((1e200, 1.0, 1.0), "is inf; it must be finite and nonzero"),
    ],
)
def test_closed_forms_name_the_bad_input(form, args, message):
    with pytest.raises(ParameterError, match=message):
        form(*args)


def test_polynomial_names_the_bad_input():
    with pytest.raises(ParameterError, match="var_xq must be finite and >= 0, got inf"):
        p_rd_polynomial(2, 1.0, float("inf"), 1.0)
    with pytest.raises(ParameterError, match="var_uq must be finite and >= 0, got -1.0"):
        p_rd_polynomial(2, 1.0, 1.0, -1.0)


def test_polynomial_power_overflow_is_the_degenerate_variance_error():
    # gamma1^(2q) overflows a float here; float ** raises OverflowError
    degenerate = (
        r"^degenerate error model: the measured variance gamma1\^\(2q\) Var\(X\^q\) "
        r"\+ Var\(U\) is inf; it must be finite and nonzero$"
    )
    x = np.linspace(1.0, 2.0, 50)
    for call in (
        lambda: p_rd_polynomial(2, 1e100, 1.0, 1.0),
        lambda: p_rd_polynomial(3, -1e60, 1.0, 0.0),
        lambda: p_rd_polynomial_from_data(2, x, x + 0.1, gamma1=1e100),
    ):
        with pytest.raises(PeclabError) as err:
            call()
        assert type(err.value) is ParameterError
        assert re.match(degenerate, str(err.value))


def test_report_takes_p_rd_from_the_single_ratio():
    # lambda * gamma1 is 0.42363112391930840 here, one bit off the ratio
    rep = report(0.7, 0.3, 0.2)
    assert rep.p_rd == rep.r_squared_check == p_rd_identity(0.7, 0.3, 0.2)
    assert rep.lambda_ == lambda_closed_form(0.7, 0.3, 0.2)
    assert report(2.0, 1.0, 0.0).p_rd == 1.0


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.2, 3.0),
    st.floats(0.1, 4.0),
    st.floats(0.0, 4.0),
    st.floats(0.01, 2.0),
)
def test_identity_and_monotonicity(gamma1, var_x, var_u, bump):
    lam = lambda_closed_form(gamma1, var_x, var_u)
    p = p_rd_identity(gamma1, var_x, var_u)
    assert p == pytest.approx(lam * gamma1, rel=1e-10)
    assert 0.0 <= p <= 1.0
    # strictly decreasing in the error variance
    assert p_rd_identity(gamma1, var_x, var_u + bump) < p


def test_identity_chain_against_fits():
    rng = _rng()
    for gamma1 in (0.5, 1.0, 2.0):
        for var_x in (0.5, 1.0, 2.0):
            for var_u in (0.5, 1.0, 2.0):
                x = rng.normal(0, np.sqrt(var_x), 100_000)
                xep = gamma1 * x + rng.normal(0, np.sqrt(var_u), 100_000)
                r2 = ols(design_with_intercept(x), xep).r_squared
                assert abs(r2 - p_rd_identity(gamma1, var_x, var_u)) < 0.01


# ---------------------------------------------------------------------------
# Surrogate bounds


def test_surrogate_bounds_unit_gamma():
    assert surrogate_ratio(0.5, 1.0) == pytest.approx(0.5)
    assert surrogate_bounds(0.5, 1.0) == (0.0, 1.0)


def test_surrogate_no_error():
    assert surrogate_ratio(1.0, 1.0) == 1.0


def test_surrogate_small_gamma_reaches_truth():
    assert surrogate_ratio(0.5, 0.5) == pytest.approx(1.0)
    lo, hi = surrogate_bounds(0.5, 0.5)
    assert lo == 0.0 and hi == pytest.approx(2.0)


def test_surrogate_gamma_above_one_never_exceeds_truth():
    for g in (1.0, 1.5, 2.0):
        lo, hi = surrogate_bounds(0.9, g)
        assert hi <= 1.0 + 1e-12


def test_surrogate_rejects_zero_gamma():
    with pytest.raises(ParameterError, match="^gamma1 must be nonzero$"):
        surrogate_bounds(0.5, 0.0)
    with pytest.raises(ParameterError, match="^gamma1 must be nonzero$"):
        surrogate_ratio(0.5, 0.0)
    with pytest.raises(ParameterError, match="^gamma1 must be nonzero$"):
        predict_naive_slope_rr(1.0, 0.0, 0.5, Link.LOG)
    # a non-finite gamma1 is rejected as the closed forms reject it
    for gamma1 in (float("nan"), float("inf"), -float("inf")):
        message = f"^gamma1 must be finite, got {re.escape(str(gamma1))}$"
        for call in (
            lambda: surrogate_bounds(0.5, gamma1),
            lambda: surrogate_ratio(0.5, gamma1),
            lambda: predict_naive_slope_rr(1.0, gamma1, 0.5, Link.LOG),
            lambda: predict_naive_slope_rr(1.0, gamma1, 0.5, Link.LOGIT),
        ):
            with pytest.raises(ParameterError, match=message):
                call()


@pytest.mark.parametrize("p_rd", [-0.1, 1.5, 5.0, float("nan")])
def test_surrogate_bounds_reject_p_rd_outside_the_unit_interval(p_rd):
    with pytest.raises(ParameterError, match=r"^p_rd must lie in \[0, 1\]$"):
        surrogate_bounds(p_rd, 1.0)
    with pytest.raises(ParameterError, match=r"^p_rd must lie in \[0, 1\]$"):
        surrogate_ratio(p_rd, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0]))
def test_figure2_linearity(p, gamma1):
    assert surrogate_ratio(p, gamma1) == pytest.approx(p / gamma1, rel=1e-10)


def test_figure2_grid_shape():
    rows = figure2_grid()
    gammas = {g for g, _, _ in rows}
    assert gammas == {0.5, 0.75, 1.0, 1.5, 2.0}
    for g, p, lam in rows:
        assert lam == pytest.approx(p / g, rel=1e-12)


# ---------------------------------------------------------------------------
# Risk-ratio prediction


def test_rr_prediction_no_error_passthrough():
    pred = predict_naive_slope_rr(0.3, 1.0, 1.0, Link.LOG)
    assert pred.value == pytest.approx(0.3)
    assert not pred.approximate


def test_rr_prediction_log_link_simulation_oracle():
    # rare log-linear world: naive logistic slope ~ (p_rr / gamma1) beta1
    rng = _rng()
    n = 2_000_000
    beta1, var_x, var_u = 0.3, 1.0, 1.0
    p_rr = p_rd_identity(1.0, var_x, var_u)  # 0.5
    pred = predict_naive_slope_rr(beta1, 1.0, p_rr, Link.LOG)
    assert pred.value == pytest.approx(0.15)
    x = rng.normal(0, 1, n)
    xep = x + rng.normal(0, 1, n)
    prob = np.exp(-6 + beta1 * x)
    y = (rng.uniform(size=n) < prob).astype(float)
    fit = logistic_irls(design_with_intercept(xep), y)
    assert fit.coefficients[1] == pytest.approx(pred.value, abs=0.02)


def test_rr_prediction_logit_link_flagged_and_close():
    rng = _rng()
    n = 2_000_000
    beta1 = 0.3
    pred = predict_naive_slope_rr(beta1, 1.0, 0.5, Link.LOGIT)
    assert pred.approximate
    x = rng.normal(0, 1, n)
    xep = x + rng.normal(0, 1, n)
    prob = 1 / (1 + np.exp(-(-6 + beta1 * x)))
    y = (rng.uniform(size=n) < prob).astype(float)
    fit = logistic_irls(design_with_intercept(xep), y)
    assert abs(fit.coefficients[1] - pred.value) / abs(pred.value) < 0.10


def test_rr_prediction_rejects_identity_link():
    with pytest.raises(ParameterError, match="^link must be log or logit$"):
        predict_naive_slope_rr(0.3, 1.0, 0.5, Link.IDENTITY)
    with pytest.raises(ParameterError, match="^gamma1 must be nonzero$"):
        predict_naive_slope_rr(0.3, 0.0, 0.5, Link.LOG)


# ---------------------------------------------------------------------------
# Polynomial powers


def test_polynomial_q1_reduces_to_identity():
    assert p_rd_polynomial(1, 1.3, 0.8, 0.4) == pytest.approx(
        p_rd_identity(1.3, 0.8, 0.4)
    )


def test_polynomial_q2_matches_fitted_r_squared():
    rng = _rng()
    n = 100_000
    x = rng.normal(0, 1, n)
    xep = x + rng.normal(0, 1, n)
    got = p_rd_polynomial_from_data(2, x, xep, gamma1=1.0)
    r2 = ols(design_with_intercept(x**2), xep**2).r_squared
    assert abs(got - r2) < 0.01
    # population value for standard normals: Var(X^2)=2, Var(Xep^2)=8
    assert got == pytest.approx(0.25, abs=0.01)


def test_polynomial_q3_matches_fitted_r_squared():
    # the q >= 3 identity assumes the error is additive on the power scale
    # (no odd-power cross moments); build exactly that world
    rng = _rng()
    n = 200_000
    x = rng.normal(0, 1, n)
    xq = x**3
    xepq = xq + rng.normal(0, 2, n)
    got = p_rd_polynomial(3, 1.0, float(np.var(xq)), 4.0)
    r2 = ols(design_with_intercept(xq), xepq).r_squared
    assert abs(got - r2) < 0.01


def test_polynomial_q3_classical_error_breaks_the_assumption():
    # under plain classical error the cubic cross moment 3 E[X^4] Var(U)
    # inflates Cov(X^3, Xep^3) above gamma^3 Var(X^3), so the formula value
    # sits well below the fitted R^2; the gap is the documented limitation
    rng = _rng()
    n = 200_000
    x = rng.normal(0, 1, n)
    xep = x + rng.normal(0, 1, n)
    got = p_rd_polynomial_from_data(3, x, xep, gamma1=1.0)
    r2 = ols(design_with_intercept(x**3), xep**3).r_squared
    assert got == pytest.approx(15 / 120, abs=0.02)
    assert r2 == pytest.approx(24**2 / (15 * 120), abs=0.03)
    assert got < r2 - 0.1


def test_quadratic_outcome_naive_coefficient():
    # Y = b1 X + b2 X^2 + noise under classical error:
    # fitted naive b2 ~ (P_RD2 / gamma1^2) b2
    rng = _rng()
    n = 400_000
    b1, b2 = 1.0, 0.5
    x = rng.normal(0, 1, n)
    xep = x + rng.normal(0, 1, n)
    y = b1 * x + b2 * x**2 + rng.normal(0, 0.5, n)
    fit = ols(design_with_intercept(xep, xep**2), y)
    p_rd2 = p_rd_polynomial_from_data(2, x, xep, gamma1=1.0)
    predicted = p_rd2 * b2
    assert abs(fit.coefficients[2] - predicted) / predicted < 0.10


def test_polynomial_rejects_bad_q():
    with pytest.raises(ParameterError):
        p_rd_polynomial(0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Report from data


def test_report_from_data_classical_error():
    rng = _rng()
    x = rng.normal(5, 1, 200_000)
    xep = x + rng.normal(0, 1, 200_000)
    rep = report_from_data(Dataset({"X": x, "Xep": xep}))
    assert rep.gamma1 == pytest.approx(1.0, abs=0.01)
    assert rep.lambda_ == pytest.approx(0.5, abs=0.01)
    assert rep.p_rd == pytest.approx(0.5, abs=0.01)
    assert rep.r_squared_check == pytest.approx(rep.p_rd, abs=0.01)


# ---------------------------------------------------------------------------
# Decompositions


def test_epc_no_v_loading_reduces_to_lambda():
    rng = _rng()
    n = 100_000
    v = rng.gamma(2, 1, n)
    c = rng.gamma(1, 1, n)
    x = rng.normal(0.3 * c + 5, 0.5)
    y = 5 + 1.0 * x - 1.23 * c + rng.normal(0, 1, n)
    xep = x + rng.normal(0, 0.3, n)  # no V in the error
    ds = Dataset({"X": x, "Xep": xep, "C": c, "V": v, "Y": y})
    dec = epc_decomposition(ds, ["C"])
    lam = lambda_closed_form(1.0, 0.25, 0.09)
    assert dec.predicted_naive == pytest.approx(dec.beta1 * lam, abs=0.02)
    assert abs(dec.gamma_v_star) < 0.02
    assert dec.predicted_naive == pytest.approx(dec.direct_naive, abs=0.01)


def test_epc_reconstructs_table3_naive_slope():
    s = worlds.table3_scenario(1, n=100_000, seed=1001)
    ds = generate_scenario(s, 0)
    dec = epc_decomposition(ds, ["Cep"])
    assert dec.predicted_naive == pytest.approx(dec.direct_naive, abs=0.01)
    assert dec.direct_naive == pytest.approx(0.55, abs=0.02)


def test_epc_reconstructs_direct_v_effect_scenarios_with_v_adjusted():
    # V -> Y worlds: the correct model's covariates must include V; the
    # pseudo-confounder projection is then structurally zero
    for idx in (2, 3):
        s = worlds.table3_scenario(idx, n=100_000, seed=1004)
        ds = generate_scenario(s, 0)
        dec = epc_decomposition(ds, ["Cep", "V"])
        assert dec.rho_v == 0.0
        assert dec.predicted_naive == pytest.approx(dec.direct_naive, abs=0.01), idx


def test_epc_unadjusted_v_effect_breaks_the_identity():
    # same worlds without V in the conditioning set: the correct-model
    # residual carries the direct V effect, which correlates with the
    # measured exposure, so the reconstruction visibly fails; this is the
    # differential-error mechanism itself
    s = worlds.table3_scenario(2, n=100_000, seed=1004)
    ds = generate_scenario(s, 0)
    dec = epc_decomposition(ds, ["Cep"])
    assert abs(dec.predicted_naive - dec.direct_naive) > 0.3


def test_epc_componentwise_with_known_loading():
    # synthetic world with a known pseudo-confounder path
    rng = _rng()
    n = 100_000
    v = rng.normal(0, 1, n)
    x = rng.normal(0, 1, n) + 0.4 * v
    y = 2.0 * x + rng.normal(0, 1, n)
    xep = x + 0.6 * v + rng.normal(0, 0.5, n)
    ds = Dataset({"X": x, "Xep": xep, "V": v, "Y": y})
    dec = epc_decomposition(ds, [])
    assert dec.predicted_naive == pytest.approx(dec.direct_naive, abs=0.01)
    assert dec.gamma_v_star != pytest.approx(0.0, abs=0.05)


def test_ec_term_vanishes_when_xep_ignorable():
    # Xep carries no information about the C-calibration residual
    rng = _rng()
    n = 100_000
    c = rng.gamma(1, 1, n)
    x = rng.normal(5, 1, n)  # X independent of C
    y = 5 + x - 1.23 * c + rng.normal(0, 1, n)
    xep = x + rng.normal(0, 0.3, n)
    cep = 0.7 + 0.89 * c + rng.normal(0, 0.15, n)
    ds = Dataset({"X": x, "Xep": xep, "C": c, "Cep": cep, "Y": y})
    dec = ec_decomposition(ds)
    assert abs(dec.ec_term) < 0.01
    assert dec.predicted_naive == pytest.approx(dec.direct_naive, abs=0.01)


def test_ec_differential_error_smaller_bias_than_nondifferential():
    # aligned differential confounder error (a = 0.5) adjusts part of the
    # residual away; the non-differential world (a = 0) cannot
    terms = {}
    for a in (0.0, 0.5):
        s = worlds.table5_scenario(a, 0.0, n=100_000, seed=1002)
        ds = generate_scenario(s, 0)
        dec = ec_decomposition(ds)
        terms[a] = dec
        assert dec.predicted_naive == pytest.approx(dec.direct_naive, abs=0.01)
    assert abs(terms[0.5].ec_term) < abs(terms[0.0].ec_term)
    assert abs(terms[0.0].ec_term) > 0.005


def test_ec_reconstructs_every_table5_world():
    # V is the error-free covariate z minus C in these worlds; conditioning on
    # it keeps the linear-probability residual out of the exposure projection
    for a, b in STUDY_TABLES["table5"].published:
        s = worlds.table5_scenario(a, b, n=100_000, seed=1003)
        ds = generate_scenario(s, 0)
        dec = ec_decomposition(ds, ["V"])
        assert dec.predicted_naive == pytest.approx(dec.direct_naive, abs=0.01), (a, b)


def _counting_factor_calls(monkeypatch):
    """Count the ColumnFactor.of calls (one per factorised dataset) and the
    least-squares solves made on a factor."""
    calls = []
    real_of, real_solve = ColumnFactor.of.__func__, ColumnFactor._solve

    def of(cls, *args, **kwargs):
        calls.append("of")
        return real_of(cls, *args, **kwargs)

    def solve(self, *args, **kwargs):
        calls.append("solve")
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(ColumnFactor, "of", classmethod(of))
    monkeypatch.setattr(ColumnFactor, "_solve", solve)
    return calls


def _fits_on_the_factor(monkeypatch, ds, decomposition, adjustment, solves):
    # no tall design or ols in biasfactor: one factor for a fresh dataset,
    # each fit solved once on it, and nothing new once the dataset holds them
    assert not {"ols", "wls", "design_with_intercept"} & set(vars(biasfactor))
    calls = _counting_factor_calls(monkeypatch)
    first = decomposition(ds, adjustment)
    assert (calls.count("of"), calls.count("solve")) == (1, solves)
    assert decomposition(ds, adjustment) == first
    assert (calls.count("of"), calls.count("solve")) == (1, solves)


@pytest.mark.parametrize("adjustment", [["Cep"], ["Cep", "V"]])
def test_epc_fits_three_designs_once_each(adjustment, monkeypatch):
    # [1, X, z'] -> Y, [1, Xep, V, z' minus V] -> X and [1, Xep, z'] -> Y,
    # plus -> V unless z' holds V
    ds = generate_scenario(worlds.table3_scenario(2, n=3000, seed=1004), 0)
    solves = 3 if "V" in adjustment else 4
    _fits_on_the_factor(monkeypatch, ds, epc_decomposition, adjustment, solves)


@pytest.mark.parametrize("adjustment", [None, ["V"]])
def test_ec_fits_two_designs_in_four_solves(adjustment, monkeypatch):
    # [1, X, C, z] -> Y and [1, Xep, Cep, z] -> X, C, Y
    ds = generate_scenario(worlds.table5_scenario(0.5, 0.0, n=3000, seed=1002), 0)
    _fits_on_the_factor(monkeypatch, ds, ec_decomposition, adjustment, 4)


@pytest.mark.parametrize("adjustment", [None, ["V"]])
def test_rho_ec_is_the_projection_of_the_literal_uc_star(adjustment):
    # rho_EC is defined on U_C* = C - P_[1,Cep,z] C; the decomposition reads
    # C's coefficient instead, which the normal equations make the same
    ds = generate_scenario(worlds.table5_scenario(0.5, 0.0, n=3000, seed=1002), 0)
    z = [ds[c] for c in adjustment or []]
    c_design = design_with_intercept(ds["Cep"], *z)
    uc_star = ds["C"] - ols(c_design, ds["C"]).predict(c_design)
    want = ols(design_with_intercept(ds["Xep"], ds["Cep"], *z), uc_star).coefficients[1]
    assert abs(ec_decomposition(ds, adjustment).rho_ec - want) < 1e-12


def test_report_from_data_matches_tall_fits():
    ds = generate_scenario(worlds.table3_scenario(1, n=3000, seed=1006), 0)
    for adjustment in ([], ["C"], ["C", "V"]):
        rep = report_from_data(ds, adjustment)
        z = [ds[c] for c in adjustment]
        meas = ols(design_with_intercept(ds["X"], *z), ds["Xep"])
        var_x = ols(design_with_intercept(*z), ds["X"]).residual_variance if z else np.var(ds["X"], ddof=1)
        want = report(float(meas.coefficients[1]), float(var_x), float(meas.residual_variance))
        np.testing.assert_allclose(
            [rep.lambda_, rep.gamma1, rep.p_rd, rep.r_squared_check],
            [want.lambda_, want.gamma1, want.p_rd, meas.r_squared],
            rtol=0, atol=1e-12,
        )


@pytest.mark.parametrize(
    "routine, adjustment, message",
    [
        (report_from_data, ["X"], "exposure column(s): X"),
        (report_from_data, ["C", "Y"], "outcome column(s): Y"),
        (epc_decomposition, ["Cep", "Y"], "outcome column(s): Y"),
        (epc_decomposition, ["X"], "exposure column(s): X"),
        (epc_decomposition, ["Xep", "V", "Y"], "exposure or outcome column(s): Xep, Y"),
        (ec_decomposition, ["Y"], "outcome column(s): Y"),
        (ec_decomposition, ["Xep"], "exposure column(s): Xep"),
        (ec_decomposition, ["V", "C"], "confounder column(s): C"),
        (ec_decomposition, ["Cep", "X"], "confounder or exposure column(s): Cep, X"),
    ],
)
def test_adjustment_rejects_the_routines_own_columns(routine, adjustment, message):
    # with Y in the adjustment a fit regresses Y on itself (beta1 ~ 1e-16);
    # with X or Xep, or C/Cep beside EC's own, a design is singular
    ds = generate_scenario(worlds.table3_scenario(1, n=2000, seed=5), 0)
    with pytest.raises(ParameterError, match=f"^adjustment must not hold the {re.escape(message)}$"):
        routine(ds, adjustment)


@pytest.mark.parametrize(
    "scenario, calib_cols, naive_cols",
    [
        # EPC: X on [Xep, V, z' minus V], naive design [Xep, z']
        (worlds.table3_scenario(2, n=3000, seed=1005), ["Xep", "V", "Cep"], ["Xep", "Cep"]),
        (worlds.table3_scenario(2, n=3000, seed=1005), ["Xep", "V", "Cep"], ["Xep", "Cep", "V"]),
        # EC: X on the naive design [Xep, Cep, z] itself
        (worlds.table5_scenario(0.5, 0.0, n=3000, seed=1005), ["Xep", "Cep"], ["Xep", "Cep"]),
        (worlds.table5_scenario(0.5, 0.0, n=3000, seed=1005), ["Xep", "Cep", "V"], ["Xep", "Cep", "V"]),
    ],
)
def test_calibration_residual_has_no_naive_design_term(scenario, calib_cols, naive_cols):
    # why the decompositions carry no rho_u: the calibration design spans
    # every naive regressor, so by the normal equations its residual U* is
    # orthogonal to the naive design and projects on it with coefficient zero
    ds = generate_scenario(scenario, 0)
    calib_design = design_with_intercept(*[ds[c] for c in calib_cols])
    u_star = ds["X"] - ols(calib_design, ds["X"]).predict(calib_design)
    rho_u = ols(design_with_intercept(*[ds[c] for c in naive_cols]), u_star).coefficients[1]
    assert abs(rho_u) < 1e-12


def test_polynomial_p_rd_defaults_gamma1_to_the_ols_slope():
    rng = _rng()
    x = rng.normal(size=2000)
    xep = 0.8 * x + rng.normal(scale=0.5, size=2000)
    slope = float(ols(design_with_intercept(x), xep).coefficients[1])
    for q in (1, 2, 3):
        assert p_rd_polynomial_from_data(q, x, xep) == p_rd_polynomial_from_data(
            q, x, xep, gamma1=slope
        )


def test_polynomial_p_rd_default_gamma1_needs_equal_length_columns():
    with pytest.raises(ParameterError, match="x and xep must be vectors of equal length"):
        p_rd_polynomial_from_data(2, np.arange(6.0), np.arange(7.0))


@pytest.mark.parametrize("x, xep", [
    ([1.0, 2.0, 3.0], [1.0, 2.0]),
    (np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(2, 3)),
    (2.0, 2.0),
])
@pytest.mark.parametrize("gamma1", [None, 1.0])
def test_polynomial_p_rd_checks_its_columns_with_or_without_gamma1(x, xep, gamma1):
    with pytest.raises(ParameterError, match="^x and xep must be vectors of equal length$"):
        p_rd_polynomial_from_data(2, x, xep, gamma1=gamma1)
