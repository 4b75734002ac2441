import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peclab import regress
from peclab.datagen import generate_scenario
from peclab.errors import (
    ConvergenceError,
    ParameterError,
    SeparationError,
    SingularDesignError,
)
from peclab.harness import METHODS, STUDY_TABLES
from peclab.regress import (
    INTERCEPT,
    _constant_columns,
    _log_likelihood,
    _sigmoid,
    design_with_intercept,
    logistic_irls,
    ols,
    wls,
)


def _rng():
    return np.random.default_rng(20250809)


# ---------------------------------------------------------------------------
# Designs


def test_design_is_column_major_and_equals_column_stack():
    rng = _rng()
    x, z = rng.normal(size=300), rng.normal(size=300)
    a = design_with_intercept(x, z)
    assert a.flags.f_contiguous
    assert np.array_equal(a, np.column_stack([np.ones(300), x, z]))
    with pytest.raises(ParameterError, match="^a design needs at least one column"):
        design_with_intercept()


@pytest.mark.parametrize("other", [np.ones(1), np.ones(4), np.ones((5, 2)), np.float64(1.0)])
def test_design_rejects_columns_of_another_shape(other):
    with pytest.raises(ParameterError, match="equal length"):
        design_with_intercept(np.arange(5.0), other)


# ---------------------------------------------------------------------------
# OLS


def test_exact_linear_data():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    fit = ols(design_with_intercept(x), 2 * x)
    np.testing.assert_allclose(fit.coefficients, [0.0, 2.0], atol=1e-12)
    assert fit.r_squared == 1.0


def test_table2_calibration_slope(table2_dataset):
    fit = ols(design_with_intercept(table2_dataset["Xep"]), table2_dataset["X"])
    g0, g1 = fit.coefficients
    assert abs(g0 - 4.5) < 0.01
    assert abs(g1 - 0.5) < 0.01


def test_table2_r_squared(table2_dataset):
    fit = ols(design_with_intercept(table2_dataset["X"]), table2_dataset["Xep"])
    assert abs(fit.r_squared - 0.50) < 0.01


def test_residual_orthogonality():
    rng = _rng()
    a = design_with_intercept(rng.normal(size=500), rng.normal(size=500))
    y = rng.normal(size=500)
    fit = ols(a, y)
    resid = y - a @ fit.coefficients
    # standardized: |x_j . r| / n below 1e-8
    for j in range(a.shape[1]):
        col = a[:, j]
        scale = max(np.linalg.norm(col) * np.linalg.norm(resid), 1e-30)
        assert abs(col @ resid) / scale < 1e-8


def test_rank_deficiency_names_columns():
    rng = _rng()
    x = rng.normal(size=50)
    with pytest.raises(SingularDesignError) as err:
        ols(
            np.column_stack([np.ones(50), x, 2 * x]),
            rng.normal(size=50),
            column_names=("intercept", "x", "x_doubled"),
        )
    assert "x_doubled" in err.value.columns


def test_rank_read_from_r_names_duplicated_column(monkeypatch):
    # a tall design is checked through the SVD of its p x p R factor; only
    # the failed check scans the design to name the duplicated column
    rng = _rng()
    n = 10_000
    x, z = rng.normal(size=n), rng.normal(size=n)
    design = np.column_stack([np.ones(n), x, z, x])
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    with pytest.raises(SingularDesignError) as err:
        ols(design, rng.normal(size=n), column_names=("intercept", "x", "z", "x_again"))
    assert err.value.columns == ["x_again"]
    assert shapes[0] == (4, 4)


@pytest.mark.parametrize(
    "fit",
    [ols, lambda a, y: wls(a, y, np.ones(y.shape[0])), logistic_irls],
    ids=["ols", "wls", "logistic_irls"],
)
def test_two_dimensional_response_rejected(fit):
    rng = _rng()
    a = design_with_intercept(rng.normal(size=100))
    y = (rng.uniform(size=(100, 2)) < 0.5).astype(float)
    with pytest.raises(ParameterError, match="^response must be a vector, got 2 dimension"):
        fit(a, y)


@pytest.mark.parametrize("const_at", [0, 2, None])
@pytest.mark.parametrize("order", ["C", "F"])
def test_constant_columns_match_row_major_reference(const_at, order):
    rng = _rng()
    a = rng.normal(size=(1000, 4))
    if const_at is not None:
        a[:, const_at] = 2.5
    a = np.asarray(a, order=order)
    expected = np.ptp(a, axis=0) == 0
    np.testing.assert_array_equal(_constant_columns(a), expected)
    assert expected.sum() == (const_at is not None)


def test_tall_ols_agrees_with_lstsq():
    rng = _rng()
    n = 100_000
    x, z = rng.normal(size=n), rng.uniform(size=n)
    a = design_with_intercept(x, z, x * z)
    y = 0.5 + 2.0 * x - z + rng.normal(size=n)
    expected = np.linalg.lstsq(a, y, rcond=None)[0]
    np.testing.assert_allclose(ols(a, y).coefficients, expected, rtol=1e-12)


@pytest.mark.parametrize("rows", [99, 200])
def test_response_with_wrong_row_count_rejected(rows):
    rng = _rng()
    a = design_with_intercept(rng.normal(size=100))
    y = rng.normal(size=rows)
    message = f"response has {rows} rows but the design has 100"
    with pytest.raises(ParameterError, match=message):
        ols(a, y)
    with pytest.raises(ParameterError, match=message):
        wls(a, y, np.ones(rows))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 100), st.integers(0, 10_000))
def test_scale_equivariance(k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=40)
    z = rng.normal(size=40)
    y = 1.5 + 2.0 * x - z + rng.normal(size=40)
    base = ols(design_with_intercept(x, z), y)
    scaled = ols(design_with_intercept(k * x, z), y)
    assert scaled.coefficients[1] == pytest.approx(base.coefficients[1] / k, rel=1e-10)
    assert 0.0 <= scaled.r_squared <= 1.0


def test_needs_more_rows_than_columns():
    with pytest.raises(ParameterError):
        ols(np.ones((2, 2)), np.ones(2))


# ---------------------------------------------------------------------------
# WLS


def test_equal_weights_reduce_to_ols():
    rng = _rng()
    a = design_with_intercept(rng.normal(size=60))
    y = rng.normal(size=60)
    np.testing.assert_allclose(
        wls(a, y, np.full(60, 3.7)).coefficients,
        ols(a, y).coefficients,
        atol=1e-12,
    )


def test_integer_weights_equal_row_duplication():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.5, 0.9, 2.2, 2.8])
    w = np.array([2.0, 2.0, 1.0, 1.0])
    weighted = wls(design_with_intercept(x), y, w)
    dup_idx = [0, 0, 1, 1, 2, 3]
    duplicated = ols(design_with_intercept(x[dup_idx]), y[dup_idx])
    np.testing.assert_allclose(weighted.coefficients, duplicated.coefficients, atol=1e-12)


def test_closed_form_weighted_slope():
    rng = _rng()
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    w = rng.uniform(0.5, 2.0, size=30)
    fit = wls(design_with_intercept(x), y, w)
    xw = np.sum(w * x) / w.sum()
    yw = np.sum(w * y) / w.sum()
    slope = np.sum(w * (x - xw) * (y - yw)) / np.sum(w * (x - xw) ** 2)
    assert fit.coefficients[1] == pytest.approx(slope, rel=1e-10)
    # the goodness of fit is read in the weighted geometry
    rss = np.sum(w * (y - fit.coefficients[0] - fit.coefficients[1] * x) ** 2)
    assert fit.residual_variance == pytest.approx(rss / 28, rel=1e-10)
    assert fit.r_squared == pytest.approx(1 - rss / np.sum(w * (y - yw) ** 2), rel=1e-10)


def test_nonpositive_weights_rejected():
    with pytest.raises(ParameterError):
        wls(design_with_intercept(np.arange(4.0)), np.arange(4.0), np.array([1, 1, 0, 1]))


# ---------------------------------------------------------------------------
# Logistic IRLS


def test_sigmoid_bit_equal_to_masked_formula():
    eta = np.array(
        [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 30.0, -30.0,
         700.0, -700.0, 745.0, -745.0, 800.0, -800.0]
    )
    eta = np.concatenate([eta, np.linspace(-40.0, 40.0, 801)])
    expected = np.empty_like(eta)
    pos = eta >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    expected[~pos] = e / (1.0 + e)
    assert np.array_equal(_sigmoid(eta), expected)


def test_log_likelihood_matches_signed_margin_formula():
    eta = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0, 745.0, -745.0])
    for yv in (0.0, 1.0):
        for one in eta:
            e_, y_ = np.array([one]), np.array([yv])
            e = np.exp(-np.abs(e_))
            s = (2.0 * y_ - 1.0) * e_
            expected = float(-np.sum(np.maximum(-s, 0.0) + np.log1p(e)))
            got = _log_likelihood(y_, e_, e)
            assert got == pytest.approx(expected, rel=1e-13, abs=0.0), (yv, one)


@pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
def test_response_not_coded_zero_one_rejected(bad):
    y = np.array([0.0, 1.0, 0.0, 1.0, bad, 1.0])
    with pytest.raises(ParameterError, match="coded 0/1"):
        logistic_irls(design_with_intercept(np.arange(6.0)), y)


@pytest.mark.parametrize("level", [0.0, 1.0])
def test_all_zero_or_all_one_response_rejected(level):
    with pytest.raises(ParameterError, match="constant"):
        logistic_irls(design_with_intercept(np.arange(6.0)), np.full(6, level))


def test_logistic_fit_same_on_row_and_column_major_designs():
    rng = _rng()
    n = 5000
    x, z = rng.normal(size=n), rng.normal(size=n)
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-(-1.0 + 0.8 * x - 0.5 * z)))).astype(float)
    design = design_with_intercept(x, z)
    by_col = logistic_irls(np.asfortranarray(design), y)
    by_row = logistic_irls(np.ascontiguousarray(design), y)
    assert np.array_equal(by_col.coefficients, by_row.coefficients)
    assert by_col.iterations == by_row.iterations


def test_logistic_rank_read_from_r_names_duplicated_column(monkeypatch):
    rng = _rng()
    n = 10_000
    x, z = rng.normal(size=n), rng.normal(size=n)
    design = np.column_stack([np.ones(n), x, z, x])
    y = (rng.uniform(size=n) < 0.3).astype(float)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    with pytest.raises(SingularDesignError) as err:
        logistic_irls(design, y, column_names=("intercept", "x", "z", "x_again"))
    assert err.value.columns == ["x_again"]
    assert shapes[0] == (4, 4)


def test_null_model_recovers_logit_of_mean():
    rng = _rng()
    x = rng.normal(size=2000)
    y = (rng.uniform(size=2000) < 0.5).astype(float)
    fit = logistic_irls(design_with_intercept(x), y)
    assert abs(fit.coefficients[1]) < 0.1
    assert fit.coefficients[0] == pytest.approx(math.log(y.mean() / (1 - y.mean())), abs=0.01)


def test_four_point_dataset_matches_closed_form():
    # {(0,0),(0,1),(1,0),(1,1)} x25 plus one extra (1,1): saturated binary-x
    # model with closed-form MLE intercept logit(25/50)=0 and slope
    # logit(26/51) - logit(25/50) = log(26/25)
    x = np.concatenate([np.tile([0, 0, 1, 1], 25), [1]]).astype(float)
    y = np.concatenate([np.tile([0, 1, 0, 1], 25), [1]]).astype(float)
    fit = logistic_irls(design_with_intercept(x), y)
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-4)
    assert fit.coefficients[1] == pytest.approx(math.log(26 / 25), abs=1e-4)


def test_score_at_solution_below_tolerance():
    rng = _rng()
    x = rng.normal(size=5000)
    z = rng.normal(size=5000)
    p = 1 / (1 + np.exp(-(-1.0 + 0.8 * x - 0.5 * z)))
    y = (rng.uniform(size=5000) < p).astype(float)
    a = design_with_intercept(x, z)
    fit = logistic_irls(a, y)
    mu = 1 / (1 + np.exp(-(a @ fit.coefficients)))
    assert np.max(np.abs(a.T @ (y - mu))) < 1e-6
    # observed information positive definite at the solution
    w = mu * (1 - mu)
    info = (a * w[:, None]).T @ a
    assert np.all(np.linalg.eigvalsh(info) > 0)


def test_generating_coefficient_recovered():
    # binary world with a rare outcome: the exposure coefficient 0.3 comes
    # back on average (single fits are noisy at ~100 events per replication)
    from peclab import worlds
    from peclab.datagen import generate_scenario

    s = worlds.table4_scenario(2, n=10_000, replications=1, seed=4242)
    coefs = []
    for rep in range(100):
        ds = generate_scenario(s, rep)
        fit = logistic_irls(
            design_with_intercept(ds["X"], ds["C"], ds["V"]), ds["Y"]
        )
        coefs.append(fit.coefficients[1])
    assert abs(np.mean(coefs) - 0.3) < 0.03


def test_separation_detected():
    x = np.concatenate([-1 - np.arange(20.0), 1 + np.arange(20.0)])
    y = (x > 0).astype(float)
    with pytest.raises(SeparationError):
        logistic_irls(design_with_intercept(x), y)


@pytest.mark.parametrize("cap", [17, 18, 100])
def test_separation_detected_at_the_iteration_cap(cap, monkeypatch):
    # the score first falls below the tolerance on the 17th step; a fit that
    # ends at the cap is still checked for a saturated optimum
    monkeypatch.setattr(regress, "IRLS_MAX_ITER", cap)
    x = np.arange(8.0)
    with pytest.raises(SeparationError, match="perfectly separated"):
        logistic_irls(design_with_intercept(x), (x > 3.5).astype(float))


def test_iteration_cap_raises_convergence_error_with_trace(monkeypatch):
    monkeypatch.setattr(regress, "IRLS_MAX_ITER", 2)
    rng = _rng()
    x = rng.normal(size=500)
    y = (rng.random(500) < 1 / (1 + np.exp(-x))).astype(float)
    with pytest.raises(ConvergenceError, match=r"did not converge in 2 iterations") as err:
        logistic_irls(design_with_intercept(x), y)
    # the starting log-likelihood and one per step
    assert len(err.value.trace) == 3


def test_constant_response_rejected():
    with pytest.raises(ParameterError):
        logistic_irls(design_with_intercept(np.arange(5.0)), np.ones(5))


def test_noninteger_response_rejected():
    with pytest.raises(ParameterError):
        logistic_irls(design_with_intercept(np.arange(5.0)), np.linspace(0, 1, 5))


def test_step_halving_recovers_from_an_overshooting_newton_step(monkeypatch):
    # one event on an 18-row design: a full Newton step lowers the
    # log-likelihood once, so the fit halves that step before it converges
    x = np.array([3.31, -1.243, -0.244, 4.148, -0.359, -0.763, 0.263, 1.803, -1.341,
                  0.582, 0.196, -1.178, -0.256, -1.141, -0.388, 0.367, 0.349, -0.566])
    y = np.zeros(x.size)
    y[0] = 1.0
    evaluations = []

    def counting_log_likelihood(*args):
        evaluations.append(args)
        return _log_likelihood(*args)

    monkeypatch.setattr(regress, "_log_likelihood", counting_log_likelihood)
    design = design_with_intercept(x)
    fit = logistic_irls(design, y)
    # the start and one candidate per step, plus at least one halved candidate
    assert len(evaluations) > fit.iterations + 1
    score = design.T @ (y - _sigmoid(design @ fit.coefficients))
    assert np.max(np.abs(score)) < regress.IRLS_TOL
    assert fit.coefficients == pytest.approx([-4.7574, 1.1772], abs=1e-4)


# ---------------------------------------------------------------------------
# Warm start from the linear-probability fit


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("table", ["table4", "table5"])
def test_warm_start_reaches_the_cold_fit_in_no_more_steps(table, seed):
    study = STUDY_TABLES[table]
    # gcomp_rc takes gcomp_cep_vep's fit, so the measured designs are every basis
    designs = {METHODS[m][1:] for m in study.methods if not METHODS[m][1].endswith("_RC")}
    cold_steps = warm_steps = 0
    for key in study.published:
        ds = generate_scenario(study.build(key, n=10_000, seed=seed), 0)
        factor = ds.factor()
        for exposure, adjust in sorted(designs):
            names = (INTERCEPT, exposure, *adjust)
            design = design_with_intercept(*[ds[c] for c in names[1:]])
            checked = {"column_names": names, "r": factor.block(names)}
            cold = logistic_irls(design, ds["Y"], **checked)
            warm = logistic_irls(
                design, ds["Y"], **checked, start=lambda: factor.fit(names, "Y").coefficients
            )
            assert warm.coefficients == pytest.approx(cold.coefficients, rel=1e-12, abs=0)
            assert warm.iterations <= cold.iterations
            cold_steps += cold.iterations
            warm_steps += warm.iterations
    assert warm_steps < cold_steps


def test_warm_start_must_give_one_coefficient_per_column():
    x = np.arange(10.0)
    y = (x % 3 == 0).astype(float)
    with pytest.raises(ParameterError, match="start must give 2 coefficients"):
        logistic_irls(design_with_intercept(x), y, start=lambda: np.zeros(3))


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: logistic_irls reports a converged fit where no MLE "
    "exists; on quasi-complete separation it stops at beta = (-15.2, 15.2)",
)
@pytest.mark.parametrize("start", ["cold", "warm"])
def test_quasi_complete_separation_is_reported(start):
    # the tied rows at x = 1 keep |y - mu| = 0.5, so no check sees the
    # likelihood's supremum at infinity
    x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    design = design_with_intercept(x)
    warm = (lambda: ols(design, y).coefficients) if start == "warm" else None
    with pytest.raises(SeparationError):
        logistic_irls(design, y, start=warm)
