import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peclab.errors import ParameterError, SeparationError, SingularDesignError
from peclab.regress import design_with_intercept, logistic_irls, ols, wls


def _rng():
    return np.random.default_rng(20250809)


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


def test_response_matrix_fits_equal_single_fits():
    rng = _rng()
    n = 500
    x, z = rng.normal(size=n), rng.normal(size=n)
    design = design_with_intercept(x, z)
    ys = [1.0 + x + rng.normal(size=n), z - 2.0 * x + rng.normal(size=n)]
    multi = ols(design, np.column_stack(ys))
    assert len(multi) == 2
    for fit, y in zip(multi, ys):
        single = ols(design, y)
        np.testing.assert_array_equal(fit.coefficients, single.coefficients)
        assert fit.residual_variance == single.residual_variance
        assert fit.r_squared == single.r_squared


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


def test_nonpositive_weights_rejected():
    with pytest.raises(ParameterError):
        wls(design_with_intercept(np.arange(4.0)), np.arange(4.0), np.array([1, 1, 0, 1]))


# ---------------------------------------------------------------------------
# Logistic IRLS


def test_null_model_recovers_logit_of_mean():
    rng = _rng()
    x = rng.normal(size=2000)
    y = (rng.uniform(size=2000) < 0.5).astype(float)
    fit = logistic_irls(design_with_intercept(x), y)
    assert fit.converged
    assert abs(fit.coefficients[1]) < 0.1
    assert fit.coefficients[0] == pytest.approx(math.log(y.mean() / (1 - y.mean())), abs=0.01)


def test_four_point_dataset_matches_closed_form():
    # {(0,0),(0,1),(1,0),(1,1)} x25 plus one extra (1,1): saturated binary-x
    # model with closed-form MLE intercept logit(25/50)=0 and slope
    # logit(26/51) - logit(25/50) = log(26/25)
    x = np.concatenate([np.tile([0, 0, 1, 1], 25), [1]]).astype(float)
    y = np.concatenate([np.tile([0, 1, 0, 1], 25), [1]]).astype(float)
    fit = logistic_irls(design_with_intercept(x), y)
    assert fit.converged
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


def test_constant_response_rejected():
    with pytest.raises(ParameterError):
        logistic_irls(design_with_intercept(np.arange(5.0)), np.ones(5))


def test_noninteger_response_rejected():
    with pytest.raises(ParameterError):
        logistic_irls(design_with_intercept(np.arange(5.0)), np.linspace(0, 1, 5))
