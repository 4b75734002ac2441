import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peclab import estimate, regress
from peclab.datagen import generate_scenario
from peclab.errors import (
    ConvergenceError,
    ParameterError,
    SeparationError,
    SingularDesignError,
)
from peclab.harness import METHODS, STUDY_TABLES, _replicate
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


def test_wls_weights_of_the_wrong_length_rejected():
    with pytest.raises(ParameterError, match="^weights must match the response length$"):
        wls(design_with_intercept(np.arange(4.0)), np.arange(4.0), np.ones(3))


@pytest.mark.parametrize(
    "fit",
    [ols, lambda a, y: wls(a, y, np.ones(y.shape[0])), logistic_irls],
    ids=["ols", "wls", "logistic_irls"],
)
def test_a_design_that_is_not_a_matrix_rejected(fit):
    with pytest.raises(ParameterError, match="^design must be a 2-d matrix$"):
        fit(np.arange(6.0), np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))


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
    # the design's columns of the R of [design, y]
    assert shapes[0] == (5, 4)


def test_logistic_rank_check_names_a_duplicate_in_a_design_without_a_constant():
    rng = _rng()
    n = 2000
    x, z = rng.normal(size=(2, n))
    y = (rng.uniform(size=n) < 0.3).astype(float)
    with pytest.raises(SingularDesignError) as err:
        logistic_irls(np.column_stack([x, z, x]), y, column_names=("x", "z", "x_again"))
    assert err.value.columns == ["x_again"]


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


def test_design_without_constant_column_starts_from_zero(monkeypatch):
    # no intercept: the fit starts at beta = 0, where the log-likelihood is
    # n log(1/2), and converges to the Newton fixed point
    rng = np.random.default_rng(3)
    n = 2000
    x, z = rng.normal(size=n), rng.normal(size=n)
    y = (rng.uniform(size=n) < _sigmoid(0.8 * x - 0.5 * z)).astype(float)
    a = np.column_stack([x, z])
    fit = logistic_irls(a, y)
    score = a.T @ (y - _sigmoid(a @ fit.coefficients))
    assert np.max(np.abs(score)) < regress.IRLS_TOL
    beta = np.zeros(2)
    for _ in range(50):
        mu = _sigmoid(a @ beta)
        beta = beta + np.linalg.solve((a * (mu * (1 - mu))[:, None]).T @ a, a.T @ (y - mu))
    np.testing.assert_allclose(fit.coefficients, beta, rtol=0, atol=1e-8)
    monkeypatch.setattr(regress, "IRLS_MAX_ITER", 0)
    with pytest.raises(ConvergenceError) as err:
        logistic_irls(a, y)
    assert err.value.trace == [pytest.approx(n * math.log(0.5), rel=1e-15)]


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


@pytest.mark.parametrize("cap", [16, 17, 18, 100])
def test_separation_detected_at_the_iteration_cap(cap, monkeypatch):
    # the score first falls below the tolerance after the 16th step; a fit
    # that ends at the cap is still checked for a separated optimum
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


# ---------------------------------------------------------------------------
# The concavity check takes the steps a likelihood comparison takes


def _reference_irls(design, response, column_names=None, r=None, scales=None):
    """logistic_irls as a loop that computes the log-likelihood at every
    Newton candidate and accepts the first one within the noise allowance
    of the log-likelihood at beta: the same start, steps, halvings and
    checks, written without the concavity check. Each accepted step's scale
    is appended to ``scales``."""
    a, y = regress._tall(design, response)
    a = np.asfortranarray(a)
    n, p = a.shape
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ParameterError("logistic response must be coded 0/1")
    if y.sum() in (0, n):
        raise ParameterError("logistic response is constant")
    if r is None:
        r = np.linalg.qr(np.column_stack([a, y]), mode="r")
    const_cols = np.flatnonzero(_constant_columns(a))
    if const_cols.size:
        j = const_cols[0]
        ybar = y.mean()
        var = ybar * (1.0 - ybar)
        beta = regress._solve_rows(r[:, :p], r[:, p], column_names) / var
        beta[j] += (np.log(ybar / (1.0 - ybar)) - ybar / var) / a[0, j]
    else:
        regress._check_rank(r[:, :p], column_names)
        beta = np.zeros(p)
    eta = a @ beta
    e = np.exp(-np.abs(eta))
    ll = _log_likelihood(y, eta, e)
    mu = regress._sigmoid_from(eta, e)
    trace = [ll]
    for it in range(regress.IRLS_MAX_ITER + 1):
        score = a.T @ (y - mu)
        max_score = np.max(np.abs(score))
        if max_score < regress.IRLS_TOL:
            if np.min((2.0 * y - 1.0) * eta) > -1e-9 * np.max(np.abs(eta)):
                raise SeparationError(
                    "the fitted linear predictor puts no row on the wrong side of zero; "
                    "the response is perfectly separated and no finite MLE exists"
                )
            return regress.RegressionFit(beta, iterations=it, linear_predictor=eta, fitted=mu)
        if it == regress.IRLS_MAX_ITER:
            raise ConvergenceError(
                f"IRLS did not converge in {regress.IRLS_MAX_ITER} iterations "
                f"(max |score| = {max_score:.3g})",
                trace=trace,
            )
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        try:
            step = np.linalg.solve((a * w[:, None]).T @ a, score)
        except np.linalg.LinAlgError:
            raise SeparationError("information matrix is singular (separation?)") from None
        noise = 1e-10 * (abs(ll) + 1.0)
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            cand_eta = a @ cand
            cand_e = np.exp(-np.abs(cand_eta))
            cand_ll = _log_likelihood(y, cand_eta, cand_e)
            if cand_ll >= ll - noise:
                break
            scale *= 0.5
        beta, eta, ll = cand, cand_eta, cand_ll
        mu = regress._sigmoid_from(eta, cand_e)
        trace.append(ll)
        if scales is not None:
            scales.append(scale)


def _outcome(fit_function, *args, **kwargs):
    """The fit, or the class, message and trace of the error it raised."""
    try:
        return fit_function(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 -- compared class and message
        return type(err), str(err), getattr(err, "trace", None)


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert np.array_equal(got.coefficients, want.coefficients)
    assert np.array_equal(got.linear_predictor, want.linear_predictor)
    assert np.array_equal(got.fitted, want.fitted)
    assert got.iterations == want.iterations


# one event on an 18-row design: a full Newton step lowers the log-likelihood
# once, so the fit halves that step before it converges
_OVERSHOOT_X = np.array([3.31, -1.243, -0.244, 4.148, -0.359, -0.763, 0.263, 1.803, -1.341,
                         0.582, 0.196, -1.178, -0.256, -1.141, -0.388, 0.367, 0.349, -0.566])
_OVERSHOOT_Y = np.eye(1, _OVERSHOOT_X.size)[0]


def test_step_halving_recovers_from_an_overshooting_newton_step(monkeypatch):
    values = []

    def recording_log_likelihood(*args):
        values.append(_log_likelihood(*args))
        return values[-1]

    monkeypatch.setattr(regress, "_log_likelihood", recording_log_likelihood)
    design = design_with_intercept(_OVERSHOOT_X)
    y = _OVERSHOOT_Y
    fit = logistic_irls(design, y)
    # a step that fails its concavity check compares its candidates with l
    # at beta, recorded before them: computed then, or as the candidate an
    # earlier such step took. A candidate more than the noise allowance below
    # every l recorded before it was rejected, and a halved candidate followed
    rejected = [
        i for i in range(1, len(values))
        if values[i] < min(values[:i]) - 1e-10 * (abs(min(values[:i])) + 1.0)
    ]
    assert rejected and rejected[0] + 1 < len(values)
    _assert_same_outcome(fit, _reference_irls(design, y))
    score = design.T @ (y - _sigmoid(design @ fit.coefficients))
    assert np.max(np.abs(score)) < regress.IRLS_TOL
    assert fit.coefficients == pytest.approx([-4.7574, 1.1772], abs=1e-4)


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("table", ["table4", "table5"])
def test_every_g_computation_fit_matches_the_reference(table, seed, monkeypatch):
    # each logistic fit the study makes, on every basis g-computation fits
    # (calibrated designs take their measured basis's fit), is the fit the
    # likelihood-comparing loop makes, bit for bit
    study = STUDY_TABLES[table]
    calls = []

    def recording_irls(design, response, column_names=None, r=None):
        calls.append((design, response, column_names, r))
        return logistic_irls(design, response, column_names=column_names, r=r)

    monkeypatch.setattr(estimate, "logistic_irls", recording_irls)
    for key in study.published:
        scenario = study.build(key, n=10_000, replications=3, seed=seed)
        for rep in range(3):
            _replicate(scenario, rep, study.methods)
    monkeypatch.undo()
    for design, response, names, r in calls:
        want = _reference_irls(design, response, column_names=names, r=r)
        _assert_same_outcome(logistic_irls(design, response, column_names=names, r=r), want)
    measured = {(INTERCEPT, METHODS[m][1], *METHODS[m][2]) for m in study.methods}
    assert {names for _, _, names, _ in calls} == {b for b in measured if "X_RC" not in b}
    assert len(calls) == 3 * len(study.published) * 3


def _small_problem(seed, n, k, intercept, rare, df):
    """n rows of k heavy-tailed columns (Student t with df degrees of
    freedom), with or without a constant column, and a response with 1 to 3
    events or n // 2 at rows drawn apart from the columns: high-leverage rows
    make full Newton steps overshoot, and some draws separate."""
    rng = np.random.default_rng(seed)
    x = rng.standard_t(df, size=(k, n))
    y = np.zeros(n)
    y[rng.choice(n, int(rng.integers(1, 4)) if rare else n // 2, replace=False)] = 1.0
    return (design_with_intercept(*x) if intercept else np.column_stack(x)), y


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(12, 200),
    k=st.integers(1, 3),
    intercept=st.booleans(),
    rare=st.booleans(),
    df=st.sampled_from([1.0, 2.0, 30.0]),
)
def test_small_fits_match_the_reference(seed, n, k, intercept, rare, df):
    # the same fit, or the same error class, message and trace
    design, y = _small_problem(seed, n, k, intercept, rare, df)
    want = _outcome(_reference_irls, design, y)
    _assert_same_outcome(_outcome(logistic_irls, design, y), want)


def test_small_fits_that_fall_back_match_the_reference(monkeypatch):
    # a fixed sweep of the drawn problems with rare events, a constant
    # column and the heaviest tails, where full steps overshoot most: many
    # steps fail the concavity check and some of those halve, and each
    # outcome is the reference's
    draw = np.random.default_rng(29)
    calls = []

    def counting_log_likelihood(*args):
        calls.append(None)
        return _log_likelihood(*args)

    monkeypatch.setattr(regress, "_log_likelihood", counting_log_likelihood)
    halved = fell_back = 0
    for seed in range(200):
        n, k = int(draw.integers(12, 201)), int(draw.integers(1, 4))
        problem = _small_problem(seed, n, k, True, True, [1.0, 2.0][seed % 2])
        scales = []
        want = _outcome(_reference_irls, *problem, scales=scales)
        before = len(calls)
        _assert_same_outcome(_outcome(logistic_irls, *problem), want)
        fell_back += len(calls) > before
        halved += min(scales, default=1.0) < 1.0
    assert fell_back >= 20 and halved >= 10


@pytest.mark.parametrize("seed, n, k", [(8233, 162, 2), (10426, 167, 2), (19797, 111, 1)])
def test_a_failed_check_compares_with_l_at_the_current_beta(seed, n, k):
    # a step accepted on its check leaves l unknown, so the next step that
    # fails its check computes l at beta afresh: in each of these fits that
    # step's full candidate lies below l at beta, and is halved, but above l
    # at the iterate before, where the last computed l was
    design, y = _small_problem(seed, n, k, True, True, 1.0)
    _assert_same_outcome(logistic_irls(design, y), _reference_irls(design, y))


@pytest.mark.parametrize("cap", [0, 1, 2])
@pytest.mark.parametrize("case", ["overshoot", "normal"])
def test_convergence_trace_equals_the_reference_trace(case, cap, monkeypatch):
    # the starting log-likelihood and one per accepted step, value for value,
    # whether or not a step fell back on the log-likelihood
    if case == "overshoot":
        design, y = design_with_intercept(_OVERSHOOT_X), _OVERSHOOT_Y
    else:
        rng = _rng()
        x = rng.normal(size=500)
        design = design_with_intercept(x)
        y = (rng.random(500) < 1 / (1 + np.exp(-x))).astype(float)
    monkeypatch.setattr(regress, "IRLS_MAX_ITER", cap)
    with pytest.raises(ConvergenceError) as want:
        _reference_irls(design, y)
    with pytest.raises(ConvergenceError) as got:
        logistic_irls(design, y)
    assert str(got.value) == str(want.value)
    assert len(got.value.trace) == cap + 1
    assert got.value.trace == want.value.trace


# ---------------------------------------------------------------------------
# Rank check and start from the R of [design, Y]


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("table", ["table4", "table5"])
def test_direct_fit_equals_the_factor_block_fit(table, seed):
    # a direct fit factorises [design, Y] itself; g-computation passes the
    # world factor's block of the same columns, an orthogonal transform of
    # that R, so both start alike and take the same steps
    study = STUDY_TABLES[table]
    # gcomp_rc takes gcomp_cep_vep's fit, so the measured designs are every basis
    designs = {METHODS[m][1:] for m in study.methods if not METHODS[m][1].endswith("_RC")}
    for key in study.published:
        ds = generate_scenario(study.build(key, n=10_000, seed=seed), 0)
        factor = ds.factor()
        for exposure, adjust in sorted(designs):
            names = (INTERCEPT, exposure, *adjust)
            design = design_with_intercept(*[ds[c] for c in names[1:]])
            direct = logistic_irls(design, ds["Y"], column_names=names)
            block = logistic_irls(
                design, ds["Y"], column_names=names, r=factor.block((*names, "Y"))
            )
            assert block.coefficients == pytest.approx(direct.coefficients, rel=1e-12, abs=0)
            assert block.iterations == direct.iterations


# ---------------------------------------------------------------------------
# No converged fit where no MLE exists


def _unsaturated_separations():
    rng = np.random.default_rng(70)
    x, c = rng.normal(size=(2, 400))
    return {
        # the tied rows at x = 1, one of each class, keep |y - mu| = 0.5
        "quasi-complete": (
            design_with_intercept(np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])),
            np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
        ),
        # no gap between the classes: the rows nearest x = 0 keep |y - mu|
        # above 1e-6 where the score converges
        "complete": (design_with_intercept(x, c), (x > 0).astype(float)),
    }


@pytest.mark.parametrize("case", list(_unsaturated_separations()))
def test_separation_is_reported_though_the_fit_is_not_saturated(case):
    # the fitted probabilities never reproduce the response, yet no row has
    # a negative margin (2y - 1) eta, so no finite MLE exists
    design, y = _unsaturated_separations()[case]
    with pytest.raises(SeparationError, match="perfectly separated"):
        logistic_irls(design, y)
