"""Causal effect estimators: naive outcome regression, delta-shift
g-computation, and inverse probability weighting with a generalized
propensity score.

Each estimator takes a dataset, an exposure column and its adjustment
columns, and returns numbers: the naive and IPW slopes are one float each,
g-computation the (risk difference, risk ratio) pair from one fit. The
column names label the fitted designs, so a rank-deficient design is
reported by column. An estimator given Y as the exposure or an adjustment
column, or the exposure among its own adjustment columns, raises a
ParameterError before it fits.

Every linear fit on a dataset's columns (the naive outcome model and the
GPS model) comes from the dataset's QR factor (``Dataset.factor``), on a
generated world and on a CSV alike, and every logistic design is
rank-checked there and starts from the factor's linear-probability fit.
Both kinds go through ``ColumnFactor.fitted``, which fits each column space
once per factor: a design on calibrated columns takes the fit of the
measured columns it maps from. The IPW outcome model has one regressor, so
its slope is a ratio of two weighted moments and needs no design at all.

The GPS uses a homoscedastic normal conditional density (exact for the
canonical worlds, whose treatment is conditionally normal). IPW weights are
stabilized by the marginal normal density; truncation at an upper weight
quantile is available but off by default because the published estimates are
only reproduced without it.
"""

from __future__ import annotations

import math

import numpy as np

from .biasfactor import _check_adjustment
from .errors import ParameterError
from .model import Dataset, DistributionSpec
# ols stays bound here: perfbench/spans.py wraps estimate.ols by name
# wls stays bound here: perfbench/spans.py wraps estimate.wls by name
from .regress import INTERCEPT, _sigmoid, _with_intercept, logistic_irls, ols, wls  # noqa: F401


def _check_roles(exposure_col: str, adjustment_cols) -> None:
    """Reject the outcome as the exposure, and the outcome or the exposure
    among the adjustment columns: a fit would regress Y on itself, or hold
    one column twice."""
    if exposure_col == "Y":
        raise ParameterError("exposure must not be the outcome column: Y")
    _check_adjustment(adjustment_cols, {exposure_col: "exposure", "Y": "outcome"})


def _model_inputs(
    d: Dataset, exposure_col: str, adjustment_cols: list[str], delta: float
) -> tuple[str, ...]:
    """The checks every estimator shares, then the columns (intercept,
    exposure, adjustment columns) of its outcome model."""
    if not (math.isfinite(delta) and delta > 0):
        raise ParameterError("delta must be finite and > 0")
    d.require("Y", exposure_col, *adjustment_cols)
    _check_roles(exposure_col, adjustment_cols)
    return (INTERCEPT, exposure_col, *adjustment_cols)


def naive_regression_aee(
    d: Dataset,
    exposure_col: str,
    adjustment_cols: list[str],
    delta: float = 1.0,
) -> float:
    """Exposure coefficient of the linear outcome regression, scaled by delta."""
    names = _model_inputs(d, exposure_col, adjustment_cols, delta)
    return float(d.factor().fit(names, "Y").coefficients[1]) * delta


def g_computation(
    d: Dataset,
    exposure_col: str,
    adjustment_cols: list[str],
    delta: float = 1.0,
) -> tuple[float, float]:
    """Delta-shift standardization with a logistic outcome model.

    p1 averages predicted probabilities with the exposure shifted by delta
    for every row, p0 with the exposure as observed; the shift moves every
    row's linear predictor by delta * beta_x. Returns the risk
    difference p1 - p0 and the risk ratio p1 / p0, both from one fit of the
    outcome model (logistic_irls rejects an outcome not coded 0/1).

    The model is fitted once per factor, on the design's basis
    (``ColumnFactor.fitted``), rank checked and started from the factor's
    block of [basis, Y]; a design that maps from its basis has the same
    linear predictor and the coefficients M^-1 beta_basis.
    """
    names = _model_inputs(d, exposure_col, adjustment_cols, delta)
    factor = d.factor()
    fit = factor.fitted("logit", names, "Y", lambda basis: logistic_irls(
        _with_intercept(d.n, [d[c] for c in basis[1:]]), d["Y"],
        column_names=basis, r=factor.block((*basis, "Y")),
    ))
    p0 = fit.fitted.mean()
    p1 = _sigmoid(fit.linear_predictor + delta * fit.coefficients[1]).mean()
    return float(p1 - p0), float(p1 / p0)


def stabilized_weights(
    d: Dataset,
    treatment_col: str,
    covariate_cols: list[str],
    truncate_quantile: float | None = None,
) -> np.ndarray:
    """Marginal over conditional normal GPS density of the treatment.

    The conditional density is N(covariate OLS prediction, its residual
    variance), an intercept-only fit when there are no covariates; the
    marginal one N(mean, sd) of the treatment. The weights are optionally
    truncated at their ``truncate_quantile`` quantile.
    """
    if truncate_quantile is not None and not 0.0 < truncate_quantile <= 1.0:
        raise ParameterError("truncate_quantile must be in (0, 1]")
    d.require(treatment_col, *covariate_cols)
    _check_roles(treatment_col, covariate_cols)
    t = d[treatment_col]
    fit = d.factor().fit((INTERCEPT, *covariate_cols), treatment_col)
    sigma = float(np.sqrt(fit.residual_variance))
    sd = float(np.std(t, ddof=1))
    if sd <= 0:
        raise ParameterError("treatment column is constant")
    if sigma <= 1e-8 * sd:
        raise ParameterError("treatment has zero residual variance given the covariates")
    marginal = DistributionSpec.normal(float(t.mean()), sd).density(t)
    design = _with_intercept(d.n, [d[c] for c in covariate_cols])
    w = marginal / DistributionSpec.normal(0.0, sigma).density(t - fit.predict(design))
    if truncate_quantile is not None:
        w = np.minimum(w, np.quantile(w, truncate_quantile))
    return w


def ipw_gps_aee(
    d: Dataset,
    treatment_col: str,
    covariate_cols: list[str],
    delta: float = 1.0,
    truncate_quantile: float | None = None,
) -> float:
    """Stabilized-IPW marginal slope of Y on the treatment, scaled by delta:
    the covariates enter the GPS weights, the outcome model is Y on [1, T].

    That model's weighted least-squares slope is a ratio of weighted
    moments: with tc = T - sum(w T) / sum(w), it is sum(w tc Y) / sum(w tc^2).
    """
    _model_inputs(d, treatment_col, [], delta)
    w = stabilized_weights(d, treatment_col, covariate_cols, truncate_quantile)
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ParameterError("weights must be positive and finite")
    t, y = d[treatment_col], d["Y"]
    sw = w.sum()
    tc = t - (w @ t) / sw
    wtc = w * tc
    # sum(w tc) is zero only up to rounding; the numerator subtracts its
    # product with Y's weighted mean, as centring Y would, or a small slope
    # loses digits to it (3e-12 relative on a table3 world, no covariates)
    return float((wtc @ y - wtc.sum() * (w @ y) / sw) / (wtc @ tc)) * delta
