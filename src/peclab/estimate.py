"""Causal effect estimators: naive outcome regression, delta-shift
g-computation, and inverse probability weighting with a generalized
propensity score.

The GPS uses a homoscedastic normal conditional density (exact for the
canonical worlds, whose treatment is conditionally normal). IPW weights are
stabilized by the marginal normal density; truncation at an upper weight
quantile is available but off by default because the published estimates are
only reproduced without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import Dataset, EffectEstimate, Estimand, Method
from .regress import RegressionFit, logistic_irls, ols, wls, design_with_intercept


def naive_regression_aee(
    d: Dataset,
    exposure_col: str,
    adjustment_cols: list[str],
    delta: float = 1.0,
) -> EffectEstimate:
    """Exposure coefficient of the linear outcome regression, scaled by delta."""
    d.require("Y", exposure_col, *adjustment_cols)
    names = ("intercept", exposure_col) + tuple(adjustment_cols)
    design = design_with_intercept(d[exposure_col], *[d[c] for c in adjustment_cols])
    fit = ols(design, d["Y"], column_names=names)
    return EffectEstimate(
        estimand=Estimand.RISK_DIFFERENCE,
        method=Method.NAIVE,
        value=float(fit.coefficients[1]) * delta,
        delta=delta,
    )


def g_computation(
    d: Dataset,
    exposure_col: str,
    adjustment_cols: list[str],
    delta: float = 1.0,
) -> tuple[EffectEstimate, EffectEstimate]:
    """Delta-shift standardization with a logistic outcome model.

    p1 averages predicted probabilities with the exposure shifted by delta
    for every row, p0 with the exposure as observed. Returns the risk
    difference p1 - p0 and the risk ratio p1 / p0, both from one fit of the
    outcome model (logistic_irls rejects an outcome not coded 0/1).
    """
    if delta <= 0:
        raise ParameterError("delta must be > 0")
    d.require("Y", exposure_col, *adjustment_cols)
    names = ("intercept", exposure_col) + tuple(adjustment_cols)
    t = d[exposure_col]
    adj = [d[c] for c in adjustment_cols]
    observed = design_with_intercept(t, *adj)
    fit = logistic_irls(observed, d["Y"], column_names=names)
    p0 = fit.predict_proba(observed).mean()
    p1 = fit.predict_proba(design_with_intercept(t + delta, *adj)).mean()
    return (
        EffectEstimate(Estimand.RISK_DIFFERENCE, Method.G_COMPUTATION, float(p1 - p0), delta),
        EffectEstimate(Estimand.RISK_RATIO, Method.G_COMPUTATION, float(p1 / p0), delta),
    )


@dataclass(frozen=True)
class GpsModel:
    """Normal generalized propensity score: treatment | covariates."""

    mean_fit: RegressionFit
    sigma: float
    marginal_mean: float
    marginal_sd: float
    covariate_cols: tuple[str, ...]
    treatment_col: str

    def conditional_density(self, d: Dataset) -> np.ndarray:
        mu = self.mean_fit.predict(
            design_with_intercept(*[d[c] for c in self.covariate_cols])
        )
        return _normal_pdf(d[self.treatment_col], mu, self.sigma)

    def marginal_density(self, d: Dataset) -> np.ndarray:
        return _normal_pdf(d[self.treatment_col], self.marginal_mean, self.marginal_sd)

    def stabilized_weights(self, d: Dataset, truncate_quantile: float | None = None) -> np.ndarray:
        w = self.marginal_density(d) / self.conditional_density(d)
        if truncate_quantile is not None:
            if not 0.0 < truncate_quantile <= 1.0:
                raise ParameterError("truncate_quantile must be in (0, 1]")
            w = np.minimum(w, np.quantile(w, truncate_quantile))
        return w


def _normal_pdf(x, mu, sigma):
    z = (np.asarray(x, dtype=float) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def fit_gps(d: Dataset, treatment_col: str, covariate_cols: list[str]) -> GpsModel:
    d.require(treatment_col, *covariate_cols)
    t = d[treatment_col]
    names = ("intercept",) + tuple(covariate_cols)
    fit = ols(
        design_with_intercept(*[d[c] for c in covariate_cols]), t, column_names=names
    )
    sigma = float(np.sqrt(fit.residual_variance))
    sd = float(np.std(t, ddof=1))
    if sd <= 0:
        raise ParameterError("treatment column is constant")
    if sigma <= 1e-8 * sd:
        raise ParameterError("treatment has zero residual variance given the covariates")
    return GpsModel(
        mean_fit=fit,
        sigma=sigma,
        marginal_mean=float(t.mean()),
        marginal_sd=sd,
        covariate_cols=tuple(covariate_cols),
        treatment_col=treatment_col,
    )


def ipw_gps_aee(
    d: Dataset,
    treatment_col: str,
    covariate_cols: list[str],
    delta: float = 1.0,
    truncate_quantile: float | None = None,
) -> EffectEstimate:
    """Stabilized-IPW marginal slope of Y on the treatment, scaled by delta."""
    d.require("Y")
    gps = fit_gps(d, treatment_col, covariate_cols)
    w = gps.stabilized_weights(d, truncate_quantile=truncate_quantile)
    fit = wls(
        design_with_intercept(d[treatment_col]),
        d["Y"],
        w,
        column_names=("intercept", treatment_col),
    )
    return EffectEstimate(
        estimand=Estimand.RISK_DIFFERENCE,
        method=Method.IPW_GPS,
        value=float(fit.coefficients[1]) * delta,
        delta=delta,
    )
