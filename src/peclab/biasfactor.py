"""Attenuation and bias-factor algebra for linear-type measurement error.

Closed forms: lambda = gamma1 Var(X|z) / (gamma1^2 Var(X|z) + Var(U)) and the
weighted exchangeability probability difference P_RD = lambda * gamma1,
which equals the R^2 of regressing the measured on the true exposure given z.
The polynomial extension treats the highest power q via
P_RDq = gamma1^(2q) Var(X^q) / Var(Xep^q).

The decomposition operations reconstruct the naive exposure coefficient from
plug-in OLS fits: beta1 (gamma1* + gammaV* rhoV) through the calibration
model and the pseudo-confounder projection (exposure-error route), or
beta1 gamma1* + betaC rhoEC through the calibration model and the
confounder-calibration residual projection (confounder-error route). The
calibration residual U* has no term: its design contains every naive
regressor, so by the normal equations its naive-design coefficient is zero.
rhoEC is the Xep coefficient of U_C* = C - P_[1,Cep,z] C on the naive
design [1, Xep, Cep, z]. The projection P_[1,Cep,z] C lies in the span of
naive-design columns other than Xep, so by the same argument its Xep
coefficient is zero, and rhoEC is the Xep coefficient of C itself.

Every fit among a dataset's columns, here and in ``report_from_data``, reads
the dataset's factor (``Dataset.factor``): no tall design is built, and each
column space is fitted once per factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .model import Dataset, Link
from .regress import INTERCEPT, ColumnFactor


@dataclass(frozen=True)
class BiasFactorReport:
    lambda_: float
    gamma1: float
    p_rd: float
    r_squared_check: float
    surrogate_lower: float
    surrogate_upper: float


def _closed_form(numerator: float, denominator: float, gamma1: float, **variances: float) -> float:
    """numerator / denominator once gamma1 is finite, each named variance is
    finite and >= 0, and the denominator (the measured variance) is finite
    and nonzero. A zero quotient is +0.0: a variance of -0.0 passes the
    checks, and adding 0.0 turns -0.0 into +0.0 and keeps every other
    value's bits, as ``exchprob._support`` does."""
    if not math.isfinite(gamma1):
        raise ParameterError(f"gamma1 must be finite, got {gamma1}")
    for name, value in variances.items():
        if not (math.isfinite(value) and value >= 0):
            raise ParameterError(f"{name} must be finite and >= 0, got {value}")
    if denominator == 0 or not math.isfinite(denominator):
        raise ParameterError(
            "degenerate error model: the measured variance gamma1^(2q) Var(X^q) + Var(U) "
            f"is {denominator}; it must be finite and nonzero"
        )
    return numerator / denominator + 0.0


def lambda_closed_form(gamma1: float, var_x: float, var_u: float) -> float:
    """gamma1 Var(X|z) / (gamma1^2 Var(X|z) + Var(U))."""
    return _closed_form(
        gamma1 * var_x, gamma1 * gamma1 * var_x + var_u, gamma1, var_x=var_x, var_u=var_u
    )


def p_rd_identity(gamma1: float, var_x: float, var_u: float) -> float:
    """P_RD = lambda * gamma1 = gamma1^2 Var(X) / (gamma1^2 Var(X) + Var(U)),
    the R^2 of the measured-on-true regression given z.

    Computed as the single ratio so 0 <= P_RD <= 1 holds exactly in floats.
    """
    signal = gamma1 * gamma1 * var_x
    return _closed_form(signal, signal + var_u, gamma1, var_x=var_x, var_u=var_u)


def _gamma1_power(gamma1: float, q: int) -> float:
    """gamma1^(2q); inf where the power of a finite gamma1 overflows, which
    float ** raises as OverflowError, so the variance checks see it."""
    try:
        return gamma1 ** (2 * q)
    except OverflowError:
        return math.inf


def p_rd_polynomial(q: int, gamma1: float, var_xq: float, var_uq: float) -> float:
    """P_RD for the highest polynomial power q.

    var_xq is Var(X^q | z); var_uq is the non-signal variance of the measured
    power, Var(Xep^q | z) - gamma1^(2q) Var(X^q | z). For q = 1 that is
    Var(U) and the identity reduces to p_rd_identity.
    """
    if q < 1:
        raise ParameterError("q must be >= 1")
    signal = _gamma1_power(gamma1, q) * var_xq
    return _closed_form(signal, signal + var_uq, gamma1, var_xq=var_xq, var_uq=var_uq)


def p_rd_polynomial_from_data(q: int, x, xep, gamma1: float | None = None) -> float:
    """Plug-in version: moments of X^q and Xep^q estimated from columns.

    gamma1 defaults to the fitted slope of Xep on X.
    """
    x = np.asarray(x, dtype=float)
    xep = np.asarray(xep, dtype=float)
    if x.ndim != 1 or x.shape != xep.shape:
        raise ParameterError("x and xep must be vectors of equal length")
    for name, values in (("x", x), ("xep", xep)):
        if not np.isfinite(values).all():
            raise ParameterError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    if gamma1 is None:
        fit = ColumnFactor.of({"X": x}, {"Xep": xep}).fit((INTERCEPT, "X"), "Xep")
        gamma1 = float(fit.coefficients[1])
    xq = x**q
    xepq = xep**q
    var_xq = float(np.var(xq))
    var_total = float(np.var(xepq))
    var_uq = max(var_total - _gamma1_power(gamma1, q) * var_xq, 0.0)
    return p_rd_polynomial(q, gamma1, var_xq, var_uq)


def _check_surrogate(gamma1: float, p_rd: float | None = None) -> None:
    """The surrogate algebra's rule: gamma1 finite and nonzero, p_rd in [0, 1]."""
    if not math.isfinite(gamma1):
        raise ParameterError(f"gamma1 must be finite, got {gamma1}")
    if gamma1 == 0:
        raise ParameterError("gamma1 must be nonzero")
    if p_rd is not None and not 0.0 <= p_rd <= 1.0:
        raise ParameterError("p_rd must lie in [0, 1]")


def surrogate_bounds(p_rd: float, gamma1: float) -> tuple[float, float]:
    """Bounds on AEE(Xep)/AEE(X) over admissible p_rd in [0, 1].

    The realized ratio is p_rd / gamma1; the bounds are 0 and 1/gamma1
    (ordered by sign), so for gamma1 >= 1 the surrogate never exceeds the
    true effect.
    """
    _check_surrogate(gamma1, p_rd)
    extreme = 1.0 / gamma1
    return (min(0.0, extreme), max(0.0, extreme))


def surrogate_ratio(p_rd: float, gamma1: float) -> float:
    """AEE(Xep)/AEE(X) = p_rd / gamma1 on the risk-difference scale."""
    _check_surrogate(gamma1, p_rd)
    return p_rd / gamma1


@dataclass(frozen=True)
class RrPrediction:
    value: float
    approximate: bool  # the logit link only supports the small-effect approximation


def predict_naive_slope_rr(beta1: float, gamma1: float, p_rr: float, link: Link) -> RrPrediction:
    """Predicted log-scale naive coefficient (p_rr / gamma1) * beta1.

    Exact for the log link; for logit it is the rare-outcome/small-effect
    approximation and the result is flagged.
    """
    if link not in (Link.LOG, Link.LOGIT):
        raise ParameterError("link must be log or logit")
    _check_surrogate(gamma1)
    return RrPrediction(value=(p_rr / gamma1) * beta1, approximate=link is Link.LOGIT)


def report(gamma1: float, var_x: float, var_u: float) -> BiasFactorReport:
    p_rd = p_rd_identity(gamma1, var_x, var_u)
    lo, hi = surrogate_bounds(p_rd, gamma1)
    return BiasFactorReport(
        lambda_=lambda_closed_form(gamma1, var_x, var_u),
        gamma1=gamma1,
        p_rd=p_rd,
        r_squared_check=p_rd,
        surrogate_lower=lo,
        surrogate_upper=hi,
    )


def _check_adjustment(adjustment, reserved: dict[str, str]) -> None:
    """Reject adjustment columns the routine's own designs already hold or
    fit: with one of them a fit is singular, or regresses a column on itself.
    ``reserved`` maps each such column to its role, which the message names."""
    bad = [c for c in adjustment if c in reserved]
    if bad:
        roles = " or ".join(dict.fromkeys(reserved[c] for c in bad))
        raise ParameterError(f"adjustment must not hold the {roles} column(s): {', '.join(bad)}")


def report_from_data(d: Dataset, adjustment=()) -> BiasFactorReport:
    """Data-driven report: gamma1 and Var(U) from the fit of Xep on X and
    the adjustment columns, Var(X|z) from the residual variance of X on the
    adjustment columns (on the intercept alone, its sample variance)."""
    d.require("X", "Xep", *adjustment)
    _check_adjustment(adjustment, {"X": "exposure", "Xep": "exposure", "Y": "outcome"})
    factor = d.factor()
    meas_fit = factor.fit((INTERCEPT, "X", *adjustment), "Xep")
    var_x = float(factor.fit((INTERCEPT, *adjustment), "X").residual_variance)
    gamma1 = float(meas_fit.coefficients[1])
    var_u = float(meas_fit.residual_variance)
    return replace(report(gamma1, var_x, var_u), r_squared_check=float(meas_fit.r_squared))


# Figure 2's lines: one per gamma1, each at FIGURE2_POINTS evenly spaced p in [0, 1]
FIGURE2_GAMMAS = (0.5, 0.75, 1.0, 1.5, 2.0)
FIGURE2_POINTS = 101


def figure2_grid():
    """(gamma1, p, lambda) rows of the lambda = p / gamma1 line family."""
    ps = np.linspace(0.0, 1.0, FIGURE2_POINTS)
    rows = []
    for g in FIGURE2_GAMMAS:
        for p in ps:
            rows.append((float(g), float(p), float(p / g)))
    return rows


# ---------------------------------------------------------------------------
# Naive-coefficient decompositions


@dataclass(frozen=True)
class EpcDecomposition:
    """Exposure-error route: beta1_ep = beta1 * (gamma1_star
    + gamma_v_star * rho_v)."""

    beta1: float
    gamma1_star: float
    gamma_v_star: float
    rho_v: float
    predicted_naive: float
    direct_naive: float


def epc_decomposition(d: Dataset, adjustment: list[str]) -> EpcDecomposition:
    """Reconstruct the naive exposure coefficient through the calibration fit
    (X on Xep, V and z' minus V) and the pseudo-confounder projection (V on
    Xep + z').

    The reconstruction is an identity only when the correct outcome model's
    residual is unrelated to the measured exposure given z'; worlds where V
    affects the outcome directly need V inside ``adjustment``. In that case
    the pseudo-confounder projection is structurally zero (V is conditioned
    away) and only gamma1_star remains.
    """
    d.require("X", "Xep", "V", "Y", *adjustment)
    _check_adjustment(adjustment, {"X": "exposure", "Xep": "exposure", "Y": "outcome"})
    factor = d.factor()
    naive = (INTERCEPT, "Xep", *adjustment)
    beta1 = float(factor.fit((INTERCEPT, "X", *adjustment), "Y").coefficients[1])
    # V enters the calibration once, whether or not it sits in z'
    calib = factor.fit((INTERCEPT, "Xep", "V", *[c for c in adjustment if c != "V"]), "X")
    gamma1_star = float(calib.coefficients[1])
    gamma_v_star = float(calib.coefficients[2])
    rho_v = 0.0 if "V" in adjustment else float(factor.fit(naive, "V").coefficients[1])
    direct = float(factor.fit(naive, "Y").coefficients[1])
    predicted = beta1 * (gamma1_star + gamma_v_star * rho_v)
    return EpcDecomposition(
        beta1=beta1,
        gamma1_star=gamma1_star,
        gamma_v_star=gamma_v_star,
        rho_v=rho_v,
        predicted_naive=predicted,
        direct_naive=direct,
    )


@dataclass(frozen=True)
class EcDecomposition:
    """Confounder-error route: beta1_ep ~= beta1 * gamma1_star
    + beta_c * rho_ec, with beta_c * rho_ec the residual-confounding term."""

    beta1: float
    beta_c: float
    gamma1_star: float
    rho_ec: float
    ec_term: float
    predicted_naive: float
    direct_naive: float


def ec_decomposition(d: Dataset, adjustment: list[str] | None = None) -> EcDecomposition:
    """Reconstruct the naive exposure coefficient when the confounder is
    error-prone. ``adjustment`` lists z minus C columns (defaults to none).
    The exposure calibration is X on the naive design itself."""
    extra = adjustment or []
    d.require("X", "Xep", "C", "Cep", "Y", *extra)
    _check_adjustment(extra, {
        "X": "exposure", "Xep": "exposure", "Y": "outcome", "C": "confounder", "Cep": "confounder",
    })
    factor = d.factor()
    naive = (INTERCEPT, "Xep", "Cep", *extra)
    correct = factor.fit((INTERCEPT, "X", "C", *extra), "Y")
    beta1 = float(correct.coefficients[1])
    beta_c = float(correct.coefficients[2])
    gamma1_star = float(factor.fit(naive, "X").coefficients[1])
    # the Xep coefficient of U_C* is C's (see the module docstring)
    rho_ec = float(factor.fit(naive, "C").coefficients[1])
    direct = float(factor.fit(naive, "Y").coefficients[1])

    ec_term = beta_c * rho_ec
    predicted = beta1 * gamma1_star + ec_term
    return EcDecomposition(
        beta1=beta1,
        beta_c=beta_c,
        gamma1_star=gamma1_star,
        rho_ec=rho_ec,
        ec_term=ec_term,
        predicted_naive=predicted,
        direct_naive=direct,
    )
