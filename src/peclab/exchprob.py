"""Exchangeability-probability tables.

Two estimators live here and are never mixed:

* the empirical conditional-joint table, cell(xep, x, y) =
  P(X = x, Y = y | Xep = xep), which is what the published probability grid
  tabulates and what the probability-table AEE consumes; and
* the analytic product table, cell = P(Y(x) = y | z) * P(Y(xep) = y | z)
  with the conditional law of the true exposure given the measured one built
  from the error model (non-Berkson: f_X * f_U / normalizer; pure Berkson:
  f_U shifted), integrals by composite trapezoid on [mu - 8 sigma,
  mu + 8 sigma] with 4001 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CapabilityError,
    DiscretenessError,
    ParameterError,
    StratumError,
    SupportError,
)
from .model import (
    Dataset,
    DistributionSpec,
    EffectEstimate,
    ErrorKind,
    ErrorModel,
    Estimand,
    Link,
    Method,
    OutcomeModel,
)

KEY_DECIMALS = 9
QUAD_NODES = 4001
QUAD_SIGMAS = 8.0
MAX_SUPPORT = 100


def _key(value: float) -> float:
    return round(float(value), KEY_DECIMALS)


def _keyed(values) -> np.ndarray:
    return np.round(np.asarray(values, dtype=float), KEY_DECIMALS)


class TableMode(str, Enum):
    EMPIRICAL = "empiricalConditionalJoint"
    ANALYTIC = "analyticProduct"


@dataclass(frozen=True)
class ExchProbTable:
    xep_support: np.ndarray
    x_support: np.ndarray
    y_support: np.ndarray
    cells: dict
    mode: TableMode

    def cell(self, xep: float, x: float, y: float) -> float:
        return self.cells.get((_key(xep), _key(x), _key(y)), 0.0)

    def slice_sum(self, xep: float) -> float:
        k = _key(xep)
        return sum(p for (xe, _, _), p in self.cells.items() if xe == k)

    def x_marginal(self, xep: float) -> dict:
        k = _key(xep)
        out = {float(x): 0.0 for x in self.x_support}
        for (xe, x, _), p in self.cells.items():
            if xe == k:
                out[float(x)] = out.get(float(x), 0.0) + p
        return out

    def rows(self):
        """(xep, x, y, p) over the full support grid, sorted."""
        for xe in self.xep_support:
            for x in self.x_support:
                for y in self.y_support:
                    yield float(xe), float(x), float(y), self.cell(xe, x, y)

    def grid_columns(self) -> list[tuple[float, float]]:
        """(x, y) pairs that carry mass somewhere, in (x, y) order."""
        seen = {(x, y) for (_, x, y), p in self.cells.items() if p > 0}
        return sorted(seen)


def empirical_table(d: Dataset, xep_support=None) -> ExchProbTable:
    """Conditional-joint estimator: cell = #(Xep=xep, X=x, Y=y) / #(Xep=xep)."""
    d.require("X", "Xep", "Y")
    cols = {}
    for name in ("X", "Xep", "Y"):
        keyed = _keyed(d[name])
        values, inverse = np.unique(keyed, return_inverse=True)
        if values.size > MAX_SUPPORT:
            raise DiscretenessError(
                f"column {name} has {values.size} distinct values "
                f"(> {MAX_SUPPORT}); the empirical table needs discrete supports"
            )
        cols[name] = (values, inverse)

    x_vals, x_inv = cols["X"]
    xep_vals, xep_inv = cols["Xep"]
    y_vals, y_inv = cols["Y"]

    code = (xep_inv * x_vals.size + x_inv) * y_vals.size + y_inv
    counts = np.bincount(code, minlength=xep_vals.size * x_vals.size * y_vals.size)
    counts = counts.reshape(xep_vals.size, x_vals.size, y_vals.size)
    strata = counts.sum(axis=(1, 2))

    if xep_support is not None:
        requested = _keyed(xep_support)
        present = {float(v) for v in xep_vals}
        empty = [float(v) for v in requested if float(v) not in present]
        if empty:
            raise StratumError(f"empty stratum(s) at Xep = {empty}")

    cells = {}
    for i, xe in enumerate(xep_vals):
        denom = strata[i]
        nz = np.nonzero(counts[i])
        for j, k in zip(*nz):
            cells[(float(xe), float(x_vals[j]), float(y_vals[k]))] = counts[i, j, k] / denom
    return ExchProbTable(
        xep_support=xep_vals.copy(),
        x_support=x_vals.copy(),
        y_support=y_vals.copy(),
        cells=cells,
        mode=TableMode.EMPIRICAL,
    )


# ---------------------------------------------------------------------------
# Analytic product mode


def _noise_pmf(spec: DistributionSpec, scale: float) -> tuple[np.ndarray, np.ndarray]:
    values, probs = spec.support()
    return values * scale, probs


def _p_outcome_eq(outcome: OutcomeModel, x: np.ndarray, y: float, z_offset: float) -> np.ndarray:
    """P(Y(x) = y | z) elementwise over x, identity link with discrete noise."""
    w_vals, w_probs = _noise_pmf(outcome.noise, outcome.noise_scale)
    x = np.asarray(x, dtype=float)
    base = outcome.beta0 + z_offset + outcome.beta_x * x + outcome.beta_x2 * x * x
    out = np.zeros_like(base)
    yk = _key(y)
    for wv, wp in zip(w_vals, w_probs):
        out += np.where(_keyed(base + wv) == yk, wp, 0.0)
    return out


def _p_outcome_one(outcome: OutcomeModel, x: np.ndarray, z_offset: float) -> np.ndarray:
    """P(Y(x) = 1 | z) elementwise over x, logit link."""
    x = np.asarray(x, dtype=float)
    base = outcome.beta0 + z_offset + outcome.beta_x * x + outcome.beta_x2 * x * x
    if outcome.noise.is_discrete():
        w_vals, w_probs = _noise_pmf(outcome.noise, outcome.noise_scale)
        out = np.zeros_like(base)
        for wv, wp in zip(w_vals, w_probs):
            out += wp / (1.0 + np.exp(-(base + wv)))
        return out
    mu, sigma = outcome.noise.mean(), np.sqrt(outcome.noise.variance())
    if sigma == 0:
        return 1.0 / (1.0 + np.exp(-(base + outcome.noise_scale * mu)))
    w = np.linspace(mu - QUAD_SIGMAS * sigma, mu + QUAD_SIGMAS * sigma, QUAD_NODES)
    fw = outcome.noise.density(w)
    integrand = 1.0 / (1.0 + np.exp(-(base[:, None] + outcome.noise_scale * w[None, :])))
    return np.trapezoid(integrand * fw[None, :], w, axis=1)


def _conditional_true_given_measured(
    error: ErrorModel, x_marginal: DistributionSpec, xep: float
) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of X | Xep = xep, z. Weights sum to 1 and fold in the
    quadrature coefficients for continuous pieces."""
    if error.kind is ErrorKind.PURE_BERKSON:
        # X = gamma0 + gamma1 * xep + U
        center = error.gamma0 + error.gamma1 * xep
        if error.noiseU.is_discrete():
            u_vals, u_probs = error.noiseU.support()
            return center + u_vals, u_probs.copy()
        mu, sigma = error.noiseU.mean(), np.sqrt(error.noiseU.variance())
        u = np.linspace(mu - QUAD_SIGMAS * sigma, mu + QUAD_SIGMAS * sigma, QUAD_NODES)
        dens = error.noiseU.density(u)
        w = _trapezoid_weights(u) * dens
        return center + u, w / w.sum()

    if error.kind is not ErrorKind.NON_BERKSON_LINEAR:
        raise CapabilityError(
            f"analytic mode supports nonBerksonLinear and pureBerkson errors, not {error.kind.value}; "
            "fold any V loading into gamma0 for a fixed z"
        )

    # Xep = gamma0 + gamma1 * X + U -> weight f_X(x) f_U(xep - gamma0 - gamma1 x)
    if error.noiseU.is_discrete():
        u_vals, u_probs = error.noiseU.support()
        pts = (xep - error.gamma0 - u_vals) / error.gamma1
        if x_marginal.is_discrete():
            x_vals, x_probs = x_marginal.support()
            lookup = {_key(v): p for v, p in zip(x_vals, x_probs)}
            fx = np.array([lookup.get(_key(p), 0.0) for p in pts])
        else:
            fx = x_marginal.density(pts)
        w = fx * u_probs
    elif x_marginal.is_discrete():
        x_vals, x_probs = x_marginal.support()
        pts = x_vals.astype(float)
        w = x_probs * error.noiseU.density(xep - error.gamma0 - error.gamma1 * pts)
    else:
        mu, sigma = x_marginal.mean(), np.sqrt(x_marginal.variance())
        pts = np.linspace(mu - QUAD_SIGMAS * sigma, mu + QUAD_SIGMAS * sigma, QUAD_NODES)
        dens = x_marginal.density(pts) * error.noiseU.density(
            xep - error.gamma0 - error.gamma1 * pts
        )
        w = _trapezoid_weights(pts) * dens
    total = w.sum()
    if total <= 0:
        raise SupportError(f"Xep = {xep} has zero density under the error model")
    return pts, w / total


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    w = np.full(grid.shape, h)
    w[0] = w[-1] = h / 2.0
    return w


def analytic_product_table(
    outcome: OutcomeModel,
    error: ErrorModel,
    x_marginal: DistributionSpec,
    xep_support,
    x_support=None,
    y_support=None,
    z_offset: float = 0.0,
) -> ExchProbTable:
    """Product-form table cell = P(Y(x)=y|z) * P(Y(xep)=y|z).

    z is held fixed: fold j(z) into ``z_offset`` (and any V loading of the
    error model into its gamma0). Identity link requires discrete outcome
    noise; logit link takes discrete or continuous noise.
    """
    xep_support = _keyed(np.atleast_1d(xep_support))
    if x_support is None:
        if not x_marginal.is_discrete():
            raise CapabilityError("x_support is required for continuous exposure marginals")
        x_support = x_marginal.support()[0]
    x_support = _keyed(np.atleast_1d(x_support))

    if outcome.link is Link.IDENTITY:
        if not outcome.noise.is_discrete():
            raise CapabilityError("identity link needs discrete outcome noise in analytic mode")
        if y_support is None:
            w_vals, _ = _noise_pmf(outcome.noise, outcome.noise_scale)
            ys = {
                _key(
                    outcome.beta0
                    + z_offset
                    + outcome.beta_x * x
                    + outcome.beta_x2 * x * x
                    + wv
                )
                for x in x_support
                for wv in w_vals
            }
            y_support = np.array(sorted(ys))
        else:
            y_support = _keyed(np.atleast_1d(y_support))

        cells = {}
        for xep in xep_support:
            pts, wts = _conditional_true_given_measured(error, x_marginal, float(xep))
            for y in y_support:
                p_measured = float(np.dot(_p_outcome_eq(outcome, pts, float(y), z_offset), wts))
                if p_measured == 0.0:
                    continue
                p_true = _p_outcome_eq(outcome, x_support, float(y), z_offset)
                for x, pt in zip(x_support, p_true):
                    if pt > 0:
                        cells[(float(xep), float(x), float(y))] = float(pt) * p_measured
    elif outcome.link is Link.LOGIT:
        y_support = np.array([0.0, 1.0])
        cells = {}
        for xep in xep_support:
            pts, wts = _conditional_true_given_measured(error, x_marginal, float(xep))
            p1_measured = float(np.dot(_p_outcome_one(outcome, pts, z_offset), wts))
            p1_true = _p_outcome_one(outcome, x_support, z_offset)
            for x, pt in zip(x_support, p1_true):
                cells[(float(xep), float(x), 1.0)] = float(pt) * p1_measured
                cells[(float(xep), float(x), 0.0)] = float(1.0 - pt) * (1.0 - p1_measured)
    else:
        raise CapabilityError(f"analytic mode does not support the {outcome.link.value} link")

    return ExchProbTable(
        xep_support=xep_support,
        x_support=x_support,
        y_support=np.asarray(y_support, dtype=float),
        cells=cells,
        mode=TableMode.ANALYTIC,
    )


# ---------------------------------------------------------------------------
# Derived quantities


def aee_from_table(t: ExchProbTable, xep_index: float, xep_ref: float) -> EffectEstimate:
    """Probability-table AEE: sum_y sum_x y * cell(index) - same at ref."""
    if t.mode is not TableMode.EMPIRICAL:
        raise CapabilityError("aee_from_table needs the empirical conditional-joint mode")
    support = {float(v) for v in _keyed(t.xep_support)}
    for label, val in (("index", xep_index), ("ref", xep_ref)):
        if _key(val) not in support:
            raise SupportError(f"xep_{label} = {val} is not in the table support")

    def weighted_mean(xep: float) -> float:
        k = _key(xep)
        return sum(y * p for (xe, _, y), p in t.cells.items() if xe == k)

    value = weighted_mean(xep_index) - weighted_mean(xep_ref)
    diff = abs(_key(xep_index) - _key(xep_ref))
    # a null contrast (index == ref) is allowed and yields 0; keep delta valid
    return EffectEstimate(
        estimand=Estimand.RISK_DIFFERENCE,
        method=Method.NAIVE,
        value=value,
        delta=diff if diff > 0 else 1.0,
    )


def symmetry_check(t: ExchProbTable, e_t: float, tolerance: float) -> tuple[bool, float]:
    """Is the x-marginal of the Xep = e_t slice symmetric around X = e_t?

    Returns (symmetric, max |m(e_t + k) - m(e_t - k)| over offsets k present).
    """
    support = {float(v) for v in _keyed(t.xep_support)}
    if _key(e_t) not in support:
        raise SupportError(f"e_t = {e_t} is not in the table support")
    marginal = {_key(x): p for x, p in t.x_marginal(e_t).items()}
    offsets = sorted({abs(_key(x - e_t)) for x in marginal if _key(x - e_t) != 0})
    worst = 0.0
    for k in offsets:
        hi = marginal.get(_key(e_t + k), 0.0)
        lo = marginal.get(_key(e_t - k), 0.0)
        worst = max(worst, abs(hi - lo))
    return worst < tolerance, worst
