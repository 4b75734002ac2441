"""Exchangeability-probability tables.

A table is one dense array ``probs`` of shape (xep, x, y) over three sorted
supports of keyed values. One keying rule, ``_keyed`` (``np.round`` to
KEY_DECIMALS), makes both the supports and every value looked up in them, so
a value read from the data finds its own support point; a value off a
support reads as probability 0. Two estimators fill it and are never mixed:

* the empirical conditional-joint table, cell(xep, x, y) =
  P(X = x, Y = y | Xep = xep), which is what the published probability grid
  tabulates and what the probability-table AEE consumes; and
* the analytic product table, cell = P(Y(x) = y | z) * P(Y(xep) = y | z)
  with the conditional law of the true exposure given the measured one built
  from the error model (non-Berkson: f_X * f_U / normalizer; pure Berkson:
  f_U shifted). z is held fixed: j(z) folds into the outcome's beta0 and a V
  loading of the error into its gamma0, so gammaV must be 0.

Every analytic integral runs over one law rule, ``_law``: a discrete law is
its support, a zero-variance law its mean with weight 1, and any other law
QUAD_NODES trapezoid nodes on mean +- QUAD_SIGMAS sd weighted by its density.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CapabilityError,
    DiscretenessError,
    StratumError,
    SupportError,
)
from .model import (
    Dataset,
    DistributionSpec,
    ErrorKind,
    ErrorModel,
    Link,
    OutcomeModel,
)

KEY_DECIMALS = 9
QUAD_NODES = 4001
QUAD_SIGMAS = 8.0
MAX_SUPPORT = 100


def _keyed(values) -> np.ndarray:
    """Values rounded to KEY_DECIMALS: the one rule by which a value, a
    scalar or an array, finds its support point."""
    return np.round(np.asarray(values, dtype=float), KEY_DECIMALS)


def _support(values) -> np.ndarray:
    """Sorted, de-duplicated keyed values."""
    return np.unique(_keyed(np.atleast_1d(values)))


def _index(support: np.ndarray, value: float) -> int | None:
    """Position of ``value`` in a sorted keyed support, None when it is off it."""
    k = _keyed(value)
    i = int(np.searchsorted(support, k))
    return i if i < support.size and support[i] == k else None


class TableMode(str, Enum):
    EMPIRICAL = "empiricalConditionalJoint"
    ANALYTIC = "analyticProduct"


@dataclass(frozen=True)
class ExchProbTable:
    """``probs[i, j, k]`` is the cell at (xep_support[i], x_support[j], y_support[k]).

    ``counts`` holds the empirical table's integer cell counts, of which
    ``probs`` is each Xep row divided by its sum; it is None in analytic mode."""

    xep_support: np.ndarray
    x_support: np.ndarray
    y_support: np.ndarray
    probs: np.ndarray
    mode: TableMode
    counts: np.ndarray | None

    def cell(self, xep: float, x: float, y: float) -> float:
        ijk = (_index(self.xep_support, xep), _index(self.x_support, x), _index(self.y_support, y))
        return 0.0 if None in ijk else float(self.probs[ijk])

    def _slice(self, xep: float) -> np.ndarray:
        """The (x, y) slice at Xep = xep; zeros off the support."""
        i = _index(self.xep_support, xep)
        return np.zeros(self.probs.shape[1:]) if i is None else self.probs[i]

    # Python sums over C-ordered slices keep the summation order fixed, so
    # the reported sums do not depend on numpy's pairwise reduction.
    def slice_sum(self, xep: float) -> float:
        return sum(self._slice(xep).ravel().tolist())

    def x_marginal(self, xep: float) -> dict:
        return {float(x): sum(row) for x, row in zip(self.x_support, self._slice(xep).tolist())}

    def rows(self):
        """(xep, x, y, p) over the full support grid, sorted."""
        for (i, j, k), p in np.ndenumerate(self.probs):
            xep, x, y = self.xep_support[i], self.x_support[j], self.y_support[k]
            yield float(xep), float(x), float(y), float(p)

    def grid_columns(self) -> list[tuple[float, float]]:
        """(x, y) pairs that carry mass somewhere, in (x, y) order."""
        j, k = np.nonzero((self.probs > 0).any(axis=0))
        return list(zip(self.x_support[j].tolist(), self.y_support[k].tolist()))


def empirical_table(d: Dataset, xep_support=None) -> ExchProbTable:
    """Conditional-joint estimator: cell = #(Xep=xep, X=x, Y=y) / #(Xep=xep).

    Each keyed column is sorted once for its support, and its support
    indices come from a binary search of the column in that support of at
    most MAX_SUPPORT values; an argsort of the tall column
    (``np.unique(return_inverse=True)``) cost several times the sort. The
    counts are one bincount of the joint cell codes, exact integers, and
    the table keeps them. The codes are built in place in Xep's index
    array, so no further tall array is made for them."""
    d.require("X", "Xep", "Y")
    cols = {}
    for name in ("X", "Xep", "Y"):
        keyed = _keyed(d[name])
        values = np.unique(keyed)
        if values.size > MAX_SUPPORT:
            raise DiscretenessError(
                f"column {name} has {values.size} distinct values "
                f"(> {MAX_SUPPORT}); the empirical table needs discrete supports"
            )
        cols[name] = (values, np.searchsorted(values, keyed))

    x_vals, x_inv = cols["X"]
    xep_vals, xep_inv = cols["Xep"]
    y_vals, y_inv = cols["Y"]

    if xep_support is not None:
        empty = np.setdiff1d(_keyed(xep_support), xep_vals)
        if empty.size:
            raise StratumError(f"empty stratum(s) at Xep = {empty.tolist()}")

    shape = (xep_vals.size, x_vals.size, y_vals.size)
    code = xep_inv
    code *= x_vals.size
    code += x_inv
    code *= y_vals.size
    code += y_inv
    counts = np.bincount(code, minlength=np.prod(shape)).reshape(shape)
    return ExchProbTable(
        xep_support=xep_vals,
        x_support=x_vals,
        y_support=y_vals,
        probs=counts / counts.sum(axis=(1, 2), keepdims=True),
        mode=TableMode.EMPIRICAL,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# Analytic product mode


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    w = np.full(grid.shape, h)
    w[0] = w[-1] = h / 2.0
    return w


def _law(spec: DistributionSpec) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) that integrate against ``spec``: a discrete law's
    support, a zero-variance law's mean with weight 1, and otherwise
    QUAD_NODES trapezoid nodes on mean +- QUAD_SIGMAS sd weighted by the
    density."""
    if spec.is_discrete():
        return spec.support()
    mu, sigma = spec.mean(), np.sqrt(spec.variance())
    if sigma == 0:
        return np.array([mu]), np.array([1.0])
    pts = np.linspace(mu - QUAD_SIGMAS * sigma, mu + QUAD_SIGMAS * sigma, QUAD_NODES)
    return pts, _trapezoid_weights(pts) * spec.density(pts)


def _p_outcome(outcome: OutcomeModel, x: np.ndarray, y_support: np.ndarray) -> np.ndarray:
    """P(Y(x) = y | z) as a (y, x) array, the outcome noise integrated out
    over its law; under logit y_support is (0, 1)."""
    eps, wts = _law(outcome.noise)
    lp = outcome.linear_predictor(x[:, None], eps=eps)
    if outcome.link is Link.LOGIT:
        p1 = (1.0 / (1.0 + np.exp(-lp))) @ wts
        return np.stack([1.0 - p1, p1])
    return (_keyed(lp) == y_support[:, None, None]) @ wts


def _conditional_true_given_measured(
    error: ErrorModel, x_marginal: DistributionSpec, xep: float
) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of X | Xep = xep, z. Weights sum to 1 and fold in the
    quadrature coefficients for continuous pieces."""
    if error.kind is ErrorKind.PURE_BERKSON:
        # X = gamma0 + gamma1 * xep + U
        u, w = _law(error.noiseU)
        pts = error.gamma0 + error.gamma1 * xep + u
    elif error.noiseU.is_discrete():
        # Xep = gamma0 + gamma1 * X + U: one point x = (xep - gamma0 - u) / gamma1 per u
        u_vals, u_probs = error.noiseU.support()
        pts = (xep - error.gamma0 - u_vals) / error.gamma1
        if x_marginal.is_discrete():
            x_vals, x_probs = x_marginal.support()
            lookup = dict(zip(_keyed(x_vals).tolist(), x_probs))
            fx = np.array([lookup.get(k, 0.0) for k in _keyed(pts).tolist()])
        else:
            fx = x_marginal.density(pts)
        w = fx * u_probs
    else:
        # weight f_X(x) f_U(xep - gamma0 - gamma1 x) over the law of X
        pts, px = _law(x_marginal)
        w = px * error.noiseU.density(xep - error.gamma0 - error.gamma1 * pts)
    total = w.sum()
    if total <= 0:
        raise SupportError(f"Xep = {xep} has zero density under the error model")
    return pts, w / total


def analytic_product_table(
    outcome: OutcomeModel,
    error: ErrorModel,
    x_marginal: DistributionSpec,
    xep_support,
    x_support=None,
) -> ExchProbTable:
    """Product-form table cell = P(Y(x)=y|z) * P(Y(xep)=y|z).

    z is held fixed: fold j(z) into ``outcome.beta0`` and any V loading of
    the error model into its gamma0 (gammaV must be 0). Every integral runs
    over a law's points and weights: a discrete law's support, a
    zero-variance law's mean, else trapezoid nodes on mean +- QUAD_SIGMAS sd.
    Identity link requires discrete outcome noise; logit link takes discrete
    or continuous noise. Supports are sorted and de-duplicated.
    """
    xep_support = _support(xep_support)
    if x_support is None:
        if not x_marginal.is_discrete():
            raise CapabilityError("x_support is required for continuous exposure marginals")
        x_support = x_marginal.support()[0]
    x_support = _support(x_support)

    if outcome.link not in (Link.IDENTITY, Link.LOGIT):
        raise CapabilityError(f"analytic mode does not support the {outcome.link.value} link")
    if outcome.link is Link.IDENTITY and not outcome.noise.is_discrete():
        raise CapabilityError("identity link needs discrete outcome noise in analytic mode")
    if error.kind is ErrorKind.NONE or error.gammaV != 0:
        raise CapabilityError(
            "analytic mode needs a nonBerksonLinear, sharedV or pureBerkson error with "
            f"gammaV = 0, got {error.kind.value} with gammaV = {error.gammaV}; "
            "fold gammaV * V into gamma0 for a fixed z"
        )
    if outcome.link is Link.LOGIT:
        y_support = np.array([0.0, 1.0])
    else:
        y_support = _support(outcome.linear_predictor(x_support[:, None], eps=_law(outcome.noise)[0]))
    # p_true[x, y] = P(Y(x) = y | z); p_measured[xep, y] = P(Y(xep) = y | z) averages
    # that law over the weighted points of X | Xep
    p_true = _p_outcome(outcome, x_support, y_support).T
    conditionals = [
        _conditional_true_given_measured(error, x_marginal, float(xep)) for xep in xep_support
    ]
    p_measured = np.array([_p_outcome(outcome, pts, y_support) @ wts for pts, wts in conditionals])
    return ExchProbTable(
        xep_support=xep_support,
        x_support=x_support,
        y_support=y_support,
        probs=p_true[None, :, :] * p_measured[:, None, :],
        mode=TableMode.ANALYTIC,
        counts=None,
    )


# ---------------------------------------------------------------------------
# Derived quantities


def aee_from_table(t: ExchProbTable, xep_index: float, xep_ref: float) -> float:
    """Probability-table AEE: sum_y sum_x y * cell(index) - same at ref."""
    if t.mode is not TableMode.EMPIRICAL:
        raise CapabilityError("aee_from_table needs the empirical conditional-joint mode")
    for label, val in (("index", xep_index), ("ref", xep_ref)):
        if _index(t.xep_support, val) is None:
            raise SupportError(f"xep_{label} = {val} is not in the table support")

    def weighted_mean(xep: float) -> float:
        return sum((t.y_support * t._slice(xep)).ravel().tolist())

    # a null contrast (index == ref) is allowed and yields 0
    return weighted_mean(xep_index) - weighted_mean(xep_ref)


def symmetry_check(t: ExchProbTable, e_t: float, tolerance: float) -> tuple[bool, float]:
    """Is the x-marginal of the Xep = e_t slice symmetric around X = e_t?

    Returns (symmetric, max |m(x) - m(2 e_t - x)| over support points x != e_t).
    """
    if _index(t.xep_support, e_t) is None:
        raise SupportError(f"e_t = {e_t} is not in the table support")
    marginal = t.x_marginal(e_t)
    worst = max(
        (
            abs(p - marginal.get(float(_keyed(2 * e_t - x)), 0.0))
            for x, p in marginal.items()
            if _keyed(x - e_t) != 0
        ),
        default=0.0,
    )
    return worst < tolerance, worst
