"""Exchangeability-probability tables.

A table is one dense array ``probs`` of shape (xep, x, y) over three sorted
supports of keyed values. One keying rule, ``_keyed`` (``np.round`` to
KEY_DECIMALS), makes both the supports and every value looked up in them, so
a value read from the data finds its own support point; a value off a
support reads as probability 0. One support rule, ``_support``, makes every
support of both modes from keyed values: sorted, de-duplicated, and a zero
always +0.0, whichever signed zero the values held. ``rows()`` lists only
the cells that hold mass. Two estimators fill it and are never mixed:

* the empirical conditional-joint table, cell(xep, x, y) =
  P(X = x, Y = y | Xep = xep), which is what the published probability grid
  tabulates and what the probability-table AEE consumes. It is counted in
  two passes over blocks of BLOCK_ROWS rows, one for the supports and one
  for the cell counts, so its scratch is fixed by the block whatever the
  row count; and
* the analytic product table, cell = P(Y(x) = y | z) * P(Y(xep) = y | z)
  with the conditional law of the true exposure given the measured one built
  from the error model (non-Berkson: f_X * f_U / normalizer; pure Berkson:
  f_U shifted). z is held fixed: j(z) folds into the outcome's beta0 and a V
  loading of the error into its gamma0, so gammaV must be 0.

Every analytic integral runs over one law rule, ``_law``: a discrete law is
its support, and any other law QUAD_NODES trapezoid nodes on mean +-
QUAD_SIGMAS sd weighted by its density.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapabilityError, DiscretenessError, SupportError
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
# Rows per block of the empirical tabulation: 512 KiB of float64, so a
# block's keyed values, masks, uint8 indices and intp codes stay in a core's
# L2. On a 2-core VM, blocks of 2^14 to 2^17 rows tabulate a 10^6-row table2
# world in 29-39 ms (one unblocked pass: 32-39 ms), one 2^20-row block in
# 67-81 ms, and blocks of 2^11 rows, paying numpy's per-call cost, in 70-97 ms.
BLOCK_ROWS = 1 << 16


def _keyed(values) -> np.ndarray:
    """Values rounded to KEY_DECIMALS: the one rule by which a value, a
    scalar or an array, finds its support point."""
    return np.round(np.asarray(values, dtype=float), KEY_DECIMALS)


def _support(keyed: np.ndarray) -> np.ndarray:
    """Sorted, de-duplicated keyed values, a zero as +0.0: adding 0.0 turns
    -0.0 into +0.0 and keeps every other value, so a support does not
    depend on which signed zero its values meet first."""
    return np.unique(keyed) + 0.0


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
    ``probs`` is each Xep row divided by its sum; it is None in analytic mode,
    and ``mode`` reads which kind of table this is from it."""

    xep_support: np.ndarray
    x_support: np.ndarray
    y_support: np.ndarray
    probs: np.ndarray
    counts: np.ndarray | None

    @property
    def mode(self) -> TableMode:
        return TableMode.ANALYTIC if self.counts is None else TableMode.EMPIRICAL

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

    def rows(self):
        """(xep, x, y, p) for each cell with p > 0, in (xep, x, y) order."""
        i, j, k = np.nonzero(self.probs > 0)
        cols = self.xep_support[i], self.x_support[j], self.y_support[k], self.probs[i, j, k]
        return zip(*(c.tolist() for c in cols))


def _index_block(keyed: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Each keyed value's position in its sorted support, as uint8: the
    number of support points above the first that the value reaches, one
    pass per point (MAX_SUPPORT <= 256 keeps it from wrapping)."""
    index = np.zeros(keyed.size, dtype=np.uint8)
    for point in support[1:]:
        index += keyed >= point
    return index


def empirical_table(d: Dataset) -> ExchProbTable:
    """Conditional-joint estimator: cell = #(Xep=xep, X=x, Y=y) / #(Xep=xep).

    Two passes over blocks of BLOCK_ROWS rows, so no tall keyed, sorted,
    index or code array is ever built and the scratch is fixed by the block,
    not by the row count. Pass 1 keys each block of a column and takes its
    ``np.unique``; the column's ``_support`` of the concatenated block
    supports is the same sorted set, a zero as +0.0, that one sort of the
    whole keyed column gives, and is checked against MAX_SUPPORT. Pass 2
    keys each block again and indexes it in the supports by counting the
    points each value reaches (``_index_block``). Every keyed value lies on
    its own support (-0.0 on +0.0), so this is exactly
    ``np.searchsorted(support, keyed)``. On columns in random order (every
    simulated world) the passes beat the binary search at every support
    size up to MAX_SUPPORT. On a column already sorted the binary search
    wins from about 10 to 20 points, and by four to five times at 100; only
    a CSV can feed such a column, and reading it costs far more. A block's
    joint cell codes are built in place in one intp copy of its Xep
    indices, and their bincount is added into the table's counts, exact
    integers, which the table keeps."""
    d.require("X", "Xep", "Y")
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, d.n, BLOCK_ROWS)]
    supports = {}
    for name in ("X", "Xep", "Y"):
        column = d[name]
        values = _support(
            np.concatenate([np.empty(0), *(np.unique(_keyed(column[b])) for b in blocks)])
        )
        if values.size > MAX_SUPPORT:
            raise DiscretenessError(
                f"column {name} has {values.size} distinct values "
                f"(> {MAX_SUPPORT}); the empirical table needs discrete supports"
            )
        supports[name] = values

    x_vals, xep_vals, y_vals = supports["X"], supports["Xep"], supports["Y"]
    shape = (xep_vals.size, x_vals.size, y_vals.size)
    counts = np.zeros(np.prod(shape), dtype=np.intp)
    for b in blocks:
        code = _index_block(_keyed(d["Xep"][b]), xep_vals).astype(np.intp)
        code *= x_vals.size
        code += _index_block(_keyed(d["X"][b]), x_vals)
        code *= y_vals.size
        code += _index_block(_keyed(d["Y"][b]), y_vals)
        counts += np.bincount(code, minlength=counts.size)
    counts = counts.reshape(shape)
    return ExchProbTable(
        xep_support=xep_vals,
        x_support=x_vals,
        y_support=y_vals,
        probs=counts / counts.sum(axis=(1, 2), keepdims=True),
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
    support, and otherwise QUAD_NODES trapezoid nodes on mean +- QUAD_SIGMAS
    sd weighted by the density."""
    if spec.is_discrete():
        return spec.support()
    mu, sigma = spec.mean(), np.sqrt(spec.variance())
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
    over a law's points and weights: a discrete law's support, else
    trapezoid nodes on mean +- QUAD_SIGMAS sd.
    Identity link requires discrete outcome noise; logit link takes discrete
    or continuous noise. Supports are keyed and made by ``_support``: sorted,
    de-duplicated, a zero as +0.0.
    """
    xep_support = _support(_keyed(xep_support))
    if x_support is None:
        if not x_marginal.is_discrete():
            raise CapabilityError("x_support is required for continuous exposure marginals")
        x_support = x_marginal.support()[0]
    x_support = _support(_keyed(x_support))

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
        y_support = _support(
            _keyed(outcome.linear_predictor(x_support[:, None], eps=_law(outcome.noise)[0]))
        )
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
        probs=p_true * p_measured.reshape(-1, 1, y_support.size),  # an empty xep support too
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
    i = _index(t.xep_support, e_t)
    if i is None:
        raise SupportError(f"e_t = {e_t} is not in the table support")
    marginal = {x: sum(row) for x, row in zip(t.x_support.tolist(), t.probs[i].tolist())}
    worst = max(
        (
            abs(p - marginal.get(float(_keyed(2 * e_t - x)), 0.0))
            for x, p in marginal.items()
            if _keyed(x - e_t) != 0
        ),
        default=0.0,
    )
    return worst < tolerance, worst
