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
  one pass over blocks of at most BLOCK_ROWS rows, from a dataset or from a
  stream of blocks as they are drawn, each value keyed once; a support
  grows when a block brings a new value, and the counts so far are laid
  onto it. Its scratch is fixed by the block whatever the row count; and
* the analytic product table, cell = P(Y(x) = y | z) * P(Y(xep) = y | z)
  with the conditional law of the true exposure given the measured one built
  from the error model (non-Berkson: f_X * f_U / normalizer; pure Berkson:
  f_U shifted). z is held fixed: j(z) folds into the outcome's beta0 and a V
  loading of the error into its gamma0, so gammaV must be 0.

Every analytic integral runs over one law rule, ``_law``: a discrete law is
its support, and any other law QUAD_NODES trapezoid nodes on mean +-
QUAD_SIGMAS sd weighted by its density. A logit outcome's probability is
the generator's own, ``regress._sigmoid``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapabilityError, DiscretenessError, ParameterError, SupportError
from .model import (
    Dataset,
    DistributionSpec,
    ErrorKind,
    ErrorModel,
    Link,
    OutcomeModel,
)
from .regress import _sigmoid

KEY_DECIMALS = 9
QUAD_NODES = 4001
QUAD_SIGMAS = 8.0
MAX_SUPPORT = 100
# Rows per block of the empirical tabulation and of the table2 stream: 512
# KiB of float64, so a block's draws, keyed values, masks, uint8 indices and
# intp codes stay in a core's L2. On a 2-core VM (median of 10 in-process
# calls), the 10^6-row table2 report takes 39-40 ms with blocks of 2^14 to
# 2^16 rows, 44 ms at 2^17, 68 ms at 2^20, and 48 ms at 2^12, where numpy's
# per-call cost shows.
BLOCK_ROWS = 1 << 16


def _keyed(values, out=None) -> np.ndarray:
    """Values rounded to KEY_DECIMALS, into ``out`` if given: the one rule
    by which a value, a scalar or an array, finds its support point."""
    return np.round(np.asarray(values, dtype=float), KEY_DECIMALS, out=out)


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


def _reach(keyed: np.ndarray, points: np.ndarray, index: np.ndarray, mask: np.ndarray) -> None:
    """Adds to the uint8 ``index`` the number of ``points`` each keyed value
    reaches, one pass per point through ``mask``. Over a sorted support's
    points above the first, that is each on-support value's position in it
    (MAX_SUPPORT <= 256 keeps it from wrapping)."""
    for point in points:
        index += np.greater_equal(keyed, point, out=mask)


_COLUMNS = ("X", "Xep", "Y")


def _blocks(source) -> Iterator[dict]:
    """The source's {X, Xep, Y} blocks cut to at most BLOCK_ROWS rows: a
    dataset is one block of its columns, any other source yields its own."""
    if isinstance(source, Dataset):
        source.require(*_COLUMNS)
        source = [{name: source[name] for name in _COLUMNS}]
    for block in source:
        for start in range(0, len(block["X"]), BLOCK_ROWS):
            yield {name: block[name][start : start + BLOCK_ROWS] for name in _COLUMNS}


def _lay(counts: np.ndarray, axis: int, positions: np.ndarray, size: int) -> np.ndarray:
    """Counts laid onto a grown support along ``axis``: the old points sit
    at ``positions`` among the ``size`` new ones, and the new points hold
    zeros."""
    shape = list(counts.shape)
    shape[axis] = size
    laid = np.zeros(shape, dtype=counts.dtype)
    laid[(slice(None),) * axis + (positions,)] = counts
    return laid


def _not_discrete(supports, blocks) -> DiscretenessError:
    """The error for the first of X, Xep and Y with more than MAX_SUPPORT
    distinct values, each column's counted over its support so far and
    every block still to come."""
    seen = [[support] for support in supports]
    for block in blocks:
        for values, name in zip(seen, _COLUMNS):
            values.append(np.unique(_keyed(block[name])))
    sizes = [_support(np.concatenate(values)).size for values in seen]
    name, size = next((n, s) for n, s in zip(_COLUMNS, sizes) if s > MAX_SUPPORT)
    return DiscretenessError(
        f"column {name} has {size} distinct values "
        f"(> {MAX_SUPPORT}); the empirical table needs discrete supports"
    )


def empirical_table(source) -> ExchProbTable:
    """Conditional-joint estimator: cell = #(Xep=xep, X=x, Y=y) / #(Xep=xep).

    ``source`` is a dataset or an iterable of {X, Xep, Y} blocks (such as
    ``datagen.table2_blocks``), each read before the next is asked for. One
    pass over blocks of at most BLOCK_ROWS rows, through scratch buffers of
    one block, so no scratch grows with the rows. Each block's columns are
    keyed once and indexed in their supports so far by counting the points
    each value reaches (``_reach``). Where ``support[index] == keyed`` for
    every value (-0.0 on +0.0) the column brought nothing new and needs no
    sort. Otherwise it takes the block's ``np.unique``, its support grows to
    the ``_support`` of the union (the same sorted set, a zero as +0.0, that
    one sort of the whole keyed column gives), and the index counts the
    added points too. The integer counts so far are laid onto the grown
    supports (``_lay``), so the table keeps its bits whatever order the
    values come in. On columns in random order (every simulated world) the
    counting passes beat a binary search at every support size up to
    MAX_SUPPORT; a sorted column, which only a CSV can feed, grows its
    support in nearly every block. A block's joint cell codes are built in
    place from its Xep indices and added into the counts with
    ``np.add.at``, which, unlike a bincount, costs no pass over the whole
    table. A support that passes MAX_SUPPORT reads the rest of the source
    for its full distinct count, and X is named before Xep, Xep before Y."""
    blocks = _blocks(source)
    supports = [np.empty(0)] * len(_COLUMNS)
    counts = np.zeros((0, 0, 0), dtype=np.intp)
    keyed, points = np.empty(BLOCK_ROWS), np.empty(BLOCK_ROWS)
    mask = np.empty(BLOCK_ROWS, dtype=bool)
    indices = np.empty((len(_COLUMNS), BLOCK_ROWS), dtype=np.uint8)
    code = np.empty(BLOCK_ROWS, dtype=np.intp)
    for block in blocks:
        rows = len(block["X"])
        k, m, c = keyed[:rows], mask[:rows], code[:rows]
        grown = list(supports)
        for i, name in enumerate(_COLUMNS):
            _keyed(block[name], out=k)
            index = indices[i, :rows]
            index.fill(0)
            _reach(k, grown[i][1:], index, m)
            # take's clip mode writes into its out unbuffered; every index
            # is in range
            np.copyto(c, index)
            if grown[i].size and np.equal(
                grown[i].take(c, out=points[:rows], mode="clip"), k, out=m
            ).all():
                continue
            before = grown[i]
            grown[i] = _support(np.concatenate([before, np.unique(k)]))
            if grown[i].size > MAX_SUPPORT:
                raise _not_discrete(supports, itertools.chain([block], blocks))
            # before[1:] lies in grown[i][1:]: the index counts the added points
            _reach(k, np.setdiff1d(grown[i][1:], before[1:]), index, m)
        for axis, i in enumerate((1, 0, 2)):  # counts are (xep, x, y)
            if grown[i] is not supports[i]:
                counts = _lay(counts, axis, np.searchsorted(grown[i], supports[i]), grown[i].size)
        supports = grown
        np.copyto(c, indices[1, :rows])
        c *= supports[0].size
        c += indices[0, :rows]
        c *= supports[2].size
        c += indices[2, :rows]
        np.add.at(counts.reshape(-1), c, 1)
    x_vals, xep_vals, y_vals = supports
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


def _finite_support(name: str, values) -> np.ndarray:
    """The ``_support`` of a support argument's keyed values, once each is
    finite: a NaN would be a point of zero mass, or a zero density."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ParameterError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    return _support(_keyed(values))


def _p_outcome(outcome: OutcomeModel, x: np.ndarray, y_support: np.ndarray) -> np.ndarray:
    """P(Y(x) = y | z) as a (y, x) array, the outcome noise integrated out
    over its law; under logit y_support is (0, 1)."""
    eps, wts = _law(outcome.noise)
    lp = outcome.linear_predictor(x[:, None], eps=eps)
    if outcome.link is Link.LOGIT:
        p1 = _sigmoid(lp) @ wts
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
    xep_support = _finite_support("xep_support", xep_support)
    if x_support is None:
        if not x_marginal.is_discrete():
            raise CapabilityError("x_support is required for continuous exposure marginals")
        x_support = x_marginal.support()[0]
    x_support = _finite_support("x_support", x_support)

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
