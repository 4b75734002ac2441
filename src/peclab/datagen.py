"""Dataset materialization: the discrete exposure-only world and the
continuous simulation worlds.

The exposure-only world (table2) is a stream: ``table2_blocks`` draws its
three columns a block of BLOCK_ROWS rows at a time from their keyed
generators, so no column as long as the world exists unless
``generate_table2_world`` concatenates the blocks into a dataset.

Generation order is fixed by the structural dependencies: C, V first, then X
(or the measured exposure under pure Berkson wiring), then Y, then the
error-prone columns. Every draw is keyed by (seed, replication, column), so
replications are independent and reproducible in isolation. The scenario is
not part of the key: scenarios at one seed, n and replication draw the same
values for a column of the same law, which generate_scenario's ``draws``
dict lets them share.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from .errors import ParameterError
from .exchprob import BLOCK_ROWS
from .model import (
    Dataset,
    DistributionSpec,
    ErrorKind,
    ErrorModel,
    Link,
    Scenario,
    check_scenario,
)
from .regress import _sigmoid
from .rng import ColumnTag, StreamKey, rounded_uniform_blocks, sample, uniforms


def table2_blocks(n: int, seed: int) -> Iterator[dict[str, np.ndarray]]:
    """The discrete exposure-only world: X = round(U(8,10)), Y = 0.1X + 0.1W,
    Xep = X + U with W, U = round(U(-1,1)), as consecutive {X, Xep, Y}
    blocks of BLOCK_ROWS rows (the last may be shorter).

    All three laws are three-point (1/4, 1/2, 1/4). Each column is one keyed
    stream drawn a block at a time, and each block is valid until the next
    is drawn: its columns are the draws' own buffers, reused.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")

    def draw(tag: ColumnTag, lo: float, hi: float):
        spec = DistributionSpec.rounded_uniform(lo, hi)
        return rounded_uniform_blocks(spec, StreamKey(seed, 0, tag), n, BLOCK_ROWS)

    y = np.empty(min(n, BLOCK_ROWS))

    def blocks():
        for x, w, u in zip(draw(ColumnTag.X, 8, 10), draw(ColumnTag.W, -1, 1),
                           draw(ColumnTag.U, -1, 1)):
            # 0.1 * x + 0.1 * w, in that order; Xep is x + u in U's own
            # buffer (IEEE addition commutes)
            yx = np.multiply(x, 0.1, out=y[: x.size])
            w *= 0.1
            yx += w
            u += x
            yield {"X": x, "Xep": u, "Y": yx}

    return blocks()


def generate_table2_world(n: int, seed: int) -> Dataset:
    """The ``table2_blocks`` world as one dataset: its blocks, concatenated."""
    blocks = table2_blocks(n, seed)
    columns = {name: np.empty(n) for name in ("X", "Xep", "Y")}
    start = 0
    for block in blocks:
        stop = start + block["X"].size
        for name, values in block.items():
            columns[name][start:stop] = values
        start = stop
    return Dataset(columns)


def _apply_error(
    error: ErrorModel,
    source: np.ndarray,
    v: np.ndarray,
    draw: Callable[[ColumnTag, DistributionSpec], np.ndarray],
    tag: ColumnTag,
) -> np.ndarray:
    """gamma0 + gamma1 * source + gammaV * V + U, or a copy of the source
    under kind none. The source is the true column, except for a pure
    Berkson error, where it is the measured one and the result the truth;
    the scenario validator allows that kind on the exposure only."""
    if error.kind is ErrorKind.NONE:
        return source.copy()
    u = draw(tag, error.noiseU)
    return error.gamma0 + error.gamma1 * source + error.gammaV * v + u


# A column may overflow or be undefined on some rows (1e308 * X, inf - inf):
# the checks below, of a NaN or > 1 outcome probability and of Dataset's
# finite columns, report that once, with no numpy warning before it.
@np.errstate(over="ignore", invalid="ignore")
def generate_scenario(
    s: Scenario, replication_index: int = 0, draws: dict | None = None
) -> Dataset:
    """Materialize one replication of a scenario.

    The outcome link decides the response type: identity gives an additive
    continuous Y, logit a Bernoulli draw at the logistic mean
    ``regress._sigmoid(lp)`` (noise inside the linear predictor), log a
    Bernoulli draw at exp(lp) for rare-outcome worlds.

    ``draws`` maps (column tag, law) to a keyed draw of this replication; the
    law is None for the Bernoulli uniforms. A draw found there is reused and
    one not found is made and stored, so scenarios that share the seed, n and
    ``replication_index`` can pass one dict and draw each stream once. Every
    stream is a pure function of (seed, replication, tag, law, n), so the
    columns are bit-identical to those of a call without the dict. Stored
    draws are read-only: a column such as V is the draw itself.
    """
    check_scenario(s)
    n = s.n
    draws = {} if draws is None else draws

    def draw(tag: ColumnTag, spec: DistributionSpec | None) -> np.ndarray:
        values = draws.get((tag, spec))
        if values is None:
            key = StreamKey(s.seed, replication_index, tag)
            values = uniforms(key, n) if spec is None else sample(spec, key, n)
            values.flags.writeable = False
            draws[(tag, spec)] = values
        return values

    v = draw(ColumnTag.V, s.v_model)
    c = s.c_model.intercept + s.c_model.coef_v * v + draw(ColumnTag.C, s.c_model.noise)

    x_mean = s.x_model.intercept + s.x_model.coef_c * c + s.x_model.coef_v * v
    x_draw = x_mean + draw(ColumnTag.X_NOISE, s.x_model.noise)
    x_err = _apply_error(s.exposure_error, x_draw, v, draw, ColumnTag.U_X)
    # under pure Berkson the structural equation generates the measured
    # value and the truth is measured-plus-noise
    berkson = s.exposure_error.kind is ErrorKind.PURE_BERKSON
    x, xep = (x_err, x_draw) if berkson else (x_draw, x_err)

    eps = draw(ColumnTag.Y_NOISE, s.outcome.noise)
    lp = s.outcome.linear_predictor(x, c=c, v=v, eps=eps)
    if s.outcome.link is Link.IDENTITY:
        y = lp
    else:
        p = _sigmoid(lp) if s.outcome.link is Link.LOGIT else np.exp(lp)
        # U < NaN is false, so a NaN probability would draw Y = 0 unseen
        undefined = int(np.count_nonzero(np.isnan(p)))
        if undefined:
            raise ParameterError(
                f"the outcome probability is NaN on {undefined} of {n} rows: "
                "the outcome model's linear predictor is undefined there"
            )
        if s.outcome.link is Link.LOG and np.any(p > 1.0):
            raise ParameterError(
                "log link produced probabilities > 1; the outcome model is "
                "valid only for rare outcomes"
            )
        y = (draw(ColumnTag.BERNOULLI, None) < p).astype(float)

    cep = _apply_error(s.confounder_error, c, v, draw, ColumnTag.U_C)
    vep = _apply_error(s.v_error, v, v, draw, ColumnTag.U_V)

    return Dataset({"X": x, "Xep": xep, "C": c, "Cep": cep, "V": v, "Vep": vep, "Y": y})
