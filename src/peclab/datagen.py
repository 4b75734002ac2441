"""Dataset materialization: the discrete exposure-only world and the
continuous simulation worlds.

Generation order is fixed by the structural dependencies: C, V first, then X
(or the measured exposure under pure Berkson wiring), then Y, then the
error-prone columns. Every draw is keyed by (seed, replication, column), so
replications are independent and reproducible in isolation. The scenario is
not part of the key: scenarios at one seed, n and replication draw the same
values for a column of the same law, which generate_scenario's ``draws``
dict lets them share.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import ParameterError
from .model import (
    Dataset,
    DistributionSpec,
    ErrorKind,
    ErrorModel,
    Link,
    Scenario,
    check_scenario,
)
from .rng import ColumnTag, StreamKey, sample, uniforms


def generate_table2_world(n: int, seed: int) -> Dataset:
    """The discrete exposure-only world: X = round(U(8,10)), Y = 0.1X + 0.1W,
    Xep = X + U with W, U = round(U(-1,1)).

    All three laws are three-point (1/4, 1/2, 1/4).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")

    def draw(tag: ColumnTag, lo: float, hi: float) -> np.ndarray:
        return sample(DistributionSpec.rounded_uniform(lo, hi), StreamKey(seed, 0, tag), n)

    x = draw(ColumnTag.X, 8, 10)
    w = draw(ColumnTag.W, -1, 1)
    u = draw(ColumnTag.U, -1, 1)
    y = 0.1 * x + 0.1 * w
    return Dataset({"X": x, "Xep": x + u, "Y": y})


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


def generate_scenario(
    s: Scenario, replication_index: int = 0, draws: dict | None = None
) -> Dataset:
    """Materialize one replication of a scenario.

    The outcome link decides the response type: identity gives an additive
    continuous Y, logit a Bernoulli draw at the logistic mean (noise inside
    the linear predictor), log a Bernoulli draw at exp(lp) for rare-outcome
    worlds.

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
        if s.outcome.link is Link.LOGIT:
            p = 1.0 / (1.0 + np.exp(-lp))
        else:
            p = np.exp(lp)
            if np.any(p > 1.0):
                raise ParameterError(
                    "log link produced probabilities > 1; the outcome model is "
                    "valid only for rare outcomes"
                )
        y = (draw(ColumnTag.BERNOULLI, None) < p).astype(float)

    cep = _apply_error(s.confounder_error, c, v, draw, ColumnTag.U_C)
    vep = _apply_error(s.v_error, v, v, draw, ColumnTag.U_V)

    return Dataset({"X": x, "Xep": xep, "C": c, "Cep": cep, "V": v, "Vep": vep, "Y": y})
