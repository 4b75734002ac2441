"""Deterministic, splittable random variate generation.

Each draw call owns a counter-based Philox generator keyed by hashing a
(master_seed, replication_index, column_tag) triple, so replications and
columns get independent streams with no shared mutable state. Normal
variates come from a Box-Muller pipeline and gamma variates from the
Marsaglia-Tsang squeeze method, both built on the raw uniform stream, which
keeps the output identical across platforms and numpy versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import math

import numpy as np

from .errors import ParameterError
from .model import DistributionSpec


class ColumnTag(IntEnum):
    """Stable stream identifiers for every variable a scenario can draw."""

    C = 1
    V = 2
    X_NOISE = 3
    Y_NOISE = 4
    U_X = 5
    U_C = 6
    U_V = 7
    BERNOULLI = 8
    W = 9
    U = 10
    X = 11


@dataclass(frozen=True)
class StreamKey:
    master_seed: int
    replication_index: int
    column_tag: int

    def __post_init__(self):
        if self.replication_index < 0:
            raise ParameterError("replication_index must be >= 0")
        if not 0 <= self.master_seed <= _MASK64:
            raise ParameterError(f"seed {self.master_seed} is outside [0, 2**64)")


_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def generator(key: StreamKey) -> np.random.Generator:
    """Counter-based generator whose state is a pure function of the key."""
    w0 = _splitmix64(key.master_seed)
    w1 = _splitmix64((key.replication_index << 20) ^ key.column_tag ^ w0)
    bitgen = np.random.Philox(key=np.array([w0, w1], dtype=np.uint64))
    return np.random.Generator(bitgen)


def _normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on the uniform stream."""
    pairs = (n + 1) // 2
    u1 = 1.0 - gen.random(pairs)  # (0, 1]
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


def _gammas(gen: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """n standard gammas (scale 1) via the Marsaglia-Tsang squeeze.

    Shapes below 1 use the boost G(a) = G(a+1) * U^(1/a).
    """
    boost = shape < 1.0
    a = shape + 1.0 if boost else shape
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 16)
        x = _normals(gen, m)
        v = (1.0 + c * x) ** 3
        u = gen.random(m)
        ok = v > 0
        x2 = x * x
        accept = ok & (u < 1.0 - 0.0331 * x2 * x2)
        # the log test only where v > 0 and the squeeze rejected
        slow = np.flatnonzero(ok & ~accept)
        vs = v[slow]
        with np.errstate(divide="ignore"):
            accept[slow] = np.log(u[slow]) < 0.5 * x2[slow] + d * (1.0 - vs + np.log(vs))
        take = np.flatnonzero(accept)[: n - filled]
        out[filled : filled + take.size] = d * v[take]
        filled += take.size
    if boost:
        u = 1.0 - gen.random(n)  # (0, 1]: the boost power must not see 0
        out *= u ** (1.0 / shape)
    return out


def sample(spec: DistributionSpec, key: StreamKey, n: int) -> np.ndarray:
    """n i.i.d. draws; identical inputs give bit-identical output."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    spec.check()
    if spec.family == "pointMass":
        return np.full(n, spec.p1)
    gen = generator(key)
    # scaled and shifted in place: the same bits as p1 + p2 * z, with no
    # tall temporaries
    if spec.family == "normal":
        z = _normals(gen, n)
        z *= spec.p2
        z += spec.p1
        return z
    if spec.family == "gamma":
        z = _gammas(gen, spec.p1, n)
        z *= spec.p2
        return z
    # roundedUniform, the one family spec.check() admits besides these
    u = gen.random(n)
    u *= spec.p2 - spec.p1
    u += spec.p1
    return np.rint(u, out=u)


def uniforms(key: StreamKey, n: int) -> np.ndarray:
    """n uniforms on [0, 1) from the keyed stream (Bernoulli thresholds)."""
    return generator(key).random(n)
