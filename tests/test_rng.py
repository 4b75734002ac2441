import math

import numpy as np
import pytest

from peclab.errors import ParameterError
from peclab.model import DistributionSpec
from peclab.rng import (
    ColumnTag,
    StreamKey,
    _gammas,
    _normals,
    generator,
    rounded_uniform_blocks,
    sample,
)


def test_point_mass_degenerate():
    out = sample(DistributionSpec.point_mass(0.0), StreamKey(1, 0, 1), 3)
    assert out.tolist() == [0.0, 0.0, 0.0]


def test_determinism_bit_identical():
    spec = DistributionSpec.gamma(2.0, 1.0)
    key = StreamKey(987654321, 7, ColumnTag.V)
    a = sample(spec, key, 10_000)
    b = sample(spec, key, 10_000)
    np.testing.assert_array_equal(a, b)


def test_different_tags_change_the_stream():
    spec = DistributionSpec.normal(0, 1)
    a = sample(spec, StreamKey(11, 0, 1), 1000)
    b = sample(spec, StreamKey(11, 0, 2), 1000)
    c = sample(spec, StreamKey(11, 1, 1), 1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normal_mean_within_bound():
    n = 1_000_000
    z = sample(DistributionSpec.normal(0, 1), StreamKey(3, 0, 4), n)
    assert abs(z.mean()) < 4 / np.sqrt(n)  # 0.004


def test_rounded_uniform_three_point_frequencies():
    n = 1_000_000
    draws = sample(DistributionSpec.rounded_uniform(-1, 1), StreamKey(5, 0, 9), n)
    for value, target in [(-1.0, 0.25), (0.0, 0.50), (1.0, 0.25)]:
        assert abs(np.mean(draws == value) - target) < 0.002


def test_stream_independence_proxy():
    n = 100_000
    spec = DistributionSpec.normal(0, 1)
    streams = [sample(spec, StreamKey(42, 0, tag), n) for tag in (1, 2, 3, 4)]
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            corr = np.corrcoef(streams[i], streams[j])[0, 1]
            assert abs(corr) < 0.01


def test_gamma_moments_within_four_se():
    n = 1_000_000
    for shape, scale in [(1.0, 1.0), (2.0, 1.0), (0.5, 2.0), (3.7, 0.4)]:
        draws = sample(DistributionSpec.gamma(shape, scale), StreamKey(8, 0, 1), n)
        mean = shape * scale
        var = shape * scale**2
        assert abs(draws.mean() - mean) < 4 * np.sqrt(var / n)
        # Var of the sample variance for gamma: (m4 - var^2)/n with
        # m4 = 3 var^2 + 6 var^2 / shape * scale^2 ... use the empirical m4
        m4 = np.mean((draws - mean) ** 4)
        assert abs(draws.var() - var) < 4 * np.sqrt((m4 - var**2) / n)


def _eager_gammas(gen, shape, n):
    """Marsaglia-Tsang with the log test evaluated on every candidate."""
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
        squeeze = u < 1.0 - 0.0331 * x2 * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            slow = np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(np.where(ok, v, 1.0)))
        accept = ok & (squeeze | slow)
        take = np.flatnonzero(accept)[: n - filled]
        out[filled : filled + take.size] = d * v[take]
        filled += take.size
    if boost:
        u = 1.0 - gen.random(n)
        out *= u ** (1.0 / shape)
    return out


@pytest.mark.parametrize("shape", [0.3, 0.5, 1.0, 2.0, 7.5])
def test_gammas_bit_equal_to_eager_log_test(shape):
    for rep in range(5):
        for n in (1, 7, 10_000):
            key = StreamKey(2024, rep, ColumnTag.V)
            got = _gammas(generator(key), shape, n)
            want = _eager_gammas(generator(key), shape, n)
            assert np.array_equal(got, want)


def test_gamma_all_positive():
    draws = sample(DistributionSpec.gamma(0.7, 1.0), StreamKey(8, 1, 1), 100_000)
    assert np.all(draws > 0)


def test_invalid_spec_raises():
    with pytest.raises(ParameterError, match="^gamma shape must be > 0$"):
        sample(DistributionSpec.gamma(-1.0, 1.0), StreamKey(1, 0, 1), 5)
    with pytest.raises(ParameterError, match="^n must be >= 0$"):
        sample(DistributionSpec.normal(0.0, 1.0), StreamKey(1, 0, 1), -1)
    with pytest.raises(ParameterError):
        StreamKey(1, -1, 1)


@pytest.mark.parametrize("n", [0, 1, 3, 10_001])
def test_in_place_scaling_keeps_the_expression_bits(n):
    # each family's output equals its scaled-and-shifted expression bit for
    # bit; odd n takes Box-Muller's z[:n] view of an even-length array
    key = StreamKey(31, 2, ColumnTag.X_NOISE)
    cases = [
        (DistributionSpec.normal(0.3, 1.7), lambda s, g: s.p1 + s.p2 * _normals(g, n)),
        (DistributionSpec.normal(-2.0, 0.1), lambda s, g: s.p1 + s.p2 * _normals(g, n)),
        (DistributionSpec.gamma(2.5, 0.4), lambda s, g: s.p2 * _gammas(g, s.p1, n)),
        (DistributionSpec.gamma(0.5, 3.0), lambda s, g: s.p2 * _gammas(g, s.p1, n)),
        (DistributionSpec.rounded_uniform(8, 10),
         lambda s, g: np.rint(s.p1 + (s.p2 - s.p1) * g.random(n))),
        (DistributionSpec.rounded_uniform(-2.5, 3.5),
         lambda s, g: np.rint(s.p1 + (s.p2 - s.p1) * g.random(n))),
    ]
    for spec, expression in cases:
        got = sample(spec, key, n)
        want = expression(spec, generator(key))
        assert got.shape == (n,) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), spec


BLOCK = 1 << 16


@pytest.mark.parametrize("n", [1, 12, BLOCK - 1, BLOCK, BLOCK + 1, 70_000, 10**6 + 3])
def test_rounded_uniform_blocks_concatenate_to_the_tall_draw(n):
    # the generator continues its Philox stream from block to block
    for spec, tag in ((DistributionSpec.rounded_uniform(8, 10), ColumnTag.X),
                      (DistributionSpec.rounded_uniform(-2.5, 3.5), ColumnTag.U)):
        key = StreamKey(11, 3, tag)
        # each block is valid until the next is drawn, so copy it
        blocks = [b.copy() for b in rounded_uniform_blocks(spec, key, n, BLOCK)]
        assert [b.size for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
        assert 1 <= blocks[-1].size <= BLOCK
        assert np.array_equal(np.concatenate(blocks), sample(spec, key, n))


def test_rounded_uniform_blocks_check_their_arguments_when_called():
    key = StreamKey(1, 0, ColumnTag.X)
    assert list(rounded_uniform_blocks(DistributionSpec.rounded_uniform(0, 1), key, 0, 8)) == []
    with pytest.raises(ParameterError, match="^n must be >= 0$"):
        rounded_uniform_blocks(DistributionSpec.rounded_uniform(0, 1), key, -1, 8)
    with pytest.raises(ParameterError, match="take a roundedUniform law, got normal"):
        rounded_uniform_blocks(DistributionSpec.normal(0.0, 1.0), key, 5, 8)
