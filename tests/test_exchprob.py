import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import table2_oracle as oracle
from peclab import worlds
from peclab.datagen import generate_table2_world, table2_blocks
from peclab.errors import CapabilityError, DiscretenessError, ParameterError, SupportError
from peclab.exchprob import (
    BLOCK_ROWS,
    KEY_DECIMALS,
    MAX_SUPPORT,
    QUAD_NODES,
    TableMode,
    aee_from_table,
    analytic_product_table,
    empirical_table,
    symmetry_check,
)
from peclab.model import Dataset, DistributionSpec, ErrorKind, ErrorModel, Link, OutcomeModel
from peclab.harness import reproduce
from peclab.rng import ColumnTag, StreamKey, sample

TABLE2_OUTCOME = OutcomeModel(
    link=Link.IDENTITY,
    beta_x=0.1,
    noise=DistributionSpec.rounded_uniform(-1, 1),
    noise_scale=0.1,
)
CLASSICAL_UNIT_ERROR = ErrorModel(
    kind=ErrorKind.NON_BERKSON_LINEAR,
    gamma1=1.0,
    noiseU=DistributionSpec.rounded_uniform(-1, 1),
)
X_MARGINAL = DistributionSpec.rounded_uniform(8, 10)


def three_point_world(n, seed, beta1=0.1, berkson=False):
    """Discrete world with three-point X (or measured) support for table tests."""
    base = sample(DistributionSpec.rounded_uniform(8, 10), StreamKey(seed, 0, 11), n)
    w = sample(DistributionSpec.rounded_uniform(-1, 1), StreamKey(seed, 0, 9), n)
    u = sample(DistributionSpec.rounded_uniform(-1, 1), StreamKey(seed, 0, 10), n)
    if berkson:
        xep = base
        x = xep + u
    else:
        x = base
        xep = x + u
    y = beta1 * x + beta1 * w
    return Dataset({"X": x, "Xep": xep, "Y": y})


# ---------------------------------------------------------------------------
# Empirical mode


def test_row_sums_equal_one(table2_table):
    for xep in table2_table.xep_support:
        assert table2_table.slice_sum(xep) == pytest.approx(1.0, abs=1e-9)


def test_published_cell_values(table2_table):
    assert table2_table.cell(9, 8, 0.7) == pytest.approx(0.04169, abs=0.005)
    assert table2_table.cell(11, 10, 1.0) == pytest.approx(0.50242, abs=0.005)


def test_cells_converge_to_enumeration_oracle(table2_table, table2_dataset):
    cells = oracle.conditional_joint_cells()
    law = oracle.xep_law()
    n = table2_dataset.n
    for xep in (7, 8, 9, 10, 11):
        n_stratum = float(law[xep]) * n
        for x in (8, 9, 10):
            for y10 in (x - 1, x, x + 1):
                p = float(cells.get((xep, x, y10), 0))
                got = table2_table.cell(xep, x, y10 / 10)
                bound = 3 * np.sqrt(p * (1 - p) / n_stratum)
                assert abs(got - p) <= bound + 1e-12, (xep, x, y10)


def test_structural_zero_cells_are_zero(table2_table):
    assert table2_table.cell(7, 10, 0.9) == 0.0
    assert table2_table.cell(11, 8, 0.7) == 0.0
    # values off the supports read as 0, whichever coordinate is off
    for xep, x, y in ((6, 8, 0.7), (9, 11, 0.7), (9, 8, 0.75), (-1e9, 1e9, 2.0)):
        assert table2_table.cell(xep, x, y) == 0.0


def test_no_error_world_concentrates_on_diagonal():
    x = sample(DistributionSpec.rounded_uniform(0, 4), StreamKey(4, 0, 11), 50_000)
    w = sample(DistributionSpec.rounded_uniform(-1, 1), StreamKey(4, 0, 9), 50_000)
    ds = Dataset({"X": x, "Xep": x.copy(), "Y": x + w})
    table = empirical_table(ds)
    np.testing.assert_array_equal(table.x_support, table.xep_support)
    for i, slice_ in enumerate(table.probs):
        # the x-marginal of the Xep row: all of its mass at X = Xep
        marg = slice_.sum(axis=1)
        assert marg[i] == pytest.approx(1.0)
        assert np.count_nonzero(marg) == 1


def test_continuous_columns_rejected():
    rng = np.random.default_rng(0)
    ds = Dataset({"X": rng.normal(size=500), "Xep": rng.normal(size=500),
                  "Y": rng.normal(size=500)})
    with pytest.raises(DiscretenessError):
        empirical_table(ds)


def test_a_value_off_the_key_grid_finds_its_own_cell():
    # 12.0000000025 keys to 12.000000002 under np.round and 12.000000003
    # under Python's round: lookups must key it as the support does
    xep = 12.0000000025
    ds = Dataset({"X": np.array([12.0, 13.0, 9.0, 9.0]), "Xep": np.array([xep, xep, 9.0, 9.0]),
                  "Y": np.array([0.0, 0.0, 0.5, 0.5])})
    table = empirical_table(ds)
    assert table.cell(xep, 12.0, 0.0) == 0.5
    assert table.slice_sum(xep) == 1.0
    assert aee_from_table(table, xep, 9.0) == -0.5


def _unique_inverse_table(d):
    """Reference: supports and cells from np.unique(return_inverse=True)."""
    (xv, xi), (ev, ei), (yv, yi) = (
        np.unique(np.round(d[c], KEY_DECIMALS), return_inverse=True) for c in ("X", "Xep", "Y")
    )
    shape = (ev.size, xv.size, yv.size)
    counts = np.bincount((ei * xv.size + xi) * yv.size + yi, minlength=np.prod(shape))
    counts = counts.reshape(shape)
    return ev, xv, yv, counts


def _odd_discrete_columns(rng, n):
    negative = rng.integers(-6, 4, n) * 0.5
    signed_zero = rng.choice([-0.0, 0.0, 1.0, -1.0], n)
    # 0.1 + 1e-12 and 0.1 - 3e-11 key to 0.1, 0.3 + 4e-10 to 0.3
    collapsing = rng.choice([0.1, 0.1 + 1e-12, 0.1 - 3e-11, 0.3, 0.3 + 4e-10, -0.7], n)
    single = np.full(n, 2.5)
    return [negative, signed_zero, collapsing, single]


def _assert_matches_unique_inverse(ds):
    table = empirical_table(ds)
    ev, xv, yv, counts = _unique_inverse_table(ds)
    # by value: the reference keeps whichever of -0.0 and 0.0 sorts first,
    # the table's support +0.0
    np.testing.assert_array_equal(table.xep_support, ev)
    np.testing.assert_array_equal(table.x_support, xv)
    np.testing.assert_array_equal(table.y_support, yv)
    # the table keeps its integer counts; probs is each Xep row over its sum
    assert table.counts.dtype.kind == "i" and table.counts.sum() == ds.n
    assert table.mode is TableMode.EMPIRICAL
    np.testing.assert_array_equal(table.counts, counts)
    probs = counts / counts.sum(axis=(1, 2), keepdims=True)
    assert table.probs.tobytes() == probs.tobytes()
    return table


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_empirical_table_matches_unique_inverse_reference(seed):
    rng = np.random.default_rng(seed)
    n = 4000
    cols = _odd_discrete_columns(rng, n)
    for x, xep, y in [
        (cols[0], cols[1], cols[2]),
        (cols[2], cols[0], cols[1]),
        (cols[1], cols[2], cols[3]),
        (cols[3], cols[3], cols[0]),
    ]:
        _assert_matches_unique_inverse(Dataset({"X": x, "Xep": xep, "Y": y}))


@pytest.mark.parametrize(
    "n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]
)
def test_empirical_table_matches_the_reference_across_block_boundaries(n):
    rng = np.random.default_rng(n)
    x = rng.integers(0, 3, n) * 0.5
    xep = rng.integers(1, 4, n) * 0.25
    y = rng.choice([0.5, 1.0], n)
    # 7.0 occurs only in the last block, -0.0 only in the first, +0.0 only
    # in the last
    xep[-1] = 7.0
    y[0] = -0.0
    y[-1] = 0.0
    table = _assert_matches_unique_inverse(Dataset({"X": x, "Xep": xep, "Y": y}))
    assert table.xep_support[-1] == 7.0
    assert table.cell(7.0, x[-1], 0.0) == 1.0
    assert table.y_support[0] == 0.0 and not np.signbit(table.y_support).any()


def _tall_table2_world(n, seed):
    """Reference: the table2 world as three tall draws, one ``sample`` call
    per column, Y = 0.1 X + 0.1 W and Xep = X + U in that order."""

    def draw(tag, lo, hi):
        return sample(DistributionSpec.rounded_uniform(lo, hi), StreamKey(seed, 0, tag), n)

    x = draw(ColumnTag.X, 8, 10)
    y = 0.1 * x
    y += 0.1 * draw(ColumnTag.W, -1, 1)
    return Dataset({"X": x, "Xep": draw(ColumnTag.U, -1, 1) + x, "Y": y})


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize(
    "n", [1, 12, 1000, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 70_000, 200_000, 10**6]
)
def test_the_table2_stream_tabulates_as_its_tall_world(n, seed):
    world = _tall_table2_world(n, seed)
    concatenated = generate_table2_world(n, seed)
    assert concatenated.names == world.names == ["X", "Xep", "Y"]
    for name in world.names:
        assert concatenated[name].tobytes() == world[name].tobytes(), name
    streamed = empirical_table(table2_blocks(n, seed))
    tall = empirical_table(world)
    # bytes, so the supports' sign bits count too
    for field in ("xep_support", "x_support", "y_support", "counts", "probs"):
        got, want = getattr(streamed, field), getattr(tall, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field
    ev, xv, yv, counts = _unique_inverse_table(world)
    np.testing.assert_array_equal(streamed.counts, counts)
    np.testing.assert_array_equal(streamed.xep_support, ev)


def _cut(columns, rows):
    """The columns as a stream of blocks of ``rows`` rows."""
    n = len(columns["X"])
    return ({c: v[i : i + rows] for c, v in columns.items()} for i in range(0, n, rows))


SOURCES = {
    "dataset": Dataset,
    "small_blocks": lambda columns: _cut(columns, 1000),
    "large_blocks": lambda columns: _cut(columns, 2 * BLOCK_ROWS + 1),
}


def _late_columns(first, later):
    """Discrete columns over 3 * BLOCK_ROWS + 5 rows where ``first`` has
    MAX_SUPPORT + 20 distinct values from the first block on, and ``later``
    MAX_SUPPORT + 55 of which MAX_SUPPORT + 50 appear only in the last
    BLOCK_ROWS rows."""
    n = 3 * BLOCK_ROWS + 5
    i = np.arange(n)
    columns = {"X": i % 3 * 1.0, "Xep": i % 5 * 0.5, "Y": i % 2 * 0.25}
    if first:
        columns[first] = i % (MAX_SUPPORT + 20) * 0.5
    if later:
        tail = i >= 2 * BLOCK_ROWS + 5
        columns[later] = np.where(tail, 100.0 + i % (MAX_SUPPORT + 50) * 0.5, i % 5 * 1.0)
    return columns


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("column", ["X", "Xep", "Y"])
def test_a_support_that_passes_max_support_late_reports_its_full_count(source, column):
    with pytest.raises(
        DiscretenessError, match=f"^column {column} has {MAX_SUPPORT + 55} distinct values"
    ):
        empirical_table(SOURCES[source](_late_columns(None, column)))


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("first, later", [("Xep", "X"), ("Y", "X"), ("Y", "Xep")])
def test_the_earlier_column_is_named_though_a_later_one_passes_first(source, first, later):
    # ``first`` passes MAX_SUPPORT in the first block, ``later`` only in the
    # last; X is named before Xep, Xep before Y, as a whole-column check does
    with pytest.raises(
        DiscretenessError, match=f"^column {later} has {MAX_SUPPORT + 55} distinct values"
    ):
        empirical_table(SOURCES[source](_late_columns(first, later)))


def test_an_empty_dataset_gives_an_empty_table():
    table = empirical_table(Dataset({c: np.empty(0) for c in ("X", "Xep", "Y")}))
    assert table.counts.shape == table.probs.shape == (0, 0, 0)
    assert table.counts.dtype == np.int64 and table.probs.dtype == np.float64
    for support in (table.xep_support, table.x_support, table.y_support):
        assert support.shape == (0,) and support.dtype == np.float64


def test_every_column_at_max_support_reaches_the_top_index_and_code():
    i = np.arange(MAX_SUPPORT * MAX_SUPPORT)
    ds = Dataset({
        "X": i // MAX_SUPPORT * 0.5 - 20.0,
        "Xep": i % MAX_SUPPORT * 0.25,
        "Y": i // MAX_SUPPORT * 0.1 + 3.0,
    })
    table = _assert_matches_unique_inverse(ds)
    assert table.counts.shape == (MAX_SUPPORT,) * 3
    # the last row sits at index MAX_SUPPORT - 1 in every column, so it lands
    # in the largest cell code, MAX_SUPPORT**3 - 1
    assert table.counts.ravel()[-1] == 1


def test_support_indices_fit_uint8():
    assert MAX_SUPPORT - 1 <= np.iinfo(np.uint8).max, (
        "empirical_table counts support indices in uint8; MAX_SUPPORT above 256 would wrap them"
    )


@pytest.mark.parametrize("order", ["sorted", "reverse_sorted", "shuffled"])
def test_empirical_table_does_not_depend_on_row_order(order):
    rng = np.random.default_rng(3)
    n = 4000
    cols = _odd_discrete_columns(rng, n)
    for x, xep, y in [(cols[0], cols[1], cols[2]), (cols[2], cols[0], cols[1])]:
        base = empirical_table(Dataset({"X": x, "Xep": xep, "Y": y}))
        # sorted by each column in turn, the others breaking ties
        for keys in ((y, xep, x), (x, y, xep), (xep, x, y)):
            rows = {
                "sorted": np.lexsort(keys),
                "reverse_sorted": np.lexsort(keys)[::-1],
                "shuffled": rng.permutation(n),
            }[order]
            table = _assert_matches_unique_inverse(
                Dataset({"X": x[rows], "Xep": xep[rows], "Y": y[rows]})
            )
            assert table.counts.tobytes() == base.counts.tobytes()
            assert table.probs.tobytes() == base.probs.tobytes()


def _tabulation_peak(ds):
    tracemalloc.start()
    try:
        empirical_table(ds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_empirical_table_peak_memory_is_fixed_by_the_block():
    # one block's keyed values, sorted copy, masks, uint8 indices and intp
    # codes, whatever the row count; one keyed column, its sorted copy and
    # an intp code array as long as the table read about 20 MiB at 10^6 rows
    peaks = [
        _tabulation_peak(generate_table2_world(n, 5))
        for n in (8 * BLOCK_ROWS, 16 * BLOCK_ROWS, 10**6)
    ]
    assert max(peaks) < 4 * 2**20, [f"{p / 2**20:.2f} MiB" for p in peaks]
    assert max(peaks) - min(peaks) < 2**18, peaks


def _report_peak(n):
    tracemalloc.start()
    try:
        reproduce("table2", n=n, seed=5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table2_report_peak_memory_is_flat_in_n():
    # the world is drawn and tabulated a block at a time: no column as long
    # as the world exists; a first call also pays for one-time imports
    reproduce("table2", n=12, seed=5)
    peaks = [_report_peak(n) for n in (8 * BLOCK_ROWS, 16 * BLOCK_ROWS, 10**6)]
    assert max(peaks) - min(peaks) < 2**18, peaks
    assert max(peaks) < 8 * 10**6, [f"{p / 2**20:.2f} MiB" for p in peaks]


def test_table2_world_peak_memory_per_row():
    n = 10**6
    tracemalloc.start()
    try:
        generate_table2_world(n, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # under four tall float64 columns for the three it returns: W is dropped
    # before U is drawn, and Xep is added into U's own buffer
    assert peak / n < 32, f"{peak / n:.1f} bytes per row"


@pytest.mark.parametrize("column", ["X", "Xep", "Y"])
def test_support_over_max_support_is_not_discrete(column):
    n = 5 * MAX_SUPPORT
    base = {c: np.zeros(n) for c in ("X", "Xep", "Y")}
    base[column] = np.arange(n) % MAX_SUPPORT * 0.25
    assert empirical_table(Dataset(base)).probs.size == MAX_SUPPORT
    base[column] = np.arange(n) % (MAX_SUPPORT + 1) * 0.25
    with pytest.raises(DiscretenessError, match=f"column {column} has {MAX_SUPPORT + 1} distinct"):
        empirical_table(Dataset(base))


def test_a_support_holds_its_zero_as_positive_zero():
    # -1e-10 keys to -0.0; each order puts a different signed zero first
    signed_zeros = ([-0.0, 0.0], [0.0, -0.0], [-1e-10, 0.0], [-0.0], [-1e-10])
    for zeros in signed_zeros:
        column = np.array([*zeros, 1.0, *zeros])
        table = empirical_table(Dataset({"X": column, "Xep": column[::-1], "Y": column}))
        for support in (table.xep_support, table.x_support, table.y_support):
            assert support.tolist() == [0.0, 1.0] and not np.signbit(support).any(), zeros
        assert table.cell(-0.0, -1e-10, 0.0) == table.cell(0.0, 0.0, 0.0) > 0
    # Y = X - 1e-10 keys to -0.0 at X = 0, so the outcome's support meets it too
    outcome = OutcomeModel(link=Link.IDENTITY, beta0=-1e-10, beta_x=1.0,
                           noise=DistributionSpec.point_mass(0.0))
    error = ErrorModel(kind=ErrorKind.PURE_BERKSON, noiseU=DistributionSpec.point_mass(0.0))
    for zeros in signed_zeros:
        table = analytic_product_table(
            outcome, error, DistributionSpec.point_mass(1.0), xep_support=[*zeros, 1.0],
            x_support=[1.0, *zeros],
        )
        for support in (table.xep_support, table.x_support, table.y_support):
            assert support.tolist() == [0.0, 1.0] and not np.signbit(support).any(), zeros


# ---------------------------------------------------------------------------
# Analytic product mode


def test_product_table_matches_enumeration():
    table = analytic_product_table(
        TABLE2_OUTCOME, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[7, 8, 9, 10, 11]
    )
    assert table.mode is TableMode.ANALYTIC
    assert table.counts is None
    # cell(9, 8, 0.7) = P(Y(8)=0.7) * P(Y(Xep=9)=0.7) = (1/4) * (1/24) = 1/96
    assert table.cell(9, 8, 0.7) == pytest.approx(1 / 96, abs=1e-12)
    for xep in (7, 9, 11):
        for x in (8, 9, 10):
            for y10 in (x - 1, x, x + 1):
                want = float(oracle.product_cell(xep, x, y10))
                assert table.cell(xep, x, y10 / 10) == pytest.approx(want, abs=1e-12)
    # rows() lists exactly the oracle's cells with mass, sorted, each at its value
    positive = {
        (xep, x, y10): p
        for xep in range(7, 12)
        for x in (8, 9, 10)
        for y10 in range(7, 12)
        if (p := oracle.product_cell(xep, x, y10)) > 0
    }
    rows = list(table.rows())
    assert [r[:3] for r in rows] == sorted(r[:3] for r in rows)
    keys = [(round(xep), round(x), round(10 * y)) for xep, x, y, _ in rows]
    assert len(set(keys)) == len(rows) == len(positive)
    assert set(keys) == positive.keys()
    for xep, x, y, p in rows:
        want = positive[(round(xep), round(x), round(10 * y))]
        assert p > 0 and p == pytest.approx(float(want), abs=1e-12)


def test_product_table_differs_from_conditional_joint():
    table = analytic_product_table(
        TABLE2_OUTCOME, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[9]
    )
    # the two estimators answer different questions: 1/96 vs 1/24
    assert table.cell(9, 8, 0.7) != pytest.approx(float(oracle.conditional_joint_cells()[(9, 8, 7)]))


def test_point_mass_error_gives_squared_structure():
    error = ErrorModel(kind=ErrorKind.PURE_BERKSON, noiseU=DistributionSpec.point_mass(0.0))
    table = analytic_product_table(TABLE2_OUTCOME, error, X_MARGINAL, xep_support=[8, 9, 10])
    for xep in (8, 9, 10):
        # diagonal dominance: the x = xep cell is the square of the outcome law
        p_diag = table.cell(xep, xep, 0.1 * xep)
        assert p_diag == pytest.approx(0.5**2, abs=1e-12)
        for x in (8, 9, 10):
            assert table.cell(xep, x, 0.1 * xep) <= p_diag + 1e-12


def test_binary_null_effect_constant_in_x():
    outcome = OutcomeModel(link=Link.LOGIT, beta0=-1.0, beta_x=0.0,
                           noise=DistributionSpec.normal(0, 1))
    table = analytic_product_table(
        outcome, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[9]
    )
    vals = [table.cell(9, x, 1.0) for x in (8, 9, 10)]
    assert max(vals) - min(vals) < 1e-12


def test_binary_quadrature_against_monte_carlo():
    outcome = OutcomeModel(link=Link.LOGIT, beta0=-2.0, beta_x=0.4,
                           noise=DistributionSpec.normal(0, 1))
    error = ErrorModel(kind=ErrorKind.PURE_BERKSON,
                       noiseU=DistributionSpec.normal(0, 0.5))
    table = analytic_product_table(
        outcome, error, DistributionSpec.normal(0, 1),
        xep_support=[0.0], x_support=[0.0, 1.0],
    )
    rng = np.random.default_rng(99)
    n = 2_000_000
    # P(Y(x=1)=1): integral over W only
    p_true = np.mean(1 / (1 + np.exp(-(-2.0 + 0.4 * 1.0 + rng.normal(0, 1, n)))))
    # P(Y(xep=0)=1): X = 0 + U
    x = rng.normal(0, 0.5, n)
    p_meas = np.mean(1 / (1 + np.exp(-(-2.0 + 0.4 * x + rng.normal(0, 1, n)))))
    assert table.cell(0.0, 1.0, 1.0) == pytest.approx(p_true * p_meas, abs=0.002)
    # supports are sorted and de-duplicated, so their given order is immaterial
    reordered = analytic_product_table(
        outcome, error, DistributionSpec.normal(0, 1),
        xep_support=[0.0, 0.0], x_support=[1.0, 0.0],
    )
    assert list(reordered.rows()) == list(table.rows())


@pytest.mark.parametrize("outcome", [
    TABLE2_OUTCOME,
    OutcomeModel(link=Link.LOGIT, beta0=-1.0, beta_x=0.1, noise=DistributionSpec.normal(0, 1)),
], ids=["identity", "logit"])
def test_an_empty_xep_support_gives_an_empty_table(outcome):
    # as an empty dataset gives an empty empirical table: the x and y
    # supports are those of a table with an xep support
    table = analytic_product_table(outcome, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[])
    full = analytic_product_table(outcome, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[9])
    shape = (0, full.x_support.size, full.y_support.size)
    assert table.probs.shape == shape and table.probs.dtype == np.float64
    assert table.xep_support.shape == (0,) and table.xep_support.dtype == np.float64
    np.testing.assert_array_equal(table.x_support, full.x_support)
    np.testing.assert_array_equal(table.y_support, full.y_support)
    assert list(table.rows()) == []


def test_unsupported_combinations_raise():
    with pytest.raises(CapabilityError):
        analytic_product_table(
            OutcomeModel(link=Link.IDENTITY, beta_x=1.0, noise=DistributionSpec.normal(0, 1)),
            CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[9],
        )
    with pytest.raises(CapabilityError):
        analytic_product_table(
            TABLE2_OUTCOME,
            ErrorModel(kind=ErrorKind.NONE),
            X_MARGINAL,
            xep_support=[9],
        )
    with pytest.raises(CapabilityError):
        analytic_product_table(
            OutcomeModel(link=Link.LOG, beta_x=0.1, noise=DistributionSpec.point_mass(0)),
            CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[9],
        )


def test_a_discrete_law_gets_the_quadrature_budget_of_cells():
    # roundedUniform(0, k - 1) has the k cells 0, 1, ..., k - 1
    def with_noise(hi):
        error = ErrorModel(kind=ErrorKind.NON_BERKSON_LINEAR, gamma1=1.0,
                           noiseU=DistributionSpec.rounded_uniform(0, hi))
        return analytic_product_table(TABLE2_OUTCOME, error, X_MARGINAL, xep_support=[9])

    # Xep = 9 leaves X = 9 - U at U = 0 and at U = 1, with equal weight
    table = with_noise(QUAD_NODES - 1)
    assert table.x_support.tolist() == [8.0, 9.0, 10.0]
    assert table.slice_sum(9) > 0
    with pytest.raises(
        CapabilityError,
        match=rf"^roundedUniform\(0\.0, {QUAD_NODES}\.0\) has {QUAD_NODES + 1} support points; "
        rf"analytic mode enumerates at most {QUAD_NODES}, the nodes a continuous law gets$",
    ):
        with_noise(QUAD_NODES)


@pytest.mark.parametrize("role", ["noiseU", "x_marginal"])
def test_a_wide_law_is_rejected_before_its_cells_are_made(role):
    # 2e18 + 1 cells: enumerating them died in numpy with "array is too big"
    wide = DistributionSpec.rounded_uniform(-1e18, 1e18)
    error, x_marginal = CLASSICAL_UNIT_ERROR, X_MARGINAL
    if role == "noiseU":
        error = ErrorModel(kind=ErrorKind.NON_BERKSON_LINEAR, gamma1=1.0, noiseU=wide)
    else:
        x_marginal = wide
    with pytest.raises(CapabilityError, match=r"^roundedUniform\(-1e\+18, 1e\+18\) has 2000000000000000001 "):
        analytic_product_table(TABLE2_OUTCOME, error, x_marginal, xep_support=[7, 8, 9])


_LOGIT_OUTCOME = OutcomeModel(link=Link.LOGIT, beta0=-1.0, beta_x=0.1,
                              noise=DistributionSpec.normal(0, 1))
_NORMAL_ERROR = ErrorModel(kind=ErrorKind.NON_BERKSON_LINEAR, gamma1=1.0,
                           noiseU=DistributionSpec.normal(0, 0.5))
_NORMAL_X = DistributionSpec.normal(9, 1)


@pytest.mark.parametrize(
    "outcome, error, x_marginal, message",
    [
        (_LOGIT_OUTCOME, _NORMAL_ERROR, DistributionSpec.gamma(-1, 1),
         "x_marginal: gamma shape must be > 0"),
        (_LOGIT_OUTCOME, replace(_NORMAL_ERROR, noiseU=DistributionSpec.normal(0, -0.5)),
         _NORMAL_X, "error.noiseU: normal sigma must be >= 0"),
        (_LOGIT_OUTCOME, replace(_NORMAL_ERROR, gamma1=0.0), _NORMAL_X,
         "error.gamma1 must be nonzero"),
        (replace(_LOGIT_OUTCOME, beta_x=math.inf), _NORMAL_ERROR, _NORMAL_X,
         "outcome.beta_x must be finite, got inf"),
    ],
    ids=["x_marginal", "noiseU", "gamma1", "beta_x"],
)
def test_an_invalid_model_is_one_parameter_error_before_any_integral(
    outcome, error, x_marginal, message
):
    # each died in an integral (a bare math domain error, a zero-density
    # SupportError, a divide-by-zero warning) or, at an infinite slope, gave a table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            analytic_product_table(outcome, error, x_marginal, xep_support=[8, 9],
                                   x_support=[8, 9, 10])
        # valid models give a table, and their noise need not be centred
        shifted = replace(_NORMAL_ERROR, noiseU=DistributionSpec.normal(0.3, 0.5))
        analytic_product_table(_LOGIT_OUTCOME, shifted, _NORMAL_X, xep_support=[8, 9],
                               x_support=[8, 9, 10])


def test_continuous_exposure_needs_x_support():
    with pytest.raises(CapabilityError, match="x_support is required for continuous exposure"):
        analytic_product_table(
            TABLE2_OUTCOME, CLASSICAL_UNIT_ERROR, DistributionSpec.normal(9, 1), xep_support=[9]
        )


@pytest.mark.parametrize(
    "supports, message",
    [
        (dict(xep_support=[8.0, float("nan")]), "xep_support must be finite, got nan"),
        (dict(xep_support=[9.0], x_support=[float("nan"), 9.0]), "x_support must be finite, got nan"),
        (dict(xep_support=[float("-inf")]), "xep_support must be finite, got -inf"),
    ],
)
def test_a_non_finite_support_point_is_rejected(supports, message):
    # before any quadrature: a NaN would be a point of zero mass, or a
    # "zero density" measured value
    with pytest.raises(ParameterError, match=f"^{message}$"):
        analytic_product_table(TABLE2_OUTCOME, CLASSICAL_UNIT_ERROR, X_MARGINAL, **supports)


def test_measured_value_with_zero_density_raises():
    # Xep = X exactly, and X lives on {8, 9, 10}: no X reaches Xep = 20
    error = ErrorModel(kind=ErrorKind.NON_BERKSON_LINEAR, gamma1=1.0,
                       noiseU=DistributionSpec.point_mass(0.0))
    with pytest.raises(SupportError, match="Xep = 20.0 has zero density under the error model"):
        analytic_product_table(TABLE2_OUTCOME, error, X_MARGINAL, xep_support=[20])


def _degenerate_normal_cases(zero):
    """(outcome, error, x_marginal) triples with one law set to ``zero(mu)``."""
    unit = DistributionSpec.rounded_uniform(-1, 1)
    outcome = OutcomeModel(link=Link.IDENTITY, beta_x=0.1, noise=zero(0.0), noise_scale=0.1)
    berkson = ErrorModel(kind=ErrorKind.PURE_BERKSON, noiseU=zero(0.0))
    classical = ErrorModel(kind=ErrorKind.NON_BERKSON_LINEAR, gamma1=1.0, noiseU=zero(0.0))
    return {
        "classical_error": (TABLE2_OUTCOME, classical, X_MARGINAL),
        "berkson_error": (TABLE2_OUTCOME, berkson, X_MARGINAL),
        "outcome_noise": (outcome, CLASSICAL_UNIT_ERROR, X_MARGINAL),
        "x_marginal": (TABLE2_OUTCOME, ErrorModel(kind=ErrorKind.NON_BERKSON_LINEAR,
                                                  gamma1=1.0, noiseU=unit), zero(9.0)),
    }


@pytest.mark.parametrize("case", ["classical_error", "berkson_error", "outcome_noise", "x_marginal"])
def test_zero_variance_normal_is_its_point_mass(case):
    # normal(mu, 0) passes scenario validation; every branch treats it as
    # pointMass(mu), so the two tables hold the same bytes
    got, want = (
        analytic_product_table(
            *_degenerate_normal_cases(zero)[case], xep_support=[8, 9, 10], x_support=[8, 9, 10]
        )
        for zero in (lambda mu: DistributionSpec.normal(mu, 0.0), DistributionSpec.point_mass)
    )
    for support in ("xep_support", "x_support", "y_support"):
        assert getattr(got, support).tobytes() == getattr(want, support).tobytes()
    assert got.probs.tobytes() == want.probs.tobytes()
    assert got.probs.sum() > 0


def test_continuous_exposure_with_discrete_error_against_direct_sum():
    # X ~ N(9, 1) and Xep = X + U with the three-point U: X | Xep = e sits on
    # the points e - u, weighted by f_X(e - u) P(U = u)
    outcome = OutcomeModel(link=Link.LOGIT, beta0=-1.3, beta_x=0.25,
                           noise=DistributionSpec.rounded_uniform(-1, 1), noise_scale=0.7)
    x_law = DistributionSpec.normal(9, 1)
    xeps, xs = [7.5, 9.0, 11.25], [8.0, 9.0, 10.0]
    table = analytic_product_table(
        outcome, CLASSICAL_UNIT_ERROR, x_law, xep_support=xeps, x_support=xs
    )
    three_point = {-1: 0.25, 0: 0.5, 1: 0.25}

    def p1(x):
        return sum(p * _sigmoid(-1.3 + 0.25 * x + 0.7 * w) for w, p in three_point.items())

    def f_x(x):
        return math.exp(-0.5 * (x - 9.0) ** 2) / math.sqrt(2 * math.pi)

    for e in xeps:
        joint = {e - u: f_x(e - u) * p for u, p in three_point.items()}
        p_meas = sum(p * p1(x) for x, p in joint.items()) / sum(joint.values())
        for x in xs:
            assert table.cell(e, x, 1.0) == pytest.approx(p1(x) * p_meas, abs=1e-14)
            assert table.cell(e, x, 0.0) == pytest.approx((1 - p1(x)) * (1 - p_meas), abs=1e-14)


def test_analytic_mode_rejects_gamma_v_and_kind_none():
    for kind in (ErrorKind.NON_BERKSON_LINEAR, ErrorKind.PURE_BERKSON):
        error = ErrorModel(kind=kind, gammaV=0.23, noiseU=DistributionSpec.rounded_uniform(-1, 1))
        with pytest.raises(CapabilityError, match="gammaV = 0.23; fold gammaV"):
            analytic_product_table(TABLE2_OUTCOME, error, X_MARGINAL, xep_support=[9])
    with pytest.raises(CapabilityError, match="got none"):
        analytic_product_table(TABLE2_OUTCOME, ErrorModel(), X_MARGINAL, xep_support=[9])


def test_shared_v_without_loading_is_non_berkson():
    shared = ErrorModel(
        kind=ErrorKind.SHARED_V, gamma1=1.0, noiseU=DistributionSpec.rounded_uniform(-1, 1)
    )
    xeps = [7, 8, 9, 10, 11]
    got = analytic_product_table(TABLE2_OUTCOME, shared, X_MARGINAL, xep_support=xeps)
    want = analytic_product_table(TABLE2_OUTCOME, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=xeps)
    assert list(got.rows()) == list(want.rows())


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def test_logit_normal_classical_error_against_gauss_hermite():
    # X ~ N(mx, sx^2), Xep = g0 + g1 X + U with U ~ N(0, su^2): X | Xep = e is
    # normal (conjugate), so P(Y(e) = 1) is one Gaussian integral over
    # b0 + bx X + W, done here by Gauss-Hermite
    mx, sx, g0, g1, su, b0, bx, sw = 9.0, 1.0, 0.1, 0.9, 0.8, -2.0, 0.4, 1.0
    outcome = OutcomeModel(link=Link.LOGIT, beta0=b0, beta_x=bx,
                           noise=DistributionSpec.normal(0, sw))
    error = ErrorModel(kind=ErrorKind.NON_BERKSON_LINEAR, gamma0=g0, gamma1=g1,
                       noiseU=DistributionSpec.normal(0, su))
    xeps, xs = [8.0, 9.0, 10.5], [7.5, 9.0, 10.0]
    table = analytic_product_table(
        outcome, error, DistributionSpec.normal(mx, sx), xep_support=xeps, x_support=xs
    )
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / weights.sum()

    def p1(mean, sd):
        return float(weights @ _sigmoid(mean + sd * nodes))

    var_cond = 1.0 / (1.0 / sx**2 + g1**2 / su**2)
    for e in xeps:
        m = var_cond * (mx / sx**2 + g1 * (e - g0) / su**2)
        p_meas = p1(b0 + bx * m, np.sqrt(bx**2 * var_cond + sw**2))
        for x in xs:
            p_true = p1(b0 + bx * x, sw)
            assert table.cell(e, x, 1.0) == pytest.approx(p_true * p_meas, abs=1e-10)
            assert table.cell(e, x, 0.0) == pytest.approx((1 - p_true) * (1 - p_meas), abs=1e-10)


def test_logit_discrete_noise_against_hand_sum():
    outcome = OutcomeModel(link=Link.LOGIT, beta0=-1.3, beta_x=0.25,
                           noise=DistributionSpec.rounded_uniform(-1, 1), noise_scale=0.7)
    table = analytic_product_table(
        outcome, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[7, 8, 9, 10, 11]
    )
    three_point = {-1: 0.25, 0: 0.5, 1: 0.25}

    def p1(x):
        return sum(p * _sigmoid(-1.3 + 0.25 * x + 0.7 * w) for w, p in three_point.items())

    for e in (7, 8, 9, 10, 11):
        # X | Xep = e over X in {8, 9, 10} with U = e - X in {-1, 0, 1}
        joint = {x: three_point[x - 9] * three_point.get(e - x, 0.0) for x in (8, 9, 10)}
        p_meas = sum(p * p1(x) for x, p in joint.items()) / sum(joint.values())
        for x in (8, 9, 10):
            assert table.cell(e, x, 1.0) == pytest.approx(p1(x) * p_meas, abs=1e-14)
            assert table.cell(e, x, 0.0) == pytest.approx((1 - p1(x)) * (1 - p_meas), abs=1e-14)


def test_a_far_negative_logit_does_not_overflow():
    outcome = OutcomeModel(link=Link.LOGIT, beta0=-800.0, beta_x=0.25,
                           noise=DistributionSpec.rounded_uniform(-1, 1), noise_scale=0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = analytic_product_table(
            outcome, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[8, 9, 10]
        )
    # P(Y(x) = 1) is 0 for every x: the event cells are 0, the rest about 1
    assert np.all(table.probs[:, :, 1] == 0.0)
    np.testing.assert_allclose(table.probs[:, :, 0], 1.0, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# AEE from the table


def test_aee_matches_published_values(table2_table):
    est = aee_from_table(table2_table, 10, 9)
    assert est == pytest.approx(0.050104, abs=0.005)
    est_rc = aee_from_table(table2_table, 11, 9)
    assert est_rc == pytest.approx(0.099933, abs=0.005)


def test_aee_null_contrast_is_zero(table2_table):
    assert aee_from_table(table2_table, 9, 9) == 0.0


def test_aee_requires_support(table2_table):
    with pytest.raises(SupportError):
        aee_from_table(table2_table, 12, 9)


def test_aee_requires_empirical_mode():
    table = analytic_product_table(
        TABLE2_OUTCOME, CLASSICAL_UNIT_ERROR, X_MARGINAL, xep_support=[9, 10]
    )
    assert table.counts is None and table.mode is TableMode.ANALYTIC
    with pytest.raises(CapabilityError, match="needs the empirical conditional-joint mode"):
        aee_from_table(table, 10, 9)


def test_aee_no_error_world_recovers_beta1():
    x = sample(DistributionSpec.rounded_uniform(0, 4), StreamKey(21, 0, 11), 400_000)
    w = sample(DistributionSpec.rounded_uniform(-1, 1), StreamKey(21, 0, 9), 400_000)
    beta1 = 0.7
    ds = Dataset({"X": x, "Xep": x.copy(), "Y": beta1 * x + 0.5 * w})
    est = aee_from_table(empirical_table(ds), 3, 2)
    n_stratum = 400_000 / 5
    se = 0.5 * np.sqrt(0.5) * np.sqrt(2 / n_stratum)
    assert abs(est - beta1) < 4 * se


# ---------------------------------------------------------------------------
# Symmetry (the Berkson/non-Berkson split)


def test_pure_berkson_slice_is_symmetric():
    ds = three_point_world(400_000, 31, berkson=True)
    table = empirical_table(ds)
    ok, worst = symmetry_check(table, 9.0, tolerance=0.01)
    assert ok, worst


def test_classical_error_slice_is_asymmetric():
    # enumeration oracle: at xep = 8 the x-marginal over {8, 9, 10} is
    # (1/2, 1/2, 0), asymmetric around 8
    law = oracle.true_given_measured(8)
    assert law == {8: 0.5, 9: 0.5}
    ds = three_point_world(400_000, 32, berkson=False)
    table = empirical_table(ds)
    ok, worst = symmetry_check(table, 8.0, tolerance=0.01)
    assert not ok
    assert worst == pytest.approx(0.5, abs=0.01)


def test_point_mass_error_trivially_symmetric():
    x = sample(DistributionSpec.rounded_uniform(8, 10), StreamKey(33, 0, 11), 10_000)
    w = sample(DistributionSpec.rounded_uniform(-1, 1), StreamKey(33, 0, 9), 10_000)
    ds = Dataset({"X": x, "Xep": x.copy(), "Y": 0.1 * x + 0.1 * w})
    ok, worst = symmetry_check(empirical_table(ds), 9.0, tolerance=1e-9)
    assert ok
    assert worst == 0.0


def test_symmetry_requires_support(table2_table):
    with pytest.raises(SupportError):
        symmetry_check(table2_table, 6.0, 0.01)


# ---------------------------------------------------------------------------
# Error-structure behavior through the tables


def test_berkson_aee_unbiased():
    # pure Berkson, symmetric U and W: AEE(Xep) = beta1 * delta
    beta1 = 0.4
    reps = 10
    vals = []
    for rep in range(reps):
        base = sample(DistributionSpec.rounded_uniform(8, 10), StreamKey(60, rep, 11), 20_000)
        w = sample(DistributionSpec.rounded_uniform(-1, 1), StreamKey(60, rep, 9), 20_000)
        u = sample(DistributionSpec.rounded_uniform(-1, 1), StreamKey(60, rep, 10), 20_000)
        ds = Dataset({"X": base + u, "Xep": base, "Y": beta1 * (base + u) + beta1 * w})
        vals.append(aee_from_table(empirical_table(ds), 10, 9))
    vals = np.array(vals)
    mc_se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - beta1) < 4 * mc_se


def test_classical_aee_attenuated():
    # classical error: AEE(Xep)/(beta1 delta) = lambda = Var(X)/(Var(X)+Var(U))
    beta1 = 0.8
    lam = 0.5 / (0.5 + 0.5)
    reps = 10
    vals = []
    for rep in range(reps):
        ds = three_point_world(50_000, 600 + rep, beta1=beta1)
        vals.append(aee_from_table(empirical_table(ds), 10, 9))
    ratio = np.mean(vals) / beta1
    assert ratio == pytest.approx(lam, abs=0.02)
    assert ratio < 1.0
