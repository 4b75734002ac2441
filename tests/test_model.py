import math
import re
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from peclab.errors import ParameterError, ScenarioFormatError, SchemaError
from peclab.exchprob import _trapezoid_weights
from peclab.model import (
    Dataset,
    DistributionSpec,
    ErrorKind,
    ErrorModel,
    Link,
    OutcomeModel,
    Scenario,
    StructuralSpec,
    format_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    validate_scenario,
)
from peclab.rng import StreamKey, sample
from peclab import worlds
from peclab.harness import STUDY_TABLES


# ---------------------------------------------------------------------------
# DistributionSpec


def test_rounded_uniform_three_point_law():
    spec = DistributionSpec.rounded_uniform(-1, 1)
    values, probs = spec.support()
    assert values.tolist() == [-1.0, 0.0, 1.0]
    assert probs.tolist() == [0.25, 0.5, 0.25]
    assert spec.mean() == 0.0
    assert spec.variance() == 0.5


def test_rounded_uniform_non_integer_endpoints():
    spec = DistributionSpec.rounded_uniform(0.25, 1.75)
    values, probs = spec.support()
    assert values.tolist() == [0.0, 1.0, 2.0]
    np.testing.assert_allclose(probs, [0.25 / 1.5, 1.0 / 1.5, 0.25 / 1.5])
    np.testing.assert_allclose(probs.sum(), 1.0)


@pytest.mark.parametrize("lo", [-3.0, -2.5, -0.5, 0.0, 0.3, 7.7, 1234.25, -9999.5])
@pytest.mark.parametrize("width", [0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 99.5, 1e4])
def test_rounded_uniform_closed_form_moments_match_the_enumeration(lo, width):
    # integer, half-integer and fractional endpoints, widths up to 10^4
    spec = DistributionSpec.rounded_uniform(lo, lo + width)
    values, probs = spec.support()
    mean = float(values @ probs)
    variance = float((values - mean) ** 2 @ probs)
    scale = max(1.0, abs(lo), abs(lo + width))
    assert abs(spec.mean() - mean) <= 1e-12 * scale
    assert abs(spec.variance() - variance) <= 1e-12 * scale**2


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1e300))
def test_a_symmetric_rounded_uniform_has_mean_exactly_zero(hi):
    # validation allows |mean| <= 1e-9, so a cancellation error scaled by a
    # wide law's endpoints would reject a valid law
    assert DistributionSpec.rounded_uniform(-hi, hi).mean() == 0.0


def test_an_unknown_family_is_reported():
    assert DistributionSpec("cauchy", 0.0, 1.0).violations() == ["unknown distribution family 'cauchy'"]


@pytest.mark.parametrize(
    "spec, cells",
    [
        (DistributionSpec.rounded_uniform(-1, 1), 3),
        (DistributionSpec.rounded_uniform(0.25, 1.75), 3),
        (DistributionSpec.rounded_uniform(0.5, 1.5), 1),
        (DistributionSpec.rounded_uniform(-2.5, 7.7), 11),
        (DistributionSpec.point_mass(3.25), 1),
        (DistributionSpec.normal(2.0, 0.0), 1),
    ],
)
def test_cells_count_the_support_points(spec, cells):
    assert spec.cells() == cells == spec.support()[0].size


def test_an_end_just_below_a_half_integer_keeps_its_cell():
    # lo + 0.5 rounds up to 1.0 in floats, yet every draw rounds to 0
    spec = DistributionSpec.rounded_uniform(math.nextafter(0.5, 0.0), 0.5)
    values, probs = spec.support()
    assert (values.tolist(), probs.tolist()) == ([0.0], [1.0])
    assert (spec.cells(), spec.mean(), spec.variance()) == (1, 0.0, 0.0)


def _per_cell_support(lo, hi):
    """Reference: every integer cell [k - 0.5, k + 0.5] near (lo, hi), each
    with its own overlap width, then the cells with mass."""
    ks = np.arange(math.floor(lo) - 1, math.ceil(hi) + 2, dtype=float)
    width = np.minimum(hi, ks + 0.5) - np.maximum(lo, ks - 0.5)
    probs = np.clip(width, 0.0, None) / (hi - lo)
    keep = probs > 0
    return ks[keep], probs[keep]


# an end anywhere, or at, one ulp below or one ulp above a half-integer
_rounded_end = st.one_of(
    st.floats(-1e4, 1e4),
    st.builds(
        lambda k, step: math.nextafter(k + 0.5, step * math.inf) if step else k + 0.5,
        st.integers(-1000, 1000), st.sampled_from([-1, 0, 1]),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_rounded_end, st.one_of(_rounded_end, st.floats(0.0, 1.5)), st.booleans())
@example(2.4999999999999996, 3.5000000000000004, False)
@example(math.nextafter(0.5, 0.0), 0.5, False)
@example(-0.5, 0.5, False)
@example(0.6, 0.3, True)
def test_rounded_uniform_support_is_the_per_cell_width_formula(lo, hi_or_width, is_width):
    # the end-cell rule (wl, 1, ..., 1, wh) / (hi - lo), bit for bit; a
    # short width puts most laws in a single cell
    hi = lo + hi_or_width if is_width else hi_or_width
    assume(lo < hi)
    spec = DistributionSpec.rounded_uniform(lo, hi)
    values, probs = spec.support()
    want_values, want_probs = _per_cell_support(lo, hi)
    assert values.tobytes() == want_values.tobytes()
    assert probs.tobytes() == want_probs.tobytes()
    assert spec.cells() == values.size


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(0, 0.2, 0.7)
def test_a_single_cell_rounded_uniform_has_its_cell_as_mean_and_no_variance(k, a, b):
    lo = float(Fraction(k) - Fraction(1, 2) + Fraction(min(a, b)))
    hi = float(Fraction(k) - Fraction(1, 2) + Fraction(max(a, b)))
    spec = DistributionSpec.rounded_uniform(lo, hi)
    assume(lo < hi and spec.cells() == 1)
    # repr tells -0.0 from 0.0
    assert repr((spec.mean(), spec.variance())) == repr((float(spec.support()[0][0]), 0.0))


def test_a_rounded_uniform_wider_than_a_float_is_rejected():
    # its draw's u * (hi - lo) would be infinite, and its moments overflow
    wide = DistributionSpec.rounded_uniform(-1.7e308, 1.7e308)
    assert wide.violations() == ["roundedUniform requires hi - lo to be finite"]
    s = worlds.table3_scenario(1)
    assert validate_scenario(replace(s, outcome=replace(s.outcome, noise=wide))) == [
        "outcome.noise: roundedUniform requires hi - lo to be finite"
    ]
    # the widest law whose width is a float
    assert not DistributionSpec.rounded_uniform(-8.9e307, 8.9e307).violations()


def test_a_continuous_law_has_no_support():
    with pytest.raises(ParameterError, match="^gamma has no discrete support$"):
        DistributionSpec.gamma(2.0, 1.0).support()


@pytest.mark.parametrize(
    "spec, message",
    [
        (DistributionSpec.normal(1.0, 0.0), "degenerate normal has no density"),
        (DistributionSpec.rounded_uniform(-1, 1), "roundedUniform is not a continuous family"),
    ],
)
def test_a_discrete_law_has_no_density(spec, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        spec.density(np.zeros(3))


def test_no_quadratic_term_is_formed_when_beta_x2_is_zero():
    # 0 * x^2 would be 0 * inf = NaN, with an overflow warning, at x = 1e160
    outcome = OutcomeModel(beta0=1.0, beta_x=2.0, beta_c=0.5)
    x = np.array([1e160, -3.0, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = outcome.linear_predictor(x, c=np.ones(3))
    np.testing.assert_array_equal(lp, 1.0 + 2.0 * x + 0.5)
    quadratic = replace(outcome, beta_x2=-0.5)
    np.testing.assert_array_equal(
        quadratic.linear_predictor(x[1:], c=np.ones(2)), 1.0 + 2.0 * x[1:] - 0.5 * x[1:] ** 2 + 0.5
    )


def test_a_wide_rounded_uniform_noise_validates():
    # its 2e18 + 1 cells are never enumerated
    s = worlds.table3_scenario(1)
    wide = DistributionSpec.rounded_uniform(-1e18, 1e18)
    assert validate_scenario(replace(s, outcome=replace(s.outcome, noise=wide))) == []
    assert wide.variance() == pytest.approx(4e36 / 12, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec.normal(0.7, 1.3),
        DistributionSpec.gamma(1.0, 1.0),
        DistributionSpec.gamma(2.0, 1.0),
        DistributionSpec.rounded_uniform(8, 10),
        DistributionSpec.point_mass(3.25),
    ],
)
def test_moments_match_samples_within_four_se(spec):
    n = 1_000_000
    draws = sample(spec, StreamKey(20_250_809, 0, 1), n)
    mean, var = spec.mean(), spec.variance()
    se_mean = math.sqrt(var / n) if var > 0 else 0.0
    assert abs(draws.mean() - mean) <= 4 * se_mean + 1e-12
    if var > 0:
        # SE of the sample variance via the fourth moment, estimated once
        m4 = np.mean((draws - draws.mean()) ** 4)
        se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
        assert abs(draws.var() - var) <= 4 * se_var


def test_invalid_parameters_reported():
    assert DistributionSpec.normal(0, -1).violations()
    assert DistributionSpec.gamma(0, 1).violations()
    assert DistributionSpec.gamma(1, 0).violations()
    assert DistributionSpec.rounded_uniform(2, 2).violations()
    assert not DistributionSpec.point_mass(0.0).violations()
    with pytest.raises(ParameterError):
        DistributionSpec.gamma(-1, 1).check()
    s = worlds.table3_scenario(1)
    for bad in (math.inf, -math.inf, math.nan):
        assert DistributionSpec.point_mass(bad).violations() == [
            f"parameters must be finite, got pointMass({bad!r})"
        ]
        assert DistributionSpec.rounded_uniform(0, bad).violations() == [
            f"parameters must be finite, got roundedUniform(0.0, {bad!r})"
        ]
        scenario = replace(
            s,
            outcome=replace(s.outcome, beta_x=bad),
            x_model=replace(s.x_model, noise=DistributionSpec.normal(0.0, bad)),
            v_model=DistributionSpec.gamma(bad, 1.0),
        )
        assert validate_scenario(scenario) == [
            f"outcome.beta_x must be finite, got {bad!r}",
            f"x_model.noise: parameters must be finite, got normal(0.0, {bad!r})",
            f"v_model: parameters must be finite, got gamma({bad!r}, 1.0)",
        ]


def test_gamma_density_integrates_to_one():
    spec = DistributionSpec.gamma(2.0, 1.0)
    x = np.linspace(0, 40, 20001)
    np.testing.assert_allclose(_trapezoid_weights(x) @ spec.density(x), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# Scenario validation


def test_canonical_scenario_is_valid():
    assert validate_scenario(worlds.table3_scenario(1)) == []


def test_zero_n_rejected():
    s = worlds.table3_scenario(1)
    bad = Scenario(**{**s.__dict__, "n": 0})
    assert any("n must be >= 1" in v for v in validate_scenario(bad))


def test_zero_gamma1_on_linear_error_rejected():
    s = worlds.table3_scenario(1)
    err = ErrorModel(
        kind=ErrorKind.NON_BERKSON_LINEAR,
        gamma1=0.0,
        noiseU=DistributionSpec.normal(0, 0.3),
    )
    bad = Scenario(**{**s.__dict__, "exposure_error": err})
    assert any("gamma1 must be nonzero" in v for v in validate_scenario(bad))


def test_nonzero_mean_outcome_noise_rejected():
    s = worlds.table3_scenario(1)
    outcome = OutcomeModel(
        link=Link.IDENTITY, beta_x=1.0, noise=DistributionSpec.normal(0.5, 1.0)
    )
    bad = Scenario(**{**s.__dict__, "outcome": outcome})
    assert any("mean 0" in v for v in validate_scenario(bad))


def test_nonzero_mean_error_noise_rejected():
    s = worlds.table3_scenario(1)
    shifted = replace(s.exposure_error, noiseU=DistributionSpec.normal(0.5, 0.3))
    assert validate_scenario(replace(s, exposure_error=shifted)) == [
        "exposure_error.noiseU must have mean 0"
    ]
    # a noise that is already invalid gets its own message, not this one
    broken = replace(s.exposure_error, noiseU=DistributionSpec.normal(0.5, -1.0))
    assert validate_scenario(replace(s, exposure_error=broken)) == [
        "exposure_error.noiseU: normal sigma must be >= 0"
    ]


def test_berkson_confounder_and_v_errors_rejected_by_section():
    s = worlds.table3_scenario(1)
    for section in ("confounder_error", "v_error"):
        berkson = replace(getattr(s, section), kind=ErrorKind.PURE_BERKSON)
        messages = validate_scenario(replace(s, **{section: berkson}))
        assert [m for m in messages if m.startswith(f"{section}.kind")] == [
            f"{section}.kind must not be pureBerkson (only exposure_error can be)"
        ]
    berkson_exposure = replace(s.exposure_error, kind=ErrorKind.PURE_BERKSON)
    assert validate_scenario(replace(s, exposure_error=berkson_exposure)) == []


@pytest.mark.parametrize(
    "section, edit, message",
    [
        ("c_model", {"coef_c": 0.5}, "c_model.coef_c must be 0 (C cannot depend on itself)"),
        ("v_error", {"gammaV": 0.5}, "v_error.gammaV must be 0 (the V slope is gamma1)"),
    ],
)
def test_self_loadings_rejected(section, edit, message):
    s = worlds.table3_scenario(1)
    bad = replace(s, **{section: replace(getattr(s, section), **edit)})
    assert validate_scenario(bad) == [message]


def test_out_of_range_seed_rejected():
    s = worlds.table3_scenario(1)
    for seed in (-1, 2**64):
        assert validate_scenario(replace(s, seed=seed)) == [
            f"seed {seed} is outside [0, 2**64)"
        ]
    for seed in (0, 2**64 - 1):
        assert validate_scenario(replace(s, seed=seed)) == []


@pytest.mark.parametrize(
    "name", ["a,b", 'say "hi"', "a\nb", "a\rb", "a\u2028b", " lead", "trail ", "\ttab", ""]
)
def test_scenario_name_rule_rejects_names_that_break_a_csv_or_a_round_trip(name):
    s = worlds.table3_scenario(1)
    assert validate_scenario(replace(s, name=name)) == [
        f"name {name!r} must be non-empty, with no comma, double quote, line break,"
        " or whitespace at either end"
    ]


@pytest.mark.parametrize("name", ["table3-1", "x y", "näme_2"])
def test_scenario_name_rule_keeps_plain_names(name):
    s = replace(worlds.table3_scenario(1), name=name)
    assert validate_scenario(s) == []
    assert parse_scenario(format_scenario(s)).name == name


def test_table5_world_is_the_table4_world_with_its_edits():
    text = format_scenario(worlds.table5_scenario(0.5, -0.5)).splitlines()
    for line in (
        "c_model.coef_v = 0.5",
        "confounder_error.kind = sharedV",
        "confounder_error.gammaV = 0.56",
        "exposure_error.gammaV = -0.05",
        "x_model.coef_v = 0.0",
        "outcome.link = logit",
        "outcome.beta0 = -4.3",
        "outcome.beta_x = 0.3",
        "outcome.beta_v = -0.5",
    ):
        assert line in text


# ---------------------------------------------------------------------------
# Scenario file format round-trip

_dist = st.one_of(
    st.builds(
        DistributionSpec.normal,
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.01, 3, allow_nan=False),
    ),
    st.builds(
        DistributionSpec.gamma,
        st.floats(0.2, 5, allow_nan=False),
        st.floats(0.1, 4, allow_nan=False),
    ),
    st.builds(DistributionSpec.point_mass, st.floats(-2, 2, allow_nan=False)),
)
_finite = st.floats(-10, 10, allow_nan=False)


@st.composite
def scenarios(draw):
    zero_mean = st.one_of(
        st.builds(DistributionSpec.normal, st.just(0.0), st.floats(0.01, 2)),
        st.just(DistributionSpec.point_mass(0.0)),
        st.just(DistributionSpec.rounded_uniform(-1, 1)),
    )
    return Scenario(
        name=draw(st.text(st.characters(categories=("Ll", "Nd")), min_size=1, max_size=12)),
        outcome=OutcomeModel(
            link=draw(st.sampled_from(list(Link))),
            beta0=draw(_finite),
            beta_x=draw(_finite),
            beta_x2=draw(_finite),
            beta_c=draw(_finite),
            beta_v=draw(_finite),
            noise=draw(zero_mean),
            noise_scale=draw(st.floats(0.1, 2, allow_nan=False)),
        ),
        exposure_error=ErrorModel(
            kind=draw(st.sampled_from(list(ErrorKind))),
            gamma0=draw(_finite),
            gamma1=draw(st.floats(0.1, 3, allow_nan=False)),
            gammaV=draw(_finite),
            noiseU=draw(zero_mean),
        ),
        x_model=StructuralSpec(
            intercept=draw(_finite),
            coef_c=draw(_finite),
            coef_v=draw(_finite),
            noise=draw(_dist),
        ),
        c_model=StructuralSpec(coef_v=draw(_finite), noise=draw(_dist)),
        v_model=draw(_dist),
        n=draw(st.integers(1, 10**6)),
        replications=draw(st.integers(1, 1000)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_scenario_round_trip(s):
    assert parse_scenario(format_scenario(s)) == s


def test_canonical_scenarios_round_trip():
    for s in [worlds.table3_scenario(2), worlds.table4_scenario(3), worlds.table5_scenario(0.5, -0.5)]:
        assert parse_scenario(format_scenario(s)) == s


def test_every_study_scenario_round_trips_through_a_file(tmp_path):
    path = tmp_path / "scenario.txt"
    for table, study in STUDY_TABLES.items():
        for key in study.published:
            s = study.build(key, n=123, replications=7, seed=11)
            save_scenario(s, path)
            assert load_scenario(path) == s, (table, key)
            assert path.read_text(encoding="utf-8") == format_scenario(s)


def test_parse_rejects_garbage():
    with pytest.raises(ScenarioFormatError, match="^line 1: expected 'section.key = value'$"):
        parse_scenario("just some words\n")
    with pytest.raises(ScenarioFormatError, match="^line 2: key 'n' has no section$"):
        parse_scenario("# comment\nn = 3\n")
    with pytest.raises(ScenarioFormatError, match=r"^nosuch\.key: unknown section$"):
        parse_scenario("nosuch.key = 1\n")
    with pytest.raises(ScenarioFormatError):
        parse_scenario("outcome.nope = 3\n")
    with pytest.raises(ScenarioFormatError):
        parse_scenario("scenario.n = plenty\n")
    with pytest.raises(ScenarioFormatError):
        parse_scenario("outcome.noise = normal(1)\n")


@pytest.mark.parametrize(
    "line, where",
    [
        ("scenario.n = plenty", "scenario.n"),
        ("scenario.seed = x", "scenario.seed"),
        ("scenario.v_model = normal(1)", "scenario.v_model"),
        ("outcome.link = probit", "outcome.link"),
        ("exposure_error.kind = bogus", "exposure_error.kind"),
        ("outcome.beta_x = abc", "outcome.beta_x"),
        ("x_model.noise = weird(1, 2)", "x_model.noise"),
        ("scenario.nope = 1", "scenario.nope"),
    ],
)
def test_parse_error_names_its_key(line, where):
    text = "scenario.name = bad\noutcome.beta0 = 1.0\n" + line + "\n"
    with pytest.raises(ScenarioFormatError, match=rf"^{re.escape(where)}: [^\n]+$"):
        parse_scenario(text)


def test_format_writes_every_field_once_in_file_order():
    sections = {
        "outcome": OutcomeModel,
        "exposure_error": ErrorModel,
        "confounder_error": ErrorModel,
        "v_error": ErrorModel,
        "x_model": StructuralSpec,
        "c_model": StructuralSpec,
    }
    scenario_keys = ["name", "n", "replications", "seed", "v_model"]
    assert {f.name for f in fields(Scenario)} == set(sections) | set(scenario_keys)
    text = format_scenario(worlds.table5_scenario(0.5, -0.5))
    keys = [line.split(" = ", 1)[0] for line in text.splitlines() if line]
    assert keys == [f"scenario.{key}" for key in scenario_keys] + [
        f"{section}.{f.name}" for section, cls in sections.items() for f in fields(cls)
    ]
    # one blank line before each model section, none at the end
    assert text.count("\n\n") == len(sections)
    assert text.endswith("c_model.noise = gamma(1.0, 1.0)\n")


def test_parse_rejects_duplicate_key():
    text = "scenario.n = 10\noutcome.beta_x = 1.0\n\noutcome . beta_x = 2.0\n"
    with pytest.raises(
        ScenarioFormatError,
        match=r"^line 4: duplicate key outcome\.beta_x \(first set on line 2\)$",
    ):
        parse_scenario(text)


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_rejects_ragged_and_nonfinite():
    with pytest.raises(SchemaError, match="^dataset must have at least one column$"):
        Dataset({})
    with pytest.raises(SchemaError):
        Dataset({"X": np.ones(3), "Y": np.ones(4)})
    with pytest.raises(SchemaError):
        Dataset({"X": np.array([1.0, np.nan])})
    with pytest.raises(SchemaError):
        Dataset({"X": np.array([1.0, np.inf])})


def test_dataset_rejects_a_column_that_is_not_a_vector():
    with pytest.raises(SchemaError, match="^column 'X' is not a vector$"):
        Dataset({"X": np.ones((3, 2))})


def test_dataset_names_a_missing_column():
    with pytest.raises(SchemaError, match="^dataset has no column 'Y'$"):
        Dataset({"X": np.ones(3)})["Y"]


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    ds = Dataset(
        {name: rng.normal(size=17) for name in ("X", "Xep", "C", "Cep", "V", "Vep", "Y")}
    )
    path = tmp_path / "data.csv"
    ds.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "X,Xep,C,Cep,V,Vep,Y"
    back = Dataset.from_csv(path)
    for name in ds.names:
        np.testing.assert_array_equal(back[name], ds[name])


def test_dataset_csv_rejects_duplicate_header(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("X,Y,X\n1,0,2\n3,1,4\n")
    with pytest.raises(SchemaError, match="duplicate column name.*: X$"):
        Dataset.from_csv(path)
    path.write_text("X, ,Y\n1,0,2\n3,1,4\n")
    with pytest.raises(SchemaError, match=r"empty column name in header field\(s\) 2$"):
        Dataset.from_csv(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["X,Xep,Y\n", "X,Xep,Y"])
def test_dataset_csv_header_only_is_one_schema_error(tmp_path, text):
    # numpy's "input contained no data" warning is not a second report
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=r"empty\.csv: no data rows$"):
        Dataset.from_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", r"bad\.csv: empty CSV$"),
        ("\n1,2\n", r"bad\.csv: empty CSV$"),
        ("X,Y\n1,a\n", r"bad\.csv: malformed CSV \(.+\)$"),
        ("X,Y\n1,2\n3\n", r"bad\.csv: malformed CSV \(.+\)$"),
        ("X,Y\n1,2,3\n", r"bad\.csv: 2 header fields but 3 columns$"),
        ("X,Y,Z\n1,2\n", r"bad\.csv: 3 header fields but 2 columns$"),
    ],
)
def test_dataset_csv_rejects_a_malformed_file(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        Dataset.from_csv(path)


def test_dataset_partial_columns_keep_canonical_order(tmp_path):
    ds = Dataset({"Y": np.zeros(2), "Xep": np.ones(2), "X": np.ones(2)})
    path = tmp_path / "partial.csv"
    ds.to_csv(path)
    assert path.read_text().splitlines()[0] == "X,Xep,Y"
