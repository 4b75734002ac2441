import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import ks_critical, two_sample_ks
from peclab import worlds
from peclab.datagen import generate_scenario, generate_table2_world
from peclab.errors import ParameterError, SchemaError
from peclab.harness import STUDY_TABLES
from peclab.model import DistributionSpec, ErrorKind, ErrorModel, Link, OutcomeModel, Scenario, StructuralSpec
from peclab.regress import design_with_intercept, ols
from peclab.rng import ColumnTag, StreamKey, sample
from table2_oracle import aee_exact, conditional_joint_cells


# ---------------------------------------------------------------------------
# Discrete exposure-only world


def test_table2_world_columns(table2_dataset):
    assert table2_dataset.names == ["X", "Xep", "Y"]
    assert "C" not in table2_dataset


def test_table2_published_cells(table2_dataset):
    x, xep, y = (table2_dataset[c] for c in ("X", "Xep", "Y"))

    def cell(xe, xv, yv):
        m = xep == xe
        return np.mean((x[m] == xv) & (np.round(y[m], 9) == yv))

    assert cell(9, 9, 0.9) == pytest.approx(0.33291, abs=0.005)
    assert cell(7, 8, 0.8) == pytest.approx(0.50046, abs=0.005)


def test_table2_exact_oracle_cells(table2_dataset):
    cells = conditional_joint_cells()
    assert cells[(9, 9, 9)] == pytest.approx(1 / 3)
    assert cells[(9, 8, 7)] == pytest.approx(1 / 24)
    assert cells[(8, 8, 8)] == pytest.approx(1 / 4)
    assert aee_exact(10, 9) == pytest.approx(0.05)
    assert aee_exact(11, 9) == pytest.approx(0.1)


def test_table2_outcome_identity(table2_dataset):
    # Y = 0.1 X + 0.1 W exactly, so 10*Y - X lands on {-1, 0, 1}
    w = np.round(10 * table2_dataset["Y"] - table2_dataset["X"], 9)
    assert set(np.unique(w)).issubset({-1.0, 0.0, 1.0})


def test_a_saturated_logistic_mean_draws_without_a_warning():
    # noise_scale 1e300 sends exp(-lp) to inf, where p = 0 is the right value
    s = worlds.table4_scenario(1, n=200)
    s = replace(s, outcome=replace(s.outcome, noise_scale=1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = generate_scenario(s, 0)["Y"]
    # the draw of 1 / (1 + exp(-lp)) with overflow warnings on
    assert hashlib.sha256(y.tobytes()).hexdigest() == (
        "11e5030d73b38eed0077968c0f85ef1dce4539ca70173999596f6830397be681"
    )


def test_table2_world_rejects_bad_n():
    with pytest.raises(ParameterError):
        generate_table2_world(0, 1)


# ---------------------------------------------------------------------------
# Continuous worlds


def test_generate_scenario_is_deterministic():
    s = worlds.table3_scenario(1, n=500)
    a = generate_scenario(s, 3)
    b = generate_scenario(s, 3)
    for name in a.names:
        np.testing.assert_array_equal(a[name], b[name])


@pytest.mark.parametrize("rep", [0, 3])
@pytest.mark.parametrize("table", ["table3", "table4", "table5"])
def test_shared_draws_are_bit_identical(table, rep):
    # the scenarios of a table draw in table order from one dict, as a study
    # replication does; table5 builds C = aV + the shared base draw
    study = STUDY_TABLES[table]
    shared = {}
    for key in study.published:
        s = study.build(key, n=500, replications=1, seed=worlds.DEFAULT_SEED)
        together = generate_scenario(s, rep, shared)
        alone = generate_scenario(s, rep)
        assert together.names == alone.names
        for name in alone.names:
            assert together[name].tobytes() == alone[name].tobytes(), (s.name, name)
    # 7 sampled streams, plus the Bernoulli uniforms in the binary tables
    assert len(shared) == (7 if table == "table3" else 8)
    assert together["V"] is shared[(ColumnTag.V, s.v_model)]
    for values in shared.values():
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_shared_draws_are_keyed_by_law():
    # same tag, other law: the second scenario draws its own X noise
    s = worlds.table3_scenario(1, n=500, seed=worlds.DEFAULT_SEED)
    wider = replace(s, x_model=replace(s.x_model, noise=DistributionSpec.normal(0.0, 0.7)))
    shared = {}
    generate_scenario(s, 2, shared)
    together, alone = generate_scenario(wider, 2, shared), generate_scenario(wider, 2)
    for name in alone.names:
        assert together[name].tobytes() == alone[name].tobytes(), name
    assert len(shared) == 8


def test_invalid_scenario_raises_with_violations():
    s = worlds.table3_scenario(1)
    bad = Scenario(**{**s.__dict__, "n": 0})
    with pytest.raises(ParameterError, match=r"^scenario table3-1: n must be >= 1$"):
        generate_scenario(bad, 0)


def test_no_error_kind_gives_identical_columns():
    s = worlds.table3_scenario(1, n=4000, seed=99)
    s = Scenario(**{**s.__dict__, "exposure_error": ErrorModel(kind=ErrorKind.NONE)})
    ds = generate_scenario(s, 0)
    np.testing.assert_array_equal(ds["X"], ds["Xep"])
    fit = ols(design_with_intercept(ds["Xep"], ds["C"], ds["V"]), ds["Y"])
    assert fit.coefficients[1] == pytest.approx(1.0, abs=0.05)


def test_marginal_distributions_stable_across_replications():
    # permuting the replication index changes draws, not laws
    s = worlds.table3_scenario(1, n=10_000)
    d1 = generate_scenario(s, 0)
    d2 = generate_scenario(s, 17)
    crit = ks_critical(10_000, 10_000)
    assert two_sample_ks(d1["X"], d2["X"]) < crit
    assert two_sample_ks(d1["Y"], d2["Y"]) < crit


def test_classical_error_wiring():
    # Xep = X + U: regressing Xep on X gives slope 1, residuals independent of X
    s = worlds.table3_scenario(1, n=100_000, seed=5)
    s = Scenario(
        **{
            **s.__dict__,
            "exposure_error": ErrorModel(
                kind=ErrorKind.NON_BERKSON_LINEAR,
                gamma1=1.0,
                noiseU=DistributionSpec.normal(0, 0.3),
            ),
        }
    )
    ds = generate_scenario(s, 0)
    fit = ols(design_with_intercept(ds["X"]), ds["Xep"])
    assert fit.coefficients[1] == pytest.approx(1.0, abs=0.01)
    resid = ds["Xep"] - fit.predict(design_with_intercept(ds["X"]))
    assert abs(np.corrcoef(resid, ds["X"])[0, 1]) < 0.02


def test_pure_berkson_wiring():
    # the structural draw is the measured value; X = Xep + U, so regressing X
    # on Xep gives slope 1 with residuals independent of Xep
    s = worlds.table3_scenario(1, n=100_000, seed=6)
    s = Scenario(
        **{
            **s.__dict__,
            "exposure_error": ErrorModel(
                kind=ErrorKind.PURE_BERKSON,
                noiseU=DistributionSpec.normal(0, 0.3),
            ),
        }
    )
    ds = generate_scenario(s, 0)
    fit = ols(design_with_intercept(ds["Xep"]), ds["X"])
    assert fit.coefficients[1] == pytest.approx(1.0, abs=0.01)
    resid = ds["X"] - fit.predict(design_with_intercept(ds["Xep"]))
    assert abs(np.corrcoef(resid, ds["Xep"])[0, 1]) < 0.02


@pytest.mark.parametrize("kind", [ErrorKind.NON_BERKSON_LINEAR, ErrorKind.PURE_BERKSON])
def test_exposure_error_formula_bit_for_bit(kind):
    # the generated exposure column is gamma0 + gamma1 * T + gammaV * V + U
    # exactly, T the truth or, under pure Berkson, the measured value
    error = ErrorModel(kind=kind, gamma0=0.25, gamma1=0.8, gammaV=0.5,
                       noiseU=DistributionSpec.normal(0, 0.3))
    s = replace(worlds.table3_scenario(2, n=500, seed=13), exposure_error=error)
    ds = generate_scenario(s, 1)
    u = sample(error.noiseU, StreamKey(s.seed, 1, ColumnTag.U_X), s.n)
    source, made = ("Xep", "X") if kind is ErrorKind.PURE_BERKSON else ("X", "Xep")
    expected = error.gamma0 + error.gamma1 * ds[source] + error.gammaV * ds["V"] + u
    assert ds[made].tobytes() == expected.tobytes()


def test_table3_scenario1_naive_slope():
    s = worlds.table3_scenario(1, n=10_000)
    vals = []
    for rep in range(12):
        ds = generate_scenario(s, rep)
        fit = ols(design_with_intercept(ds["Xep"], ds["Cep"]), ds["Y"])
        vals.append(fit.coefficients[1])
    assert np.mean(vals) == pytest.approx(0.55, abs=0.02)


# ---------------------------------------------------------------------------
# Binary worlds


def test_binary_outcome_is_bernoulli():
    ds = generate_scenario(worlds.table4_scenario(1, n=5000), 0)
    assert set(np.unique(ds["Y"])).issubset({0.0, 1.0})


def test_binary_event_rate_matches_direct_monte_carlo():
    # independent oracle: 10^7 draws of the linear predictor through numpy's
    # own generator, no shared code with the datagen path
    s = worlds.table4_scenario(1, n=200_000, seed=31)
    a, b = worlds.TABLE3_AB[1]
    icpt = s.outcome.beta0
    rng = np.random.default_rng(123456)
    n = 10_000_000
    c = rng.gamma(1.0, 1.0, n)
    v = rng.gamma(2.0, 1.0, n)
    x = rng.normal(0.3 * c + a * v + 5.0, 0.5)
    lp = icpt + 0.3 * x - 1.23 * c + b * v + rng.normal(0, 1, n)
    oracle_rate = float(np.mean(1 / (1 + np.exp(-lp))))
    rates = [generate_scenario(s, rep)["Y"].mean() for rep in range(4)]
    rate = float(np.mean(rates))
    se = np.sqrt(oracle_rate * (1 - oracle_rate) / (4 * s.n))
    assert abs(rate - oracle_rate) < 4 * se + 0.001


def test_null_exposure_effect_gives_null_rr():
    from peclab.estimate import g_computation

    s = worlds.table4_scenario(1, n=20_000, seed=8)
    outcome = OutcomeModel(
        link=Link.LOGIT,
        beta0=s.outcome.beta0,
        beta_x=0.0,
        beta_c=-1.23,
        noise=DistributionSpec.normal(0, 1),
    )
    s = Scenario(**{**s.__dict__, "outcome": outcome})
    vals = [
        g_computation(generate_scenario(s, rep), "X", ["C", "V"])[1]
        for rep in range(6)
    ]
    assert np.mean(vals) == pytest.approx(1.0, abs=0.03)


def test_log_link_rare_outcome_world():
    outcome = OutcomeModel(
        link=Link.LOG, beta0=-6.0, beta_x=0.3, noise=DistributionSpec.point_mass(0.0)
    )
    s = Scenario(
        name="loglinear",
        outcome=outcome,
        x_model=StructuralSpec(intercept=0.0, noise=DistributionSpec.normal(0, 1)),
        c_model=StructuralSpec(noise=DistributionSpec.point_mass(0.0)),
        v_model=DistributionSpec.point_mass(0.0),
        n=50_000,
        seed=3,
    )
    ds = generate_scenario(s, 0)
    assert set(np.unique(ds["Y"])).issubset({0.0, 1.0})
    # rate close to E[exp(-6 + 0.3 X)] = exp(-6 + 0.045)
    assert ds["Y"].mean() == pytest.approx(np.exp(-6 + 0.3**2 / 2), rel=0.2)


def _undefined_outcome_world(link: Link) -> Scenario:
    # beta_x X + beta_c C is inf - inf = NaN on the rows where both products overflow
    s = worlds.table4_scenario(1, n=2000, replications=2)
    return replace(s, outcome=replace(s.outcome, link=link, beta_x=1e308, beta_c=-1e308))


@pytest.mark.parametrize("link", [Link.LOGIT, Link.LOG])
def test_a_nan_outcome_probability_is_rejected_with_its_row_count(link):
    # U < NaN is false: these rows drew Y = 0, which the fit then blamed on
    # separation; the overflowing products print no warning before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ParameterError, match="^the outcome probability is NaN on 318 of 2000 rows: "
        ):
            generate_scenario(_undefined_outcome_world(link), 0)


@pytest.mark.parametrize("table", ["table3", "table4"])
def test_an_infinite_exposure_is_one_schema_error_with_no_warning(table):
    # 1e308 * C overflows to an infinite X on some rows, and Xep and Y are
    # computed from it
    s = STUDY_TABLES[table].build(1, n=300, replications=2)
    s = replace(s, x_model=replace(s.x_model, coef_c=1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="^column 'X' contains NaN or infinite values$"):
            generate_scenario(s, 0)


def test_a_huge_exposure_does_not_form_a_quadratic_term_it_does_not_have():
    # at V = 1e160 the exposure's square overflows; beta_x2 = 0 forms none,
    # so Y is finite and no warning is raised
    s = worlds.table3_scenario(1, n=300, replications=2)
    s = replace(s, v_model=DistributionSpec.point_mass(1e160))
    assert s.outcome.beta_x2 == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = generate_scenario(s, 0)["Y"]
    assert np.isfinite(y).all()


def test_log_link_rejects_probabilities_above_one():
    outcome = OutcomeModel(link=Link.LOG, beta0=0.5, beta_x=0.0,
                           noise=DistributionSpec.point_mass(0.0))
    s = Scenario(
        name="bad-log",
        outcome=outcome,
        x_model=StructuralSpec(noise=DistributionSpec.normal(0, 1)),
        c_model=StructuralSpec(noise=DistributionSpec.point_mass(0.0)),
        v_model=DistributionSpec.point_mass(0.0),
        n=100,
        seed=3,
    )
    with pytest.raises(ParameterError):
        generate_scenario(s, 0)
