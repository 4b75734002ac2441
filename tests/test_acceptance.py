"""Acceptance suite: one test per criterion, printing a pass/fail line per
checked quantity.

Criteria 4 and 5 are asserted twice: the faithful full-grid tests (which
fail on a documented set of published cells that are mutually inconsistent
under delta-shift standardization - for any logistic fit with an intercept
the mean fitted probability equals the observed event rate, forcing
RD = rate * (RR - 1), which several published RD/RR pairs violate by an
order of magnitude) and companion tests that pin every attainable cell plus
the directional claim, so regressions stay visible.
"""

import math

import numpy as np
import pytest

import table2_oracle as oracle
from conftest import ACCEPT_N
from peclab import worlds
from peclab.biasfactor import lambda_closed_form, p_rd_identity, p_rd_polynomial
from peclab.calibrate import apply_calibration, fit_calibration
from peclab.datagen import generate_scenario
from peclab.estimate import stabilized_weights
from peclab.exchprob import aee_from_table, empirical_table
from peclab.harness import (
    PUBLISHED_AEE_10_VS_9,
    PUBLISHED_AEE_11_VS_9,
    RD,
    RR,
    STUDY_TABLES,
    reproduce,
)
from peclab.model import Dataset
from peclab.biasfactor import ec_decomposition, epc_decomposition
from peclab.regress import design_with_intercept, logistic_irls, ols


def _report(label: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: discrete-world probability grid


def test_criterion_1_table2_grid(table2_table, table2_dataset):
    report = reproduce("table2", seed=worlds.DEFAULT_SEED)
    assert report.runtime_ms < 30_000
    grid = [c for c in report.cells if c.method == "exchprob"]
    assert len(grid) == 45
    ok = True
    for c in grid:
        ok &= _report(f"criterion1 {c.estimand}", c.passed,
                      f"{c.mean:.5f} vs {c.paper_value:.5f}")
    # enumeration oracle: exact rational cell values
    want = {1 / 24, 1 / 12, 1 / 8, 1 / 6, 1 / 4, 1 / 3, 1 / 2}
    got = {float(v) for v in oracle.distinct_nonzero_cells()}
    ok &= _report("criterion1 oracle rational set", got == want, f"{sorted(got)}")
    # empirical cells against the exact values at the oracle-noise bound
    cells = oracle.conditional_joint_cells()
    law = oracle.xep_law()
    worst = 0.0
    for (xep, x, y10), frac in cells.items():
        p = float(frac)
        n_stratum = float(law[xep]) * ACCEPT_N
        bound = 3 * math.sqrt(p * (1 - p) / n_stratum)
        worst = max(worst, abs(table2_table.cell(xep, x, y10 / 10) - p) - bound)
    ok &= _report("criterion1 oracle 3-sigma envelope", worst <= 0, f"slack {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: worked numeric example


def test_criterion_2_numeric_example(table2_dataset, table2_table):
    ok = True
    aee = aee_from_table(table2_table, 10, 9)
    ok &= _report("criterion2 AEE(Xep 10 vs 9)", abs(aee - PUBLISHED_AEE_10_VS_9) <= 0.005,
                  f"{aee:.6f} vs {PUBLISHED_AEE_10_VS_9}")
    r2 = ols(design_with_intercept(table2_dataset["X"]), table2_dataset["Xep"]).r_squared
    ok &= _report("criterion2 P_RD via R^2", abs(r2 - 0.50) <= 0.02, f"{r2:.4f}")
    fits = fit_calibration(table2_dataset, condition="one")
    g0, g1 = (float(v) for v in fits[0].coefficients.coefficients)
    ok &= _report("criterion2 calibration gamma0", abs(g0 - 4.5) <= 0.01, f"{g0:.4f}")
    ok &= _report("criterion2 calibration gamma1", abs(g1 - 0.5) <= 0.01, f"{g1:.4f}")
    # the calibrated contrast (X_RC 10 vs 9) maps to measured values 11 and 9
    idx = (10 - g0) / g1
    ref = (9 - g0) / g1
    aee_rc = aee_from_table(table2_table, round(idx), round(ref))
    ok &= _report("criterion2 AEE(X_RC 10 vs 9)", abs(aee_rc - PUBLISHED_AEE_11_VS_9) <= 0.005,
                  f"{aee_rc:.6f} vs {PUBLISHED_AEE_11_VS_9} (truth 0.1)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: continuous-outcome study


def test_criterion_3_table3(table3_report):
    assert table3_report.runtime_ms < 300_000  # "< 5 min on a laptop"
    ok = True
    for c in table3_report.cells:
        ok &= _report(
            f"criterion3 {c.scenario} {c.method}", c.passed,
            f"{c.mean:+.4f} vs {c.paper_value:+.2f} (runs {c.runs})",
        )
    assert ok


# ---------------------------------------------------------------------------
# Criteria 4 and 5: binary-outcome studies

# Cells whose published RD/RR pairs are mutually inconsistent with their
# row's true column under delta-shift standardization (see the module
# docstring), plus the naive-column RR cells no configuration reaches.
UNATTAINABLE = {
    ("table4-2", "gcomp_cep", RD.value),
    ("table4-3", "gcomp_cep", RD.value),
    ("table4-3", "gcomp_cep", RR.value),
    ("table5-a0.0-b0.0", "gcomp_cep", RD.value),
    ("table5-a-0.5-b0.0", "gcomp_cep", RD.value),
    ("table5-a-0.5-b0.0", "gcomp_cep", RR.value),
    ("table5-a-0.5-b0.0", "gcomp_cep_vep", RD.value),
    ("table5-a0.0-b0.5", "gcomp_cep", RD.value),
    ("table5-a0.0-b0.5", "gcomp_cep", RR.value),
    ("table5-a0.0-b0.5", "gcomp_cep_vep", RD.value),
    ("table5-a-0.5-b0.5", "gcomp_cep", RD.value),
    ("table5-a-0.5-b0.5", "gcomp_cep", RR.value),
    ("table5-a-0.5-b0.5", "gcomp_cep_vep", RD.value),
    ("table4-1", "gcomp_cep", RD.value),
}


def _split_cells(report):
    attainable, blocked = [], []
    for c in report.cells:
        key = (c.scenario, c.method, c.estimand)
        (blocked if key in UNATTAINABLE else attainable).append(c)
    return attainable, blocked


def test_criterion_4_table4_full(table4_report):
    ok = True
    for c in table4_report.cells:
        ok &= _report(
            f"criterion4 {c.scenario} {c.method} {c.estimand}", c.passed,
            f"{c.mean:+.4f} vs {c.paper_value:+.3f}",
        )
    assert ok, "documented unattainable cells; see the decisions ledger"


def test_criterion_4_attainable_cells(table4_report):
    attainable, blocked = _split_cells(table4_report)
    assert len(attainable) + len(blocked) == 24
    failed = [c for c in attainable if not c.passed]
    for c in failed:
        _report(f"criterion4-attainable {c.scenario} {c.method} {c.estimand}", False,
                f"{c.mean:+.4f} vs {c.paper_value:+.3f}")
    assert not failed


def test_criterion_5_table5_full(table5_report):
    ok = True
    for c in table5_report.cells:
        ok &= _report(
            f"criterion5 {c.scenario} {c.method} {c.estimand}", c.passed,
            f"{c.mean:+.4f} vs {c.paper_value:+.3f}",
        )
    assert ok, "documented unattainable cells; see the decisions ledger"


def test_criterion_5_attainable_cells_and_direction(table5_report):
    attainable, blocked = _split_cells(table5_report)
    assert len(attainable) + len(blocked) == 56
    failed = [c for c in attainable if not c.passed]
    for c in failed:
        _report(f"criterion5-attainable {c.scenario} {c.method} {c.estimand}", False,
                f"{c.mean:+.4f} vs {c.paper_value:+.3f}")
    assert not failed
    # directional claim: aligned differential confounder error (a=0.5) biases
    # the Cep-adjusted risk ratio less than non-differential error (a=0)
    by_key = {(c.scenario, c.method, c.estimand): c for c in table5_report.cells}
    diff = by_key[("table5-a0.5-b0.0", "gcomp_cep", RR.value)]
    nondiff = by_key[("table5-a0.0-b0.0", "gcomp_cep", RR.value)]
    truth_diff = by_key[("table5-a0.5-b0.0", "gcomp_true_c", RR.value)]
    truth_nondiff = by_key[("table5-a0.0-b0.0", "gcomp_true_c", RR.value)]
    bias_diff = abs(diff.mean - truth_diff.mean)
    bias_nondiff = abs(nondiff.mean - truth_nondiff.mean)
    assert _report(
        "criterion5 directional claim |bias(a=0.5)| < |bias(a=0)|",
        bias_diff < bias_nondiff,
        f"{bias_diff:.3f} vs {bias_nondiff:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: Berkson/classical property suite


def test_criterion_6_berkson_unbiased_50_parameterizations():
    rng = np.random.default_rng(60601)
    reps, n = 6, 20_000
    failures = []
    for k in range(50):
        beta1 = rng.uniform(0.3, 1.5)
        lo = rng.integers(0, 9)
        q = rng.uniform(0.15, 0.35)  # measured-exposure three-point weight
        p = rng.uniform(0.15, 0.35)  # symmetric error weight
        c_w = rng.uniform(0.3, 1.0)
        vals = []
        for _ in range(reps):
            xep = rng.choice([lo, lo + 1, lo + 2], size=n, p=[q, 1 - 2 * q, q])
            u = rng.choice([-1.0, 0.0, 1.0], size=n, p=[p, 1 - 2 * p, p])
            w = rng.choice([-1.0, 0.0, 1.0], size=n, p=[0.25, 0.5, 0.25])
            x = xep + u
            ds = Dataset({"X": x, "Xep": xep.astype(float), "Y": beta1 * x + c_w * w})
            vals.append(aee_from_table(empirical_table(ds), lo + 2, lo + 1))
        vals = np.array(vals)
        mc_se = vals.std(ddof=1) / np.sqrt(reps)
        if abs(vals.mean() - beta1) >= 4 * mc_se:
            failures.append((k, vals.mean(), beta1, mc_se))
    assert _report(
        "criterion6 Berkson unbiasedness suite", not failures,
        f"{50 - len(failures)}/50 parameterizations inside 4 MC-SE",
    ), failures


def test_criterion_6_classical_attenuation_50_parameterizations():
    rng = np.random.default_rng(60602)
    n = 200_000
    worst = 0.0
    for _ in range(50):
        beta1 = rng.uniform(0.3, 1.5)
        gamma1 = rng.uniform(0.5, 2.0)
        sd_x = rng.uniform(0.5, 1.5)
        sd_u = rng.uniform(0.3, 1.5)
        lam = lambda_closed_form(gamma1, sd_x**2, sd_u**2)
        x = rng.normal(0.0, sd_x, n)
        xep = gamma1 * x + rng.normal(0.0, sd_u, n)
        y = beta1 * x + rng.normal(0.0, 0.5, n)
        slope = ols(design_with_intercept(xep), y).coefficients[1]
        worst = max(worst, abs(slope / beta1 - lam))
    assert _report("criterion6 classical attenuation suite", worst < 0.02,
                   f"max |ratio - lambda| = {worst:.4f}")


# ---------------------------------------------------------------------------
# Criterion 7: identity suite


def test_criterion_7_identities():
    rng = np.random.default_rng(70707)
    ok = True
    # exact identity
    exact = all(
        p_rd_identity(g, vx, vu) == pytest.approx(lambda_closed_form(g, vx, vu) * g, rel=1e-12)
        for g in (0.5, 1.0, 2.0)
        for vx in (0.5, 1.0, 2.0)
        for vu in (0.0, 0.5, 2.0)
    )
    ok &= _report("criterion7 p_rd = lambda*gamma1 exactly", exact)
    # fitted R^2 within 0.01 at n = 1e5
    n = 100_000
    x = rng.normal(0, 1, n)
    xep = 1.3 * x + rng.normal(0, 0.8, n)
    r2 = ols(design_with_intercept(x), xep).r_squared
    closed = p_rd_identity(1.3, 1.0, 0.64)
    ok &= _report("criterion7 fitted R^2 vs closed form", abs(r2 - closed) < 0.01,
                  f"{r2:.4f} vs {closed:.4f}")
    # polynomial identity for q in {1, 2, 3}: additive error on the power
    # scale (the structure the source algebra assumes; classical error
    # satisfies it for q <= 2)
    for q in (1, 2, 3):
        xq = x**q
        noise = rng.normal(0, np.std(xq), n)
        xepq = xq + noise
        formula = p_rd_polynomial(q, 1.0, float(np.var(xq)), float(np.var(noise)))
        fitted = ols(design_with_intercept(xq), xepq).r_squared
        ok &= _report(f"criterion7 polynomial q={q}", abs(formula - fitted) < 0.01,
                      f"{formula:.4f} vs {fitted:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: decomposition suite


def test_criterion_8_decompositions():
    ok = True
    for idx in (1, 2, 3):
        s = worlds.table3_scenario(idx, n=100_000, seed=worlds.DEFAULT_SEED)
        ds = generate_scenario(s, 0)
        # scenarios with a direct V -> Y path need V in the correct model's
        # covariate set for the reconstruction identity to apply
        adjust = ["Cep"] if worlds.TABLE3_AB[idx][1] == 0 else ["Cep", "V"]
        dec = epc_decomposition(ds, adjust)
        gap = abs(dec.predicted_naive - dec.direct_naive)
        ok &= _report(f"criterion8 epc table3-{idx}", gap < 0.01, f"gap {gap:.4f}")
    for a, b in STUDY_TABLES["table5"].published:
        s = worlds.table5_scenario(a, b, n=100_000, seed=worlds.DEFAULT_SEED)
        ds = generate_scenario(s, 0)
        dec = ec_decomposition(ds, ["V"])
        gap = abs(dec.predicted_naive - dec.direct_naive)
        ok &= _report(f"criterion8 ec table5 a={a} b={b}", gap < 0.01, f"gap {gap:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: engine correctness


def test_criterion_9_engines():
    rng = np.random.default_rng(90909)
    ok = True
    # OLS residual orthogonality
    a = design_with_intercept(rng.normal(size=2000), rng.normal(size=2000))
    y = rng.normal(size=2000)
    beta = ols(a, y).coefficients
    resid = y - a @ beta
    worst = max(
        abs(a[:, j] @ resid) / (np.linalg.norm(a[:, j]) * np.linalg.norm(resid))
        for j in range(a.shape[1])
    )
    ok &= _report("criterion9 OLS residual orthogonality", worst < 1e-8, f"{worst:.2e}")
    # IRLS score and the closed-form oracle
    x = np.concatenate([np.tile([0, 0, 1, 1], 25), [1]]).astype(float)
    yb = np.concatenate([np.tile([0, 1, 0, 1], 25), [1]]).astype(float)
    fit = logistic_irls(design_with_intercept(x), yb)
    oracle_coefs = np.array([0.0, math.log(26 / 25)])
    ok &= _report(
        "criterion9 IRLS matches the closed-form oracle",
        np.max(np.abs(fit.coefficients - oracle_coefs)) < 1e-4,
        f"{fit.coefficients}",
    )
    xl = rng.normal(size=20_000)
    zl = rng.normal(size=20_000)
    pl = 1 / (1 + np.exp(-(-1 + 0.7 * xl - 0.4 * zl)))
    yl = (rng.uniform(size=20_000) < pl).astype(float)
    al = design_with_intercept(xl, zl)
    fitl = logistic_irls(al, yl)
    mu = 1 / (1 + np.exp(-(al @ fitl.coefficients)))
    score = np.max(np.abs(al.T @ (yl - mu)))
    ok &= _report("criterion9 IRLS score at solution", score < 1e-6, f"{score:.2e}")
    # stabilized weight mean
    s = worlds.table3_scenario(1, n=10_000, seed=worlds.DEFAULT_SEED)
    means = []
    for rep in range(10):
        ds = generate_scenario(s, rep)
        means.append(stabilized_weights(ds, "X", ["C", "V"]).mean())
    wmean = float(np.mean(means))
    ok &= _report("criterion9 stabilized weight mean", 0.95 <= wmean <= 1.05, f"{wmean:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: determinism


def test_criterion_10_reproduce_bit_identical(tmp_path):
    paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for p in paths:
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            reproduce("table2", n=400_000, seed=worlds.DEFAULT_SEED).write_csv(fh)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    assert _report("criterion10 bit-identical reproduce CSVs", identical)
    # and through the harness study path
    s = worlds.table3_scenario(1, n=2000, replications=4, seed=worlds.DEFAULT_SEED)
    from peclab.harness import run_study

    a = run_study([s], ["naive_cep", "rc"], jobs=1)
    b = run_study([s], ["naive_cep", "rc"], jobs=2)
    same = [(r.method, r.estimand, r.mean_estimate) for r in a] == [
        (r.method, r.estimand, r.mean_estimate) for r in b
    ]
    assert _report("criterion10 order-independent aggregation", same)
