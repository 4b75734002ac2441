"""Monte Carlo orchestration and golden-table reproduction.

run_study executes a scenario across replications for a set of named
estimation methods and aggregates per-method means and dispersions in
replication-index order, so results are deterministic regardless of worker
count. reproduce runs the canonical configuration for one published table
and reports a cell-by-cell diff at the acceptance tolerances.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import worlds
from .calibrate import apply_calibration, fit_calibration
from .datagen import generate_scenario, generate_table2_world
from .errors import ParameterError, PeclabError
from .estimate import g_computation, ipw_gps_aee, naive_regression_aee
from .exchprob import aee_from_table, empirical_table
from .model import Dataset, EffectEstimate, Estimand, Link, Scenario
from .regress import ols, design_with_intercept

TABLE2_N = 1_000_000


@dataclass(frozen=True)
class StudyResult:
    scenario_name: str
    method: str
    estimand: Estimand
    mean_estimate: float
    mc_sd: float
    replications: int
    runtime_ms: int


# ---------------------------------------------------------------------------
# Method registry: name -> (needs_calibration, fn(dataset) -> [EffectEstimate])

RD = Estimand.RISK_DIFFERENCE
RR = Estimand.RISK_RATIO


def _naive(exposure, adjust):
    def run(d):
        return [naive_regression_aee(d, exposure, adjust)]

    return run


def _ipw(treatment, covariates):
    def run(d):
        return [ipw_gps_aee(d, treatment, covariates)]

    return run


def _gcomp(exposure, adjust):
    def run(d):
        return g_computation(d, exposure, adjust)

    return run


METHODS: dict[str, tuple[bool, object]] = {
    "naive_cep": (False, _naive("Xep", ["Cep"])),
    "naive_cep_vep": (False, _naive("Xep", ["Cep", "Vep"])),
    "rc": (True, _naive("X_RC", ["C_RC", "V_RC"])),
    "ipw_true": (False, _ipw("X", ["C", "V"])),
    "ipw_rc": (True, _ipw("X_RC", ["C_RC", "V_RC"])),
    "oracle_true": (False, _naive("X", ["C", "V"])),
    "gcomp_true_cv": (False, _gcomp("X", ["C", "V"])),
    "gcomp_true_c": (False, _gcomp("X", ["C"])),
    "gcomp_cep": (False, _gcomp("Xep", ["Cep"])),
    "gcomp_cep_vep": (False, _gcomp("Xep", ["Cep", "Vep"])),
    "gcomp_rc": (True, _gcomp("X_RC", ["C_RC", "V_RC"])),
}

TABLE3_METHODS = ["naive_cep", "naive_cep_vep", "rc", "ipw_true", "ipw_rc"]
TABLE4_METHODS = ["gcomp_true_cv", "gcomp_cep", "gcomp_cep_vep", "gcomp_rc"]
TABLE5_METHODS = ["gcomp_true_c", "gcomp_cep", "gcomp_cep_vep", "gcomp_rc"]


def _replicate(scenario: Scenario, rep: int, method_names: list[str]) -> dict:
    ds = generate_scenario(scenario, rep)
    calibrated = None
    out = {}
    for name in method_names:
        needs_rc, fn = METHODS[name]
        if needs_rc:
            if calibrated is None:
                calibrated = apply_calibration(fit_calibration(ds, condition="two"), ds)
            target = calibrated
        else:
            target = ds
        for est in fn(target):
            out[(name, est.estimand)] = est.value
    return out


def _replicate_star(args):
    return _replicate(*args)


def run_study(
    scenario: Scenario, methods: list[str], jobs: int = 1
) -> list[StudyResult]:
    """Generate -> (calibrate) -> estimate per replication; aggregate in
    replication order. Deterministic for a fixed scenario seed."""
    if not methods:
        raise ParameterError("methods must be non-empty")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ParameterError(f"unknown method(s): {', '.join(unknown)}")
    start = time.perf_counter()
    reps = scenario.replications
    tasks = [(scenario, rep, methods) for rep in range(reps)]
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                per_rep = list(
                    pool.map(_replicate_star, tasks, chunksize=max(1, reps // (4 * jobs)))
                )
        else:
            per_rep = [_replicate_star(t) for t in tasks]
    except PeclabError as exc:
        raise PeclabError(f"scenario {scenario.name}: {exc}") from exc
    elapsed_ms = int((time.perf_counter() - start) * 1000)

    results = []
    for name in methods:
        keys = [k for k in per_rep[0] if k[0] == name]
        for key in keys:
            values = np.array([r[key] for r in per_rep])
            results.append(
                StudyResult(
                    scenario_name=scenario.name,
                    method=name,
                    estimand=key[1],
                    mean_estimate=float(values.mean()),
                    mc_sd=float(values.std(ddof=1)) if reps > 1 else 0.0,
                    replications=reps,
                    runtime_ms=elapsed_ms,
                )
            )
    return results


# ---------------------------------------------------------------------------
# Published reference values

# 5 x 9 probability grid: rows Xep in 7..11, columns (x, y) pairs.
_T2_XY = [
    (8.0, 0.7), (8.0, 0.8), (8.0, 0.9),
    (9.0, 0.8), (9.0, 0.9), (9.0, 1.0),
    (10.0, 0.9), (10.0, 1.0), (10.0, 1.1),
]
PUBLISHED_TABLE2 = {}
for _xep, _row in zip(
    (7.0, 8.0, 9.0, 10.0, 11.0),
    [
        [0.24979, 0.50046, 0.24975, 0, 0, 0, 0, 0, 0],
        [0.12476, 0.24999, 0.12470, 0.12506, 0.25041, 0.12507, 0, 0, 0],
        [0.04169, 0.08329, 0.04180, 0.16712, 0.33291, 0.16676, 0.04163, 0.08312, 0.04168],
        [0, 0, 0, 0.12477, 0.24991, 0.12533, 0.12507, 0.25002, 0.12491],
        [0, 0, 0, 0, 0, 0, 0.24940, 0.50242, 0.24818],
    ],
):
    for (_x, _y), _p in zip(_T2_XY, _row):
        PUBLISHED_TABLE2[(_xep, _x, _y)] = float(_p)

PUBLISHED_AEE_10_VS_9 = 0.050104
PUBLISHED_AEE_11_VS_9 = 0.099933
PUBLISHED_CALIBRATION = (4.5, 0.5)
PUBLISHED_P_RD = 0.50

PUBLISHED_TABLE3 = {
    1: {"naive_cep": 0.55, "naive_cep_vep": 0.71, "rc": 1.00, "ipw_true": 0.98, "ipw_rc": 0.97},
    2: {"naive_cep": -0.21, "naive_cep_vep": 0.70, "rc": 1.00, "ipw_true": 0.99, "ipw_rc": 0.97},
    3: {"naive_cep": -0.31, "naive_cep_vep": 0.70, "rc": 1.00, "ipw_true": 0.99, "ipw_rc": 0.96},
}

PUBLISHED_TABLE4 = {
    1: {
        ("gcomp_true_cv", RD): 0.011, ("gcomp_cep", RD): 0.010,
        ("gcomp_cep_vep", RD): 0.010, ("gcomp_rc", RD): 0.011,
        ("gcomp_true_cv", RR): 1.34, ("gcomp_cep", RR): 1.15,
        ("gcomp_cep_vep", RR): 1.20, ("gcomp_rc", RR): 1.34,
    },
    2: {
        ("gcomp_true_cv", RD): 0.004, ("gcomp_cep", RD): -0.047,
        ("gcomp_cep_vep", RD): 0.003, ("gcomp_rc", RD): 0.004,
        ("gcomp_true_cv", RR): 1.35, ("gcomp_cep", RR): 0.80,
        ("gcomp_cep_vep", RR): 1.20, ("gcomp_rc", RR): 1.35,
    },
    3: {
        ("gcomp_true_cv", RD): 0.004, ("gcomp_cep", RD): -0.078,
        ("gcomp_cep_vep", RD): 0.003, ("gcomp_rc", RD): 0.004,
        ("gcomp_true_cv", RR): 1.35, ("gcomp_cep", RR): 0.78,
        ("gcomp_cep_vep", RR): 1.20, ("gcomp_rc", RR): 1.35,
    },
}

PUBLISHED_TABLE5 = {
    (0.0, 0.0): {
        ("gcomp_true_c", RD): 0.011, ("gcomp_cep", RD): -0.014,
        ("gcomp_cep_vep", RD): 0.011, ("gcomp_rc", RD): 0.011,
        ("gcomp_true_c", RR): 1.33, ("gcomp_cep", RR): 0.94,
        ("gcomp_cep_vep", RR): 1.19, ("gcomp_rc", RR): 1.34,
    },
    (0.5, 0.0): {
        ("gcomp_true_c", RD): 0.004, ("gcomp_cep", RD): 0.003,
        ("gcomp_cep_vep", RD): 0.004, ("gcomp_rc", RD): 0.004,
        ("gcomp_true_c", RR): 1.34, ("gcomp_cep", RR): 1.11,
        ("gcomp_cep_vep", RR): 1.20, ("gcomp_rc", RR): 1.34,
    },
    (-0.5, 0.0): {
        ("gcomp_true_c", RD): 0.030, ("gcomp_cep", RD): -0.078,
        ("gcomp_cep_vep", RD): 0.024, ("gcomp_rc", RD): 0.030,
        ("gcomp_true_c", RR): 1.24, ("gcomp_cep", RR): 0.90,
        ("gcomp_cep_vep", RR): 1.13, ("gcomp_rc", RR): 1.24,
    },
    (0.0, 0.5): {
        ("gcomp_true_c", RD): 0.026, ("gcomp_cep", RD): -0.078,
        ("gcomp_cep_vep", RD): 0.022, ("gcomp_rc", RD): 0.026,
        ("gcomp_true_c", RR): 1.26, ("gcomp_cep", RR): 0.90,
        ("gcomp_cep_vep", RR): 1.14, ("gcomp_rc", RR): 1.26,
    },
    (0.0, -0.5): {
        ("gcomp_true_c", RD): 0.005, ("gcomp_cep", RD): 0.004,
        ("gcomp_cep_vep", RD): 0.005, ("gcomp_rc", RD): 0.005,
        ("gcomp_true_c", RR): 1.34, ("gcomp_cep", RR): 1.15,
        ("gcomp_cep_vep", RR): 1.21, ("gcomp_rc", RR): 1.35,
    },
    (0.5, -0.5): {
        ("gcomp_true_c", RD): 0.003, ("gcomp_cep", RD): 0.003,
        ("gcomp_cep_vep", RD): 0.003, ("gcomp_rc", RD): 0.003,
        ("gcomp_true_c", RR): 1.36, ("gcomp_cep", RR): 1.21,
        ("gcomp_cep_vep", RR): 1.23, ("gcomp_rc", RR): 1.37,
    },
    (-0.5, 0.5): {
        ("gcomp_true_c", RD): 0.040, ("gcomp_cep", RD): -0.034,
        ("gcomp_cep_vep", RD): 0.027, ("gcomp_rc", RD): 0.039,
        ("gcomp_true_c", RR): 1.16, ("gcomp_cep", RR): 0.96,
        ("gcomp_cep_vep", RR): 1.08, ("gcomp_rc", RR): 1.15,
    },
}

TOLERANCES = {
    "table2": {"cell": 0.005, "aee": 0.005, "p_rd": 0.02, "calibration": 0.01},
    "table3": {RD: 0.03},
    "table4": {RD: 0.003, RR: 0.05},
    "table5": {RD: 0.005, RR: 0.05},
}


@dataclass(frozen=True)
class CellCheck:
    scenario: str
    method: str
    estimand: str
    mean: float
    mc_sd: float
    runs: int
    paper_value: float
    tolerance: float

    @property
    def abs_diff(self) -> float:
        return abs(self.mean - self.paper_value)

    @property
    def passed(self) -> bool:
        return self.abs_diff <= self.tolerance


@dataclass(frozen=True)
class ReproReport:
    table: str
    cells: list[CellCheck]
    runtime_ms: int

    @property
    def n_pass(self) -> int:
        return sum(c.passed for c in self.cells)

    @property
    def all_pass(self) -> bool:
        return self.n_pass == len(self.cells)

    def write_csv(self, fh) -> None:
        fh.write("scenario,method,estimand,mean,mc_sd,runs,paper_value,abs_diff,pass\n")
        for c in self.cells:
            fh.write(
                f"{c.scenario},{c.method},{c.estimand},{_fmt(c.mean)},{_fmt(c.mc_sd)},"
                f"{c.runs},{_fmt(c.paper_value)},{_fmt(c.abs_diff)},{str(c.passed).lower()}\n"
            )

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self.write_csv(fh)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _reproduce_table2(n: int, seed: int) -> list[CellCheck]:
    tol = TOLERANCES["table2"]
    ds = generate_table2_world(n, seed)
    table = empirical_table(ds)
    cells = []
    for (xep, x, y), published in sorted(PUBLISHED_TABLE2.items()):
        cells.append(
            CellCheck(
                scenario="table2",
                method="exchprob",
                estimand=f"cell(xep={xep:g};x={x:g};y={y:g})",
                mean=table.cell(xep, x, y),
                mc_sd=0.0,
                runs=1,
                paper_value=published,
                tolerance=tol["cell"],
            )
        )
    aee = aee_from_table(table, 10.0, 9.0)
    cells.append(
        CellCheck("table2", "aee", "xep:10vs9", aee.value, 0.0, 1, PUBLISHED_AEE_10_VS_9, tol["aee"])
    )
    aee_rc = aee_from_table(table, 11.0, 9.0)
    cells.append(
        CellCheck("table2", "aee", "xrc:10vs9", aee_rc.value, 0.0, 1, PUBLISHED_AEE_11_VS_9, tol["aee"])
    )
    calib = ols(design_with_intercept(ds["Xep"]), ds["X"])
    g0, g1 = (float(v) for v in calib.coefficients)
    cells.append(
        CellCheck("table2", "calibration", "gamma0", g0, 0.0, 1, PUBLISHED_CALIBRATION[0], tol["calibration"])
    )
    cells.append(
        CellCheck("table2", "calibration", "gamma1", g1, 0.0, 1, PUBLISHED_CALIBRATION[1], tol["calibration"])
    )
    r2 = ols(design_with_intercept(ds["X"]), ds["Xep"]).r_squared
    cells.append(CellCheck("table2", "p_rd", "r_squared", float(r2), 0.0, 1, PUBLISHED_P_RD, tol["p_rd"]))
    return cells


def _reproduce_study(table: str, n, runs, seed, jobs) -> list[CellCheck]:
    cells = []
    if table == "table3":
        tol = TOLERANCES["table3"][RD]
        for idx in (1, 2, 3):
            scenario = worlds.table3_scenario(
                idx,
                n=n or worlds.DEFAULT_N,
                replications=runs or worlds.DEFAULT_RUNS,
                seed=seed if seed is not None else worlds.DEFAULT_SEED,
            )
            results = run_study(scenario, TABLE3_METHODS, jobs=jobs)
            by_key = {(r.method, r.estimand): r for r in results}
            for method, published in PUBLISHED_TABLE3[idx].items():
                r = by_key[(method, RD)]
                cells.append(
                    CellCheck(
                        scenario.name, method, "riskDifference", r.mean_estimate,
                        r.mc_sd, r.replications, published, tol,
                    )
                )
        return cells

    spec = {
        "table4": (PUBLISHED_TABLE4, TABLE4_METHODS, worlds.table4_scenario),
        "table5": (PUBLISHED_TABLE5, TABLE5_METHODS, worlds.table5_scenario),
    }[table]
    published_grid, methods, build = spec
    tols = TOLERANCES[table]
    for key, published_cells in published_grid.items():
        if table == "table4":
            scenario = build(
                key,
                n=n or worlds.DEFAULT_N,
                replications=runs or worlds.DEFAULT_RUNS,
                seed=seed if seed is not None else worlds.DEFAULT_SEED,
            )
        else:
            scenario = build(
                key[0], key[1],
                n=n or worlds.DEFAULT_N,
                replications=runs or worlds.DEFAULT_RUNS,
                seed=seed if seed is not None else worlds.DEFAULT_SEED,
            )
        results = run_study(scenario, methods, jobs=jobs)
        by_key = {(r.method, r.estimand): r for r in results}
        for (method, estimand), published in published_cells.items():
            r = by_key[(method, estimand)]
            cells.append(
                CellCheck(
                    scenario.name, method, estimand.value, r.mean_estimate,
                    r.mc_sd, r.replications, published, tols[estimand],
                )
            )
    return cells


def reproduce(
    table: str,
    n: int | None = None,
    runs: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
) -> ReproReport:
    """Run the canonical configuration for a published table and diff every
    cell at the acceptance tolerance."""
    start = time.perf_counter()
    if table == "table2":
        cells = _reproduce_table2(
            n or TABLE2_N, seed if seed is not None else worlds.DEFAULT_SEED
        )
    elif table in ("table3", "table4", "table5"):
        cells = _reproduce_study(table, n, runs, seed, jobs)
    else:
        raise ParameterError("table must be one of table2, table3, table4, table5")
    return ReproReport(
        table=table, cells=cells, runtime_ms=int((time.perf_counter() - start) * 1000)
    )
