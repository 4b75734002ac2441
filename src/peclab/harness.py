"""Monte Carlo orchestration and golden-table reproduction.

A method is a row of data in METHODS: an estimator kind (naive, ipw or
gcomp), an exposure column and its adjustment columns. ``estimate_kind``
turns a kind into its estimator call, for run_study and ``peclab estimate``
alike. run_study runs the replications of one or more scenarios that share
seed, n and replications; each replication generates every scenario's
world, calibrates it when a method names a calibrated column, and calls
each method's estimator. It aggregates per-method means and dispersions in
replication-index order, so results are deterministic regardless of worker
count. With jobs > 1 the replications are split into contiguous blocks,
one per child process, and the caller only waits for each block's results.
reproduce runs the canonical configuration for one published table, all of
its scenarios in one run_study call and one set of child processes, and
reports a cell-by-cell diff at the acceptance tolerances.

A replication factorises its world once: the first fit on a generated
world builds the dataset's QR factor (``Dataset.factor``), the calibration
is solved on it, and the calibrated columns join it as coordinates on the
measured columns. Every linear fit and every logistic rank check of the
replication then reads that factor, and each column space is fitted once,
so ``rc`` and ``gcomp_rc`` take the fits of ``naive_cep_vep`` and
``gcomp_cep_vep`` (or make them, when those methods are not run): a table3
world makes one tall QR, the world's own (the IPW outcome slopes are
weighted moments), and a table4 or table5 world three IRLS fits, each
started from the factor's linear-probability fit.

table2 is one world of 10^6 rows, tabulated as it is drawn: the
exchangeability-probability grid and its AEEs come from one
``empirical_table`` of the ``table2_blocks`` stream (one pass over blocks of
rows, each value keyed once and indexed by one uint8 counting pass per
support point: no sort once a block brings no new value, no binary search,
and no array that grows with the rows), and both the calibration (gamma0,
gamma1) and the p_rd R^2 are read from the same table's joint (Xep, X)
counts. The world's columns are discrete, so those counts are sufficient
for both fits and no tall design is built.

Every keyed draw is (seed, replication, column), without the scenario, so
the scenarios of a table share common random numbers by construction; a
replication draws each stream once and every scenario's world is built from
it, with the same values each scenario would draw alone. Their Monte Carlo
errors are therefore correlated: a claim that compares two scenarios of a
table (table5's directional claim, for one) needs the standard error of the
paired per-replication differences, not one from each scenario's mc_sd.
"""

from __future__ import annotations

import copy
import ctypes
import multiprocessing
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import worlds
from .calibrate import apply_calibration, fit_calibration
# generate_table2_world stays bound here, as ols does below: perfbench/spans.py
# wraps harness.generate_table2_world by name
from .datagen import generate_scenario, generate_table2_world, table2_blocks  # noqa: F401
from .errors import ParameterError, PeclabError, SingularDesignError
from .estimate import g_computation, ipw_gps_aee, naive_regression_aee
from .exchprob import ExchProbTable, aee_from_table, empirical_table
from .model import Estimand, Scenario, check_scenario
# ols stays bound here: perfbench/spans.py wraps harness.ols by name
from .regress import ols  # noqa: F401

TABLE2_N = 1_000_000


@dataclass(frozen=True)
class StudyResult:
    scenario_name: str
    method: str
    estimand: Estimand
    mean_estimate: float
    mc_sd: float
    replications: int


# ---------------------------------------------------------------------------
# Method registry: name -> (kind, exposure column, adjustment columns).
# Columns a generated world lacks (the *_RC ones) come from calibrating it.

RD = Estimand.RISK_DIFFERENCE
RR = Estimand.RISK_RATIO

METHODS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "naive_cep": ("naive", "Xep", ("Cep",)),
    "naive_cep_vep": ("naive", "Xep", ("Cep", "Vep")),
    "rc": ("naive", "X_RC", ("C_RC", "V_RC")),
    "ipw_true": ("ipw", "X", ("C", "V")),
    "ipw_rc": ("ipw", "X_RC", ("C_RC", "V_RC")),
    "oracle_true": ("naive", "X", ("C", "V")),
    "gcomp_true_cv": ("gcomp", "X", ("C", "V")),
    "gcomp_true_c": ("gcomp", "X", ("C",)),
    "gcomp_cep": ("gcomp", "Xep", ("Cep",)),
    "gcomp_cep_vep": ("gcomp", "Xep", ("Cep", "Vep")),
    "gcomp_rc": ("gcomp", "X_RC", ("C_RC", "V_RC")),
}


def estimate_kind(kind: str, d, exposure: str, adjust, delta=1.0, truncate_quantile=None) -> dict:
    """{estimand: value} of one method kind on a dataset: the RD for naive
    and ipw, the RD then the RR of one fit for gcomp. The estimators are
    this module's globals, looked up at call time."""
    if kind == "naive":
        return {RD: naive_regression_aee(d, exposure, adjust, delta=delta)}
    if kind == "ipw":
        return {RD: ipw_gps_aee(d, exposure, adjust, delta, truncate_quantile)}
    return dict(zip((RD, RR), g_computation(d, exposure, adjust, delta=delta)))


def _replicate(
    scenario: Scenario, rep: int, method_names: list[str], draws: dict | None = None
) -> dict:
    """{(method, estimand): value} for one replication. The world is
    calibrated when a method names a column it lacks; that adds every *_RC
    column, so it happens at most once."""
    ds = generate_scenario(scenario, rep, draws)
    out = {}
    for name in method_names:
        kind, exposure, adjust = METHODS[name]
        if any(c not in ds for c in (exposure, *adjust)):
            ds = apply_calibration(fit_calibration(ds, condition="two"), ds)
        out.update(((name, e), v) for e, v in estimate_kind(kind, ds, exposure, adjust).items())
    return out


class _ScenarioFailed(Exception):
    """A replication's PeclabError, args (scenario name, error); run_study
    unwraps it, so only the name crosses the process boundary beside the
    error."""


def _replicate_block(scenarios, method_names, start: int, stop: int) -> list[list[dict]]:
    """Replications start..stop-1 of every scenario, in order. Each
    replication draws its streams into one dict that lives as long as it."""
    block = []
    for rep in range(start, stop):
        draws = {}
        out = []
        for scenario in scenarios:
            try:
                out.append(_replicate(scenario, rep, method_names, draws))
            except PeclabError as exc:
                raise _ScenarioFailed(scenario.name, exc) from None
        block.append(out)
    return block


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_heap() -> None:
    """Keep this process's freed heap for reuse. Sets glibc's trim threshold
    to 1 GiB and its mmap threshold to 32 MiB. Otherwise a replication's
    10^4-row columns go back to the OS when freed and fault in again for the
    next world. The setting is process-wide, so only the CLI's main and
    run_study's child processes call this: never an import or dispatch.
    A silent no-op where mallopt is absent."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _run_block(writer, scenarios, method_names, start: int, stop: int) -> None:
    """A child process's work: one reply, its block's results or the
    exception that stopped it, which carries the child's traceback as a
    note."""
    keep_heap()
    try:
        reply = (True, _replicate_block(scenarios, method_names, start, stop))
    except Exception as exc:
        if not isinstance(exc, _ScenarioFailed):
            exc.add_note(traceback.format_exc())
        reply = (False, exc)
    writer.send(reply)
    writer.close()


def _replicate_in_children(scenarios, method_names, reps: int, jobs: int) -> list[list[dict]]:
    """The replications in min(jobs, reps) contiguous blocks whose sizes
    differ by at most one, one child process per block, reassembled in
    replication order. The caller only waits. It raises the first failure
    in replication order, as a serial run would. Every child is joined
    before this returns or raises; one that has not replied is terminated
    first. The children use the platform's default start method, fork on
    Linux, so they start with the caller's imports: spawn would import
    numpy and peclab again in each child, about 0.17 s."""
    k = min(jobs, reps)
    bounds = [i * reps // k for i in range(k + 1)]
    context = multiprocessing.get_context()
    children = []
    replied = 0
    try:
        for start, stop in zip(bounds, bounds[1:]):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(
                target=_run_block, args=(writer, scenarios, method_names, start, stop)
            )
            child.start()
            children.append((child, reader, start, stop))
            # the child then holds the only writer, so its exit ends the pipe
            writer.close()
        per_rep = []
        for child, reader, start, stop in children:
            try:
                ok, value = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"the worker for replications {start}..{stop - 1} exited with code "
                    f"{child.exitcode} before it replied"
                ) from None
            replied += 1
            if not ok:
                raise value
            per_rep += value
        return per_rep
    finally:
        for i, (child, reader, _, _) in enumerate(children):
            reader.close()
            if i >= replied:
                child.terminate()
            child.join()


def run_study(
    scenarios: list[Scenario], methods: list[str], jobs: int = 1
) -> list[StudyResult]:
    """Generate -> (calibrate) -> estimate per replication; aggregate each
    scenario in replication order, scenario after scenario.

    The scenarios must share seed, n and replications. A replication draws
    each keyed stream once and builds every scenario's world from it, so the
    scenarios use common random numbers, exactly the values each would draw
    alone. With ``jobs`` > 1 the replications run in min(jobs, replications)
    child processes, each on one contiguous block; with one block the study
    runs in this process and starts no child. Deterministic for a fixed seed
    at any ``jobs``. A replication's PeclabError reaches the caller as its
    own class, with its attributes, and a message prefixed by the name of
    the scenario that raised it; any other exception keeps its class."""
    if not scenarios:
        raise ParameterError("scenarios must be non-empty")
    if not methods:
        raise ParameterError("methods must be non-empty")
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    # checked here, once, so a bad scenario fails before any worker starts
    for scenario in scenarios:
        check_scenario(scenario)
    for field in ("seed", "n", "replications"):
        values = [getattr(s, field) for s in scenarios]
        if len(set(values)) > 1:
            raise ParameterError(
                f"scenarios of one study must share {field}, got "
                + ", ".join(f"{s.name} {v}" for s, v in zip(scenarios, values))
            )
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ParameterError(f"unknown method(s): {', '.join(unknown)}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise ParameterError(f"repeated method(s): {', '.join(dict.fromkeys(repeated))}")
    reps = scenarios[0].replications
    try:
        if min(jobs, reps) > 1:
            per_rep = _replicate_in_children(scenarios, methods, reps, jobs)
        else:
            per_rep = _replicate_block(scenarios, methods, 0, reps)
    except _ScenarioFailed as failed:
        name, exc = failed.args
        # a copy keeps the class and its attributes (columns, trace)
        err = copy.copy(exc)
        err.args = (f"scenario {name}: {exc}",)
        raise err from exc

    # a replication's keys come in method order, RD before RR
    results = []
    for i, scenario in enumerate(scenarios):
        for name, estimand in per_rep[0][i]:
            values = np.array([r[i][name, estimand] for r in per_rep])
            results.append(
                StudyResult(
                    scenario_name=scenario.name,
                    method=name,
                    estimand=estimand,
                    mean_estimate=float(values.mean()),
                    mc_sd=float(values.std(ddof=1)) if reps > 1 else 0.0,
                    replications=reps,
                )
            )
    return results


# ---------------------------------------------------------------------------
# Published reference values

# 5 x 9 probability grid: the header is the (x, y) pairs, one row per Xep
_T2_XY = (
    (8.0, 0.7), (8.0, 0.8), (8.0, 0.9),
    (9.0, 0.8), (9.0, 0.9), (9.0, 1.0),
    (10.0, 0.9), (10.0, 1.0), (10.0, 1.1),
)
_T2_GRID = {
    7.0: (0.24979, 0.50046, 0.24975, 0, 0, 0, 0, 0, 0),
    8.0: (0.12476, 0.24999, 0.12470, 0.12506, 0.25041, 0.12507, 0, 0, 0),
    9.0: (0.04169, 0.08329, 0.04180, 0.16712, 0.33291, 0.16676, 0.04163, 0.08312, 0.04168),
    10.0: (0, 0, 0, 0.12477, 0.24991, 0.12533, 0.12507, 0.25002, 0.12491),
    11.0: (0, 0, 0, 0, 0, 0, 0.24940, 0.50242, 0.24818),
}
PUBLISHED_TABLE2 = {
    (xep, x, y): float(p)
    for xep, row in _T2_GRID.items()
    for (x, y), p in zip(_T2_XY, row, strict=True)
}

PUBLISHED_AEE_10_VS_9 = 0.050104
PUBLISHED_AEE_11_VS_9 = 0.099933

# table2's cells past the grid, {(method, estimand): value} in report order;
# every table2 cell's tolerance is keyed by its method
TABLE2_SUMMARY = {
    ("aee", "xep:10vs9"): PUBLISHED_AEE_10_VS_9,
    ("aee", "xrc:10vs9"): PUBLISHED_AEE_11_VS_9,
    ("calibration", "gamma0"): 4.5,
    ("calibration", "gamma1"): 0.5,
    ("p_rd", "r_squared"): 0.50,
}
TABLE2_TOLERANCES = {"exchprob": 0.005, "aee": 0.005, "calibration": 0.01, "p_rd": 0.02}


@dataclass(frozen=True)
class StudyTable:
    """One published study table as data, in the layout the paper prints.

    ``cells`` is the header: the ``(method, estimand)`` of each column, in
    report order. ``published`` maps each row key to its row, a tuple of
    numbers with one per header cell. ``build(key, n=, replications=,
    seed=)`` returns the scenario of one row; ``tolerance`` is the
    acceptance tolerance per estimand. A record holds builders and data
    only: the study loop looks run_study up in this module at call time, so
    a wrapper installed there (perfbench/spans.py) sees every study.
    """

    build: Callable[..., Scenario]
    cells: tuple
    published: dict
    tolerance: dict

    @property
    def methods(self) -> list[str]:
        """Every method of the header, in first-published order."""
        return list(dict.fromkeys(m for m, _ in self.cells))


STUDY_TABLES = {
    "table3": StudyTable(
        build=worlds.table3_scenario,
        cells=(
            ("naive_cep", RD), ("naive_cep_vep", RD), ("rc", RD), ("ipw_true", RD), ("ipw_rc", RD),
        ),
        published={
            1: (0.55, 0.71, 1.00, 0.98, 0.97),
            2: (-0.21, 0.70, 1.00, 0.99, 0.97),
            3: (-0.31, 0.70, 1.00, 0.99, 0.96),
        },
        tolerance={RD: 0.03},
    ),
    "table4": StudyTable(
        build=worlds.table4_scenario,
        cells=(
            ("gcomp_true_cv", RD), ("gcomp_cep", RD), ("gcomp_cep_vep", RD), ("gcomp_rc", RD),
            ("gcomp_true_cv", RR), ("gcomp_cep", RR), ("gcomp_cep_vep", RR), ("gcomp_rc", RR),
        ),
        published={
            1: (0.011, 0.010, 0.010, 0.011, 1.34, 1.15, 1.20, 1.34),
            2: (0.004, -0.047, 0.003, 0.004, 1.35, 0.80, 1.20, 1.35),
            3: (0.004, -0.078, 0.003, 0.004, 1.35, 0.78, 1.20, 1.35),
        },
        tolerance={RD: 0.003, RR: 0.05},
    ),
    "table5": StudyTable(
        build=lambda ab, **size: worlds.table5_scenario(*ab, **size),
        cells=(
            ("gcomp_true_c", RD), ("gcomp_cep", RD), ("gcomp_cep_vep", RD), ("gcomp_rc", RD),
            ("gcomp_true_c", RR), ("gcomp_cep", RR), ("gcomp_cep_vep", RR), ("gcomp_rc", RR),
        ),
        published={
            (0.0, 0.0): (0.011, -0.014, 0.011, 0.011, 1.33, 0.94, 1.19, 1.34),
            (0.5, 0.0): (0.004, 0.003, 0.004, 0.004, 1.34, 1.11, 1.20, 1.34),
            (-0.5, 0.0): (0.030, -0.078, 0.024, 0.030, 1.24, 0.90, 1.13, 1.24),
            (0.0, 0.5): (0.026, -0.078, 0.022, 0.026, 1.26, 0.90, 1.14, 1.26),
            (0.0, -0.5): (0.005, 0.004, 0.005, 0.005, 1.34, 1.15, 1.21, 1.35),
            (0.5, -0.5): (0.003, 0.003, 0.003, 0.003, 1.36, 1.21, 1.23, 1.37),
            (-0.5, 0.5): (0.040, -0.034, 0.027, 0.039, 1.16, 0.96, 1.08, 1.15),
        },
        tolerance={RD: 0.005, RR: 0.05},
    ),
}

TABLES = ("table2", *STUDY_TABLES)


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


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _table2_fits(table: ExchProbTable) -> tuple[float, float, float]:
    """(gamma0, gamma1) of the calibration X ~ 1 + Xep and the R^2 of Xep on
    [1, X], from the empirical table's joint (Xep, X) counts.

    The moments are sums over at most MAX_SUPPORT^2 cells: the means, the
    centred sums S_ee, S_xx and S_ex, then gamma1 = S_ex / S_ee,
    gamma0 = mean(X) - gamma1 mean(Xep) and R^2 = S_ex^2 / (S_ee S_xx),
    clipped to 1 as every linear fit's R^2 is. A column's centred sum is 0
    exactly when its support has one point; that makes a design singular,
    reported as the least-squares fits report it, Xep's before X's."""
    c = table.counts.sum(axis=2)
    moments = []
    for name, support, counts in (
        ("Xep", table.xep_support, c.sum(axis=1)),
        ("X", table.x_support, c.sum(axis=0)),
    ):
        if support.size == 1:
            raise SingularDesignError.of([name])
        mean = counts @ support / counts.sum()
        centred = support - mean
        moments.append((mean, centred, counts @ centred**2))
    (ep_mean, ep_centred, s_ee), (x_mean, x_centred, s_xx) = moments
    s_ex = ep_centred @ c @ x_centred
    gamma1 = s_ex / s_ee
    return x_mean - gamma1 * ep_mean, gamma1, min(1.0, s_ex * s_ex / (s_ee * s_xx))


def _reproduce_table2(n: int, seed: int) -> list[CellCheck]:
    """The table2 cells from one world and one tabulation, each column
    counted against its sorted support: the grid and the AEEs from its
    probabilities, the calibration and p_rd from its counts
    (``_table2_fits``)."""
    table = empirical_table(table2_blocks(n, seed))
    means = {
        ("aee", "xep:10vs9"): aee_from_table(table, 10.0, 9.0),
        ("aee", "xrc:10vs9"): aee_from_table(table, 11.0, 9.0),
    }
    (
        means["calibration", "gamma0"],
        means["calibration", "gamma1"],
        means["p_rd", "r_squared"],
    ) = _table2_fits(table)
    rows = [
        (("exchprob", f"cell(xep={xep:g};x={x:g};y={y:g})"), table.cell(xep, x, y), published)
        for (xep, x, y), published in PUBLISHED_TABLE2.items()
    ]
    rows += [(key, means[key], published) for key, published in TABLE2_SUMMARY.items()]
    return [
        CellCheck("table2", method, estimand, float(mean), 0.0, 1, published,
                  TABLE2_TOLERANCES[method])
        for (method, estimand), mean, published in rows
    ]


def _reproduce_study(study: StudyTable, n: int, runs: int, seed: int, jobs: int) -> list[CellCheck]:
    scenarios = [
        study.build(key, n=n, replications=runs, seed=seed) for key in study.published
    ]
    results = run_study(scenarios, study.methods, jobs=jobs)
    by_key = {(r.scenario_name, r.method, r.estimand): r for r in results}
    cells = []
    for scenario, row in zip(scenarios, study.published.values()):
        for (method, estimand), published in zip(study.cells, row, strict=True):
            r = by_key[(scenario.name, method, estimand)]
            cells.append(
                CellCheck(
                    scenario.name, method, estimand.value, r.mean_estimate,
                    r.mc_sd, r.replications, published, study.tolerance[estimand],
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
    if table not in TABLES:
        raise ParameterError(f"table must be one of {', '.join(TABLES)}")
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    start = time.perf_counter()
    seed = worlds.DEFAULT_SEED if seed is None else seed
    study = STUDY_TABLES.get(table)
    if study is None:
        # table2 draws one world, so any runs would be ignored; runs < 1 keeps
        # the error every table gives it
        if runs is not None:
            raise ParameterError(
                "runs must be >= 1" if runs < 1 else "table2 draws one world and takes no runs"
            )
        cells = _reproduce_table2(TABLE2_N if n is None else n, seed)
    else:
        n = worlds.DEFAULT_N if n is None else n
        runs = worlds.DEFAULT_RUNS if runs is None else runs
        cells = _reproduce_study(study, n, runs, seed, jobs)
    return ReproReport(
        table=table, cells=cells, runtime_ms=int((time.perf_counter() - start) * 1000)
    )
