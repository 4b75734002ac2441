"""Workloads, output checks and timing loops of the peclab benchmark.

Every operation is one ``peclab reproduce`` call made in process through
``peclab.cli.dispatch``, the path a user of the CLI takes. Its report CSV is
checked cell by cell against goldens recorded from the same call (see
``record_goldens.py``), so a run that gets faster by computing something
else counts its operations as failed.

Importing this module pins BLAS threads and then imports peclab, which
``run.py`` finds first on ``sys.path`` in the checkout's ``src``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, fixed before numpy loads; the pool workers of
# --jobs 2 inherit it, so threads never exceed the two workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import csv
import ctypes
import glob
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import peclab
import spans
from peclab import worlds
from peclab.cli import dispatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / "_runs"
GOLDENS = HERE / "goldens.json"

# Goldens exist for peclab seeds 0..GOLDEN_SEEDS-1; the benchmark's --seed is
# reduced modulo this, so every seed maps to a checked input. Work on a change
# is done at worlds.DEFAULT_SEED (5); the others are held out from it.
GOLDEN_SEEDS = 16

# Report CSVs print 6 significant digits, so a change of bit-level summation
# order can move the last digit by one unit (at most 1e-5 relative). Two
# units is still far below the Monte Carlo standard error of every cell
# (relative 1e-3 or more at these sizes), so a wrong estimator fails.
REL_TOL = 2e-5
NUMERIC_COLUMNS = {"mean", "mc_sd", "paper_value", "abs_diff"}

@dataclass(frozen=True)
class Workload:
    name: str
    table: str
    runs: int | None  # None: the table has no replications (table2)
    n: int
    jobs: int
    kernel: str  # reference kernel, a key of KERNELS

    def argv(self, seed: int, out: Path, jobs: int | None = None, warmup=False) -> list[str]:
        # the warm-up call takes the same code path at a fifth of the rows
        runs, n = (1 if self.runs else None, self.n // 5) if warmup else (self.runs, self.n)
        size = (["--runs", str(runs)] if runs else []) + ["--n", str(n)]
        return [
            "reproduce", "--table", self.table, *size, "--seed", str(seed),
            "--jobs", str(jobs or self.jobs), "--out", str(out),
        ]

    @property
    def golden_key(self) -> str:
        """The call without seed, jobs and output path, which goldens are keyed by."""
        return " ".join(self.argv(0, Path())[:-6])

    def build_scenarios(self, seed: int) -> list:
        """The scenario objects ``reproduce`` builds for this table."""
        build = {"table3": worlds.table3_scenario, "table4": worlds.table4_scenario}.get(self.table)
        if build is None:
            return []
        return [build(k, n=self.n, replications=self.runs, seed=seed) for k in (1, 2, 3)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("continuous_study", "table3", runs=20, n=10_000, jobs=1, kernel="small"),
        Workload("binary_study", "table4", runs=10, n=10_000, jobs=1, kernel="small"),
        Workload("exchprob_grid", "table2", runs=None, n=1_000_000, jobs=1, kernel="large"),
        Workload("binary_study_jobs2", "table4", runs=10, n=10_000, jobs=2, kernel="small"),
    )
}


def peclab_seed(seed: int) -> int:
    return seed % GOLDEN_SEEDS


def load_goldens(path: Path = GOLDENS) -> dict:
    """The recorded goldens; an unreadable file leaves every call without one,
    so each operation fails its check instead of the run crashing."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: goldens unreadable: {exc!r}", file=sys.stderr)
        return {}


def golden_for(goldens: dict, workload: Workload, seed: int):
    """The recorded output for this call, or None when none was recorded."""
    return goldens.get("outputs", {}).get(workload.golden_key, {}).get(str(seed))


# ---------------------------------------------------------------------------
# Output check


def _close(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_output(text: str, exit_code: int, golden) -> list[str]:
    """Problems with one report against its golden; empty when it matches.

    ``reproduce`` exits 3 when a cell misses the published tolerance, which
    it does by design for the binary tables and at reduced run counts; the
    exit code is compared with the recorded one, not with 0. A golden that is
    missing or malformed is a problem to report, never a crash.
    """
    if golden is None:
        return ["no golden recorded for this call"]
    try:
        problems = []
        if exit_code != golden["exit_code"]:
            problems.append(f"exit code {exit_code}, golden {golden['exit_code']}")
        got = list(csv.reader(io.StringIO(text)))
        want = list(csv.reader(io.StringIO(golden["csv"])))
        if not got or got[0] != want[0] or len(got) != len(want):
            return problems + [f"report shape differs: {len(got)} rows, golden {len(want)}"]
        header = want[0]
        for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
            for col, a, b in zip(header, g, w):
                same = _close(a, b) if col in NUMERIC_COLUMNS else a == b
                if not same:
                    problems.append(f"row {row} ({'/'.join(w[:3])}) {col}: {a}, golden {b}")
        return problems
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"golden unusable: {exc!r}"]


def cells_pass(text: str) -> int:
    return sum(row["pass"] == "true" for row in csv.DictReader(io.StringIO(text)))


def replications(text: str) -> int:
    """Worlds generated by one report: the runs of each distinct scenario."""
    runs = {row["scenario"]: int(row["runs"]) for row in csv.DictReader(io.StringIO(text))}
    return sum(runs.values())


# ---------------------------------------------------------------------------
# Operations


# The shared host's speed drifts by a quarter or more within minutes (a
# 2-core VM: in one process, 25 s windows of the same operation had medians
# from 1.25 s to 1.75 s). So a fixed numpy kernel runs between the timed
# operations, and each operation's time is divided by the slowdown the
# kernels around it saw (kernel time / its nominal time). Each workload uses
# the kernel whose kind of work tracks its own: over 8 processes, the
# small-array kernel cut the spread of binary_study's median from 0.15 to
# 0.04 and the large-array kernel cut exchprob_grid's from 0.11 to 0.035,
# while the other kernel did worse on each. (Over sets of 10 benchmark runs
# in busier periods exchprob_grid still spread about 0.15, as its raw times
# did; see README.md.) The nominal times are about the
# kernels' medians on that VM; they only set the scale and are the same on
# every commit compared.


def _small_array_kernel() -> None:
    """Many small calls, like a study replication: sampling, exp/log1p and
    QR/solve/SVD of 10^4 x 4 matrices."""
    gen = np.random.Generator(np.random.Philox(7))
    for _ in range(20):
        a = gen.random((10_000, 4))
        y = np.exp(-a[:, 1]) + np.log1p(a[:, 2])
        q, r = np.linalg.qr(a)
        np.linalg.solve(r, q.T @ y)
        np.linalg.svd(a, compute_uv=False)


def _large_array_kernel() -> None:
    """A few tall calls, like the table2 world: rounded uniforms, unique with
    inverse, bincount and QR/solve/SVD of a 250,000 x 2 design."""
    gen = np.random.Generator(np.random.Philox(7))
    n = 250_000
    x = np.rint(8 + 2 * gen.random(n))
    xep = x + np.rint(-1 + 2 * gen.random(n))
    _, inverse = np.unique(xep, return_inverse=True)
    np.bincount(inverse)
    a = np.column_stack([np.ones(n), xep])
    np.linalg.svd(a, compute_uv=False)
    q, r = np.linalg.qr(a)
    np.linalg.solve(r, q.T @ x)


# name -> (kernel, nominal seconds)
KERNELS = {"small": (_small_array_kernel, 0.025), "large": (_large_array_kernel, 0.028)}


def slowdown(kernel: str) -> float:
    """How much slower than nominal the machine runs this kind of work now."""
    fn, nominal = KERNELS[kernel]
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) / nominal


@dataclass
class Op:
    wall_s: float
    problems: list[str] = field(default_factory=list)
    cells_pass: int = 0
    reps: int = 0
    sha256: str = ""
    data: bytes = b""
    slowdown: float = 1.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_op(call, argv: list[str], out: Path, golden, reference: bytes | None = None) -> Op:
    """One timed ``reproduce`` call, then its output check (untimed).

    ``reference`` holds the bytes the same inputs gave at ``--jobs 1``;
    results must be bit-identical across ``--jobs``.
    """
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        exit_code = call(argv)
    except Exception as exc:  # a crash inside the program is a failed operation
        traceback.print_exc()
        return Op(time.perf_counter() - start, [f"raised {exc!r}"])
    wall = time.perf_counter() - start
    try:
        data = out.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Op(wall, [f"report unreadable: {exc!r}"])
    problems = check_output(text, exit_code, golden)
    if reference is not None and data != reference:
        problems.append("report bytes differ from the --jobs 1 report")
    try:
        reps, passed = replications(text), cells_pass(text)
    except (KeyError, ValueError) as exc:
        return Op(wall, problems + [f"report malformed: {exc!r}"])
    return Op(wall, problems, passed, reps, hashlib.sha256(data).hexdigest(), data)


def timed_ops(one_op, seconds: float, kernel: str) -> list[Op]:
    """Closed loop: run operations back to back until ``seconds`` have passed
    (at least one). The reference kernel runs before the first operation and
    after each; an operation's slowdown is the mean of the two around it."""
    ops = []
    deadline = time.perf_counter() + seconds
    before = slowdown(kernel)
    while not ops or time.perf_counter() < deadline:
        op = one_op()
        after = slowdown(kernel)
        op.slowdown = (before + after) / 2
        ops.append(op)
        before = after
    return ops


def untraced_ops(workload: Workload, seed: int, jobs: int, seconds: float, golden,
                 reference: bytes | None = None) -> list[Op]:
    """Time operations through the package's own functions; refuses to start
    while any tracing wrapper is installed."""
    spans.assert_untraced()
    out = out_path(workload.name)
    argv = workload.argv(seed, out, jobs=jobs)
    return timed_ops(lambda: run_op(dispatch, argv, out, golden, reference), seconds, workload.kernel)


def out_path(tag: str) -> Path:
    RUNS_DIR.mkdir(exist_ok=True)
    return RUNS_DIR / f"{tag}.csv"


def warm_up(workload: Workload, seed: int) -> None:
    """One small call through the same path, so lazy set-up is done before
    timing starts."""
    code = dispatch(workload.argv(seed, out_path("warmup"), jobs=1, warmup=True))
    if code not in (0, 3):
        raise RuntimeError(f"warm-up reproduce call exited {code}")


def median_norm(ops: list[Op]) -> float:
    """Median operation time at nominal machine speed, in seconds."""
    return statistics.median(op.wall_s / op.slowdown for op in ops)


def problems_of(ops: list[Op], limit: int = 5) -> list[str]:
    return [p for op in ops for p in op.problems][:limit]


# ---------------------------------------------------------------------------
# Environment record


def _openblas():
    """(config string, thread count) of the OpenBLAS bundled with numpy's
    wheel, or (None, None) where there is none."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get_config is not None and get_threads is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return get_config().decode(), get_threads()
    return None, None


def _l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return res.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "peclab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    config, threads = _openblas()
    return {
        "git_sha": _git_sha(),
        "peclab_source_sha256": _source_sha256(),
        "peclab_file": peclab.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "seed": seed,
        "peclab_seed": peclab_seed(seed),
        "argv": sys.argv,
    }
