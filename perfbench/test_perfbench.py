"""Tests of the benchmark itself (not of peclab).

    python3 -m pytest -q perfbench

The smoke tests run every workload for one operation in each trace mode.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_by_name_with_unit(workload, trace):
    result = _result(_run(ROOT, workload, trace, seed=21))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def _checkout_copy(tmp_path: Path, with_source: bool = True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_source:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_corrupted_golden_is_a_failed_operation_not_a_crash(tmp_path):
    root = _checkout_copy(tmp_path)
    path = root / "perfbench" / "goldens.json"
    goldens = json.loads(path.read_text())
    entry = goldens["outputs"][bench.WORKLOADS["exchprob_grid"].golden_key]["5"]
    rows = [line.split(",") for line in entry["csv"].splitlines(keepends=True)]
    moved = next(row for row in rows[1:] if float(row[3]) != 0.0)
    moved[3] = repr(float(moved[3]) * 1.01)
    entry["csv"] = "".join(",".join(row) for row in rows)
    path.write_text(json.dumps(goldens))
    result = _result(_run(root, "exchprob_grid", 0))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    root = _checkout_copy(tmp_path, with_source=False)
    proc = _run(root, "continuous_study", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _report(mean: str) -> str:
    return (
        "scenario,method,estimand,mean,mc_sd,runs,paper_value,abs_diff,pass\n"
        f"s,m,riskDifference,{mean},0.01,20,1,0.000123,true\n"
    )


@pytest.mark.parametrize("golden", [
    None,
    {"exit_code": 0},
    {"exit_code": 0, "csv": 17},
    {"exit_code": 0, "csv": _report("not-a-number")},
])
def test_malformed_golden_is_a_problem_not_an_exception(golden):
    assert bench.check_output(_report("1.00001"), 0, golden)


def test_tolerance_passes_last_digit_and_fails_a_moved_estimate():
    golden = {"exit_code": 3, "csv": _report("1.00001")}
    assert bench.check_output(_report("1.00002"), 3, golden) == []
    assert bench.check_output(_report("1.00101"), 3, golden)
    assert bench.check_output(_report("1.00001"), 0, golden) == ["exit code 0, golden 3"]


def test_tracing_wrappers_are_gone_before_untraced_timing():
    assert spans.wrapped_sites() == []
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert len(spans.wrapped_sites()) == len(spans.WRAP_SITES)
            with pytest.raises(RuntimeError, match="tracing wrappers"):
                bench.untraced_ops(bench.WORKLOADS["exchprob_grid"], 5, 1, 0.0, None)
            1 / 0
    assert spans.wrapped_sites() == []
    spans.assert_untraced()


def test_self_time_subtracts_children_and_counters_are_per_replication():
    cols = ("intercept", "X", "C")
    rep = ("s", 0)
    recorded = [
        ("cli.dispatch", 0, 100, -1, None, None),
        ("harness.run_study", 10, 90, 0, None, None),
        ("datagen.generate_scenario", 10, 30, 1, rep, None),
        ("rng.sample", 12, 20, 2, rep, None),
        ("calibrate.fit_calibration", 30, 50, 1, rep, None),
        ("regress.ols", 32, 40, 4, rep, None),
        ("estimate.g_computation", 50, 80, 1, rep, None),
        ("regress.logistic_irls", 52, 60, 6, rep, (5, cols)),
        ("regress.logistic_irls", 60, 70, 6, rep, (7, cols)),
    ]
    m = spans.layer_metrics(recorded)
    ns = lambda v: pytest.approx(v * 1e-9)
    assert m["cli.dispatch.self_s"] == ns(20)
    assert m["harness.run_study.self_s"] == ns(10)
    assert m["datagen.generate_scenario.self_s"] == ns(12)
    assert m["calibrate.fit_calibration.s"] == ns(20)
    assert m["estimate.g_computation.self_s"] == ns(12)
    assert m["rng.sample.calls_per_rep"] == 1
    assert m["calibrate.ols_calls_per_rep"] == 1
    assert m["regress.logistic_irls.calls_per_rep"] == 2
    assert m["regress.logistic_irls.iters_per_fit"] == 6
    assert m["regress.logistic_irls.fits_per_model"] == 2
