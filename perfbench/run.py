"""peclab benchmark: Monte Carlo study throughput, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports peclab from the
checkout's ``src``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment and the report's sha256.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics. ``--trace 1`` splits the seconds between an untraced section and a
traced one run in a child process at ``--jobs 1``, and reports the
per-layer metrics and the tracing overhead. ``--role`` is used by the
benchmark to start its own child processes.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "traced"), default="main")
    return p.parse_args(argv)


def _child(role: str, args, seconds: float = 0.0) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(seconds),
    ]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise RuntimeError(f"{role} child exited {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _probe(args) -> dict:
    """Set-up as a fresh user process pays it: import peclab, build the
    scenarios, make one warm-up call."""
    start = time.perf_counter()
    import bench

    workload = bench.WORKLOADS[args.workload]
    seed = bench.peclab_seed(args.seed)
    workload.build_scenarios(seed)
    bench.warm_up(workload, seed)
    raw = time.perf_counter() - start
    return {"setup_s": raw / statistics.median(bench.slowdown(workload.kernel) for _ in range(3))}


def _traced(args) -> dict:
    import bench
    import spans

    workload = bench.WORKLOADS[args.workload]
    seed = bench.peclab_seed(args.seed)
    golden = bench.golden_for(bench.load_goldens(), workload, seed)
    bench.warm_up(workload, seed)
    out = bench.out_path(f"{workload.name}-traced")
    tracer = spans.Tracer()
    with tracer.installed():
        call = tracer.wrap(bench.dispatch, spans.ROOT)
        ops = bench.timed_ops(
            lambda: bench.run_op(call, workload.argv(seed, out, jobs=1), out, golden),
            args.seconds,
            workload.kernel,
        )
    tracer.write(bench.RUNS_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return {
        "wall_s": bench.median_norm(ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "problems": bench.problems_of(ops),
        "layers": spans.layer_metrics(tracer.spans),
    }


def _peak_rss_mib() -> float:
    """Peak RSS of this process or of any child it has waited for (the pool
    workers), in MiB; Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _main(args) -> dict:
    import bench

    workload = bench.WORKLOADS[args.workload]
    seed = bench.peclab_seed(args.seed)
    golden = bench.golden_for(bench.load_goldens(), workload, seed)
    bench.warm_up(workload, seed)

    def section(jobs: int, seconds: float, reference=None):
        return bench.untraced_ops(workload, seed, jobs, seconds, golden, reference)

    # untimed operations that are checked all the same
    checked = []
    reference = None
    if workload.jobs > 1:
        out = bench.out_path(f"{workload.name}-reference")
        ref = bench.run_op(bench.dispatch, workload.argv(seed, out, jobs=1), out, golden)
        checked, reference = [ref], ref.data
    traced = None
    if args.trace == 0:
        timed = section(workload.jobs, args.seconds, reference)
        checked += timed
        wall = bench.median_norm(timed)
        reps = statistics.median(op.reps for op in timed)
        peak = _peak_rss_mib()
        setup = statistics.median(_child("probe", args)["setup_s"] for _ in range(SETUP_PROBES))
        metrics = {
            "setup_s": _metric(setup, "s"),
            "wall_s": _metric(wall, "s"),
            "reps_per_s": _metric(reps / wall, "rep/s"),
            "rows_per_s": _metric(reps * workload.n / wall, "rows/s"),
            "peak_rss_mib": _metric(peak, "MiB"),
            "ok_ratio": _metric(sum(not op.failed for op in checked) / len(checked), "ok/attempted"),
        }
    else:
        share = args.seconds / (3 if workload.jobs > 1 else 2)
        if workload.jobs > 1:
            parallel = section(workload.jobs, share, reference)
            checked += parallel
        serial = section(1, share, reference)
        checked += serial
        # reps_per_s(jobs) / (jobs * reps_per_s(1)); 0 where the workload runs serially
        efficiency = (
            bench.median_norm(serial) / (workload.jobs * bench.median_norm(parallel))
            if workload.jobs > 1 else 0.0
        )
        traced = _child("traced", args, share)
        metrics = {k: _metric(v, _layer_unit(k)) for k, v in traced["layers"].items()}
        metrics["harness.parallel_efficiency"] = _metric(efficiency, "ratio")
        metrics["cells_pass"] = _metric(statistics.median(op.cells_pass for op in checked), "count")
        metrics["trace.overhead_s"] = _metric(traced["wall_s"] - bench.median_norm(serial), "s")

    attempted = len(checked) + (traced["attempted"] if traced else 0)
    failed = sum(op.failed for op in checked) + (traced["failed"] if traced else 0)
    golden_sha = golden.get("sha256") if isinstance(golden, dict) else None
    info = {
        "workload": workload.name,
        "environment": bench.environment(args.seed),
        "op_raw_s": [round(op.wall_s, 6) for op in checked],
        "op_slowdown": [round(op.slowdown, 6) for op in checked],
        "report_sha256": checked[-1].sha256,
        "golden_sha256": golden_sha,
        "report_bytes_match_golden": checked[-1].sha256 == golden_sha,
        "problems": bench.problems_of(checked) + (traced["problems"] if traced else []),
    }
    print(json.dumps({"info": info}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_rep"):
        return "calls/rep"
    if name.endswith("iters_per_fit"):
        return "iters/fit"
    if name.endswith("fits_per_model"):
        return "fits/model"
    return "s"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "peclab" / "__init__.py").is_file():
        print(f"error: no peclab source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    role = {"main": _main, "probe": _probe, "traced": _traced}[args.role]
    if args.role == "main":
        import bench

        if args.workload not in bench.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 1
    print(json.dumps(role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
