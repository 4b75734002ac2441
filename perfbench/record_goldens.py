"""Record the golden report of every workload's ``reproduce`` call.

    python3 perfbench/record_goldens.py

Writes ``perfbench/goldens.json``: for each distinct call (table and size)
and each peclab seed 0..GOLDEN_SEEDS-1, the exit code, the report CSV and its
sha256, made at ``--jobs 1``. Re-record only in a change that means to move
the reported numbers, and say which cells moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402


def main() -> int:
    outputs = {}
    out = bench.out_path("golden")
    for workload in bench.WORKLOADS.values():
        if workload.golden_key in outputs:
            continue
        per_seed = outputs[workload.golden_key] = {}
        for seed in range(bench.GOLDEN_SEEDS):
            code = bench.dispatch(workload.argv(seed, out, jobs=1))
            data = out.read_bytes()
            per_seed[str(seed)] = {
                "exit_code": code,
                "sha256": hashlib.sha256(data).hexdigest(),
                "csv": data.decode("utf-8"),
            }
            print(f"{workload.golden_key} seed {seed}: exit {code}", file=sys.stderr)
    env = bench.environment(bench.GOLDEN_SEEDS)
    record = {
        "recorded_with": {k: env[k] for k in ("git_sha", "peclab_source_sha256", "numpy")},
        "outputs": outputs,
    }
    with open(bench.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
