"""Span tracing of peclab's layers, installed from outside the package.

peclab's modules look their collaborators up as module globals at call time
(``harness`` calls ``generate_scenario``, ``estimate`` calls ``ols``, ...).
The tracer replaces those globals with wrappers that record one span per
call and restores the originals on exit, so no source file under ``src/``
changes and an untraced run executes exactly the package's own code.

A span is (name, start_ns, end_ns, parent, rep, info). ``parent`` is the
index of the enclosing span (-1 at the root), ``rep`` the (scenario name,
replication index) of the most recent ``generate_scenario`` call inside the
current ``run_study``, and ``info`` carries what a layer returns that the
per-layer counters need (IRLS iterations and the fitted design's columns).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

# (module, global looked up at call time, span name). The span name is the
# layer that implements the function, whatever module calls it.
WRAP_SITES = [
    ("peclab.cli", "reproduce", "harness.reproduce"),
    ("peclab.harness", "run_study", "harness.run_study"),
    ("peclab.harness", "generate_scenario", "datagen.generate_scenario"),
    ("peclab.harness", "generate_table2_world", "datagen.generate_table2_world"),
    ("peclab.harness", "fit_calibration", "calibrate.fit_calibration"),
    ("peclab.harness", "apply_calibration", "calibrate.apply_calibration"),
    ("peclab.harness", "naive_regression_aee", "estimate.naive_regression_aee"),
    ("peclab.harness", "ipw_gps_aee", "estimate.ipw_gps_aee"),
    ("peclab.harness", "g_computation", "estimate.g_computation"),
    ("peclab.harness", "empirical_table", "exchprob.empirical_table"),
    ("peclab.harness", "aee_from_table", "exchprob.aee_from_table"),
    ("peclab.harness", "ols", "regress.ols"),
    ("peclab.estimate", "ols", "regress.ols"),
    ("peclab.estimate", "wls", "regress.wls"),
    ("peclab.estimate", "logistic_irls", "regress.logistic_irls"),
    ("peclab.calibrate", "ols", "regress.ols"),
    ("peclab.datagen", "sample", "rng.sample"),
    ("peclab.datagen", "uniforms", "rng.uniforms"),
]

ROOT = "cli.dispatch"
_ORIGINAL = "__perfbench_original__"


class Tracer:
    """Records spans in memory; ``installed()`` wraps and unwraps the sites."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._rep = None

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _call(self, name, fn, args, kwargs):
        if name == "harness.run_study":
            self._rep = None
        elif name == "datagen.generate_scenario":
            index = args[1] if len(args) > 1 else kwargs.get("replication_index", 0)
            self._rep = (args[0].name, index)
        rep = self._rep
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        info = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if name == "regress.logistic_irls":
                columns = kwargs.get("column_names", args[2] if len(args) > 2 else None)
                info = (result.iterations, tuple(columns or ()))
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, rep, info)
            if name == "harness.run_study":
                self._rep = None

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in WRAP_SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rep, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "rep": list(rep) if rep else None,
                    "info": list(info) if info else None,
                }) + "\n")


def wrapped_sites() -> list[str]:
    """The call sites that currently hold a tracing wrapper."""
    found = []
    for module_name, attr, _ in WRAP_SITES:
        module = importlib.import_module(module_name)
        if hasattr(getattr(module, attr), _ORIGINAL):
            found.append(f"{module_name}.{attr}")
    return found


def assert_untraced() -> None:
    """Raise if any tracing wrapper is still installed; untraced timing
    must run the package's own functions."""
    found = wrapped_sites()
    if found:
        raise RuntimeError("tracing wrappers still installed at " + ", ".join(found))


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from the spans of whole ``cli.dispatch`` calls.

    Times are per dispatch call (one reproduce operation), the median over
    the calls traced. Counters are totals over all calls divided by the
    replications they ran, so they repeat exactly for a given seed. A
    replication is one world: one ``generate_scenario`` or one
    ``generate_table2_world`` call.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_ns = list(dur)
    op = [0] * n
    ops = 0
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent < 0:
            op[i] = ops
            ops += 1
        else:
            op[i] = op[parent]
            self_ns[parent] -= dur[i]

    def per_op(values, name) -> float:
        totals = [0] * ops
        for i, s in enumerate(spans):
            if s[0] == name:
                totals[op[i]] += values[i]
        return statistics.median(totals) / 1e9 if ops else 0.0

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    names = lambda *wanted: (lambda s: s[0] in wanted)
    reps = count(names("datagen.generate_scenario", "datagen.generate_table2_world"))
    per_rep = lambda k: k / reps if reps else 0.0
    fits = [s for s in spans if s[0] == "regress.logistic_irls"]
    designs = {
        (op[i], s[4], s[5][1]) for i, s in enumerate(spans) if s[0] == "regress.logistic_irls"
    }

    return {
        "rng.sample.self_s": per_op(self_ns, "rng.sample"),
        "rng.sample.calls_per_rep": per_rep(count(names("rng.sample"))),
        "rng.uniforms.self_s": per_op(self_ns, "rng.uniforms"),
        "datagen.generate_scenario.self_s": per_op(self_ns, "datagen.generate_scenario"),
        "datagen.generate_table2_world.self_s": per_op(self_ns, "datagen.generate_table2_world"),
        "calibrate.fit_calibration.s": per_op(dur, "calibrate.fit_calibration"),
        "calibrate.apply_calibration.s": per_op(dur, "calibrate.apply_calibration"),
        "calibrate.ols_calls_per_rep": per_rep(count(
            lambda s: s[0] == "regress.ols" and s[3] >= 0
            and spans[s[3]][0] == "calibrate.fit_calibration"
        )),
        "regress.ols.self_s": per_op(self_ns, "regress.ols"),
        "regress.ols.calls_per_rep": per_rep(count(names("regress.ols"))),
        "regress.wls.self_s": per_op(self_ns, "regress.wls"),
        "regress.logistic_irls.self_s": per_op(self_ns, "regress.logistic_irls"),
        "regress.logistic_irls.calls_per_rep": per_rep(len(fits)),
        "regress.logistic_irls.iters_per_fit":
            sum(s[5][0] for s in fits) / len(fits) if fits else 0.0,
        "regress.logistic_irls.fits_per_model": len(fits) / len(designs) if designs else 0.0,
        "estimate.g_computation.self_s": per_op(self_ns, "estimate.g_computation"),
        "estimate.ipw_gps_aee.self_s": per_op(self_ns, "estimate.ipw_gps_aee"),
        "estimate.naive_regression_aee.self_s": per_op(self_ns, "estimate.naive_regression_aee"),
        "exchprob.empirical_table.s": per_op(dur, "exchprob.empirical_table"),
        "harness.reproduce.self_s": per_op(self_ns, "harness.reproduce"),
        "harness.run_study.self_s": per_op(self_ns, "harness.run_study"),
        "cli.dispatch.self_s": per_op(self_ns, ROOT),
    }
