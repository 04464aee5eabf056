"""Span tracer for the traced benchmark run.

The package is never edited: tracing rebinds, from outside, the module-level
names through which robustpr's modules call each other (plus
``MeasurementEnsemble.check_signal``) to wrappers that record a span per call.
A span is (name, start, end, parent span, unit id); spans stay in memory in
flat arrays and are aggregated, or written out, after the run.

Self time of a span is its duration minus the durations of its direct
children.  ``check_signal`` is counted, not spanned, so the cheap validation it
does stays in its caller's self time.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import robustpr

_perf = time.perf_counter

# Imported by path: the package re-exports a function named ``objective``
# that hides the submodule of the same name.
cli, diagnostics, gradient, metrics, model, objective, solver, spectral = (
    importlib.import_module(f"robustpr.{name}")
    for name in ("cli", "diagnostics", "gradient", "metrics", "model",
                 "objective", "solver", "spectral")
)

# Span name -> the (module, attribute) bindings that route calls into it.
SPANNED = {
    "cli.main": [(cli, "main")],
    "model.deserialize_instance": [(cli, "deserialize_instance")],
    "model.serialize_instance": [(robustpr, "serialize_instance")],
    "model.correlate": [
        (model, "correlate"),
        (objective, "correlate"),
        (gradient, "correlate"),
        (spectral, "correlate"),
        (metrics, "correlate"),
        (diagnostics, "correlate"),
    ],
    "spectral.power_iteration": [(spectral, "power_iteration")],
    "spectral.spectral_init": [
        (robustpr, "spectral_init"),
        (cli, "spectral_init"),
        (metrics, "spectral_init"),
    ],
    "solver.solve": [
        (robustpr, "solve"),
        (cli, "solve"),
        (metrics, "solve"),
    ],
    "solver.fixed_point_residual": [
        (solver, "fixed_point_residual"),
        (cli, "fixed_point_residual"),
    ],
    "objective.objective": [(solver, "objective")],
    "gradient.g": [(solver, "gradient_map")],
    "prox.half_threshold": [(solver, "half_threshold")],
    "metrics.run_trial": [(metrics, "run_trial")],
    "metrics.lambda_grid_search": [(robustpr, "lambda_grid_search")],
    "metrics.relative_error": [
        (robustpr, "relative_error"),
        (cli, "relative_error"),
        (metrics, "relative_error"),
    ],
    "diagnostics.linear_rate_certificate": [
        (robustpr, "linear_rate_certificate"),
        (cli, "linear_rate_certificate"),
    ],
}

SPAN_NAMES = tuple(SPANNED)


class Trace:
    """Spans and exact counters of one traced execution."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.stack: list[int] = []
        self.unit_id = -1
        self.counts: Counter = Counter()

    def call(self, name_id, fn, args, kwargs):
        i = len(self.end)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.unit.append(self.unit_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(_perf())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = _perf()
            self.stack.pop()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int32).copy(),
        }


def _correlate_bytes(a) -> int:
    """Computed bytes read by one correlate: the matrix, plus the conj copy."""
    nbytes = a.size * a.itemsize
    return nbytes + a.size * 16 if np.iscomplexobj(a) else nbytes


def _make_wrapper(trace: Trace, name: str, fn):
    nid = SPAN_NAMES.index(name)
    call = trace.call
    counts = trace.counts
    if name == "model.correlate":
        def wrapper(a, x):
            counts["model.correlate.bytes_computed"] += _correlate_bytes(a)
            return call(nid, fn, (a, x), {})
    elif name == "model.deserialize_instance":
        def wrapper(text):
            # json.dumps output is ASCII, so characters are bytes.
            counts["model.deserialize_instance.bytes"] += len(text)
            return call(nid, fn, (text,), {})
    elif name == "spectral.power_iteration":
        def wrapper(*args, **kwargs):
            result = call(nid, fn, args, kwargs)
            counts["spectral.power_iteration.iters"] += len(result[1])
            return result
    elif name == "solver.solve":
        def wrapper(*args, **kwargs):
            result = call(nid, fn, args, kwargs)
            counts["solver.iterations"] += result.iterations
            counts["solver.termination." + result.termination.value] += 1
            return result
    elif name == "metrics.run_trial":
        def wrapper(*args, **kwargs):
            trace.unit_id += 1
            return call(nid, fn, args, kwargs)
    else:
        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)
    return wrapper


@contextmanager
def installed(trace: Trace):
    """Route the package's cross-module calls through ``trace`` while active."""
    saved = []
    try:
        for name, bindings in SPANNED.items():
            for module, attr in bindings:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _make_wrapper(trace, name, original))
        cls = model.MeasurementEnsemble
        check = cls.check_signal
        saved.append((cls, "check_signal", check))
        counts = trace.counts

        def check_signal(self, x):
            counts["model.check_signal.calls"] += 1
            return check(self, x)

        cls.check_signal = check_signal
        yield trace
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(trace: Trace) -> dict:
    """Per-layer calls, time and self time of one traced execution."""
    arr = trace.arrays()
    n = arr["end"].size
    names = arr["name"]
    parent = arr["parent"]
    dur = arr["end"] - arr["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    own = dur - child
    k = len(SPAN_NAMES)
    calls = np.bincount(names, minlength=k)
    total = np.bincount(names, weights=dur, minlength=k)
    self_s = np.bincount(names, weights=own, minlength=k)

    def idx(name):
        return SPAN_NAMES.index(name)

    def stat(name, what):
        table = {"calls": calls, "s": total, "self_s": self_s}[what]
        return table[idx(name)].item()

    counts = trace.counts
    solve_id, obj_id = idx("solver.solve"), idx("objective.objective")
    obj_in_solve = int(np.sum((names == obj_id) & nested
                              & (names[np.where(nested, parent, 0)] == solve_id)))
    solves = int(stat("solver.solve", "calls"))
    iterations = counts["solver.iterations"]
    trials = obj_in_solve - solves  # minus the initial F(x0) of each solve
    trial_s = dur[names == idx("metrics.run_trial")]
    return {
        "cli.main.calls": int(stat("cli.main", "calls")),
        "cli.main.self_s": stat("cli.main", "self_s"),
        "model.deserialize_instance.s": stat("model.deserialize_instance", "s"),
        "model.deserialize_instance.bytes": counts["model.deserialize_instance.bytes"],
        "model.serialize_instance.s": stat("model.serialize_instance", "s"),
        "model.correlate.calls": int(stat("model.correlate", "calls")),
        "model.correlate.s": stat("model.correlate", "s"),
        "model.correlate.bytes_computed": counts["model.correlate.bytes_computed"],
        "model.check_signal.calls": counts["model.check_signal.calls"],
        "spectral.power_iteration.iters": counts["spectral.power_iteration.iters"],
        "spectral.power_iteration.s": stat("spectral.power_iteration", "s"),
        "spectral.spectral_init.s": stat("spectral.spectral_init", "s"),
        "solver.solve.calls": solves,
        "solver.iterations": iterations,
        "solver.solve.self_s": stat("solver.solve", "self_s"),
        "solver.linesearch.trials": trials,
        "solver.linesearch.accept_ratio": iterations / trials if trials else 0.0,
        "solver.matvecs_per_iteration": (
            stat("model.correlate", "calls") / iterations if iterations else 0.0
        ),
        "solver.fixed_point_residual.calls": int(
            stat("solver.fixed_point_residual", "calls")
        ),
        "solver.termination.Converged": counts["solver.termination.Converged"],
        "solver.termination.MaxIterations": counts["solver.termination.MaxIterations"],
        "solver.termination.LineSearchFailed": counts[
            "solver.termination.LineSearchFailed"
        ],
        "objective.objective.calls": int(stat("objective.objective", "calls")),
        "objective.objective.self_s": stat("objective.objective", "self_s"),
        "gradient.g.calls": int(stat("gradient.g", "calls")),
        "gradient.g.self_s": stat("gradient.g", "self_s"),
        "prox.half_threshold.calls": int(stat("prox.half_threshold", "calls")),
        "prox.half_threshold.s": stat("prox.half_threshold", "s"),
        "metrics.run_trial.s_p50": float(np.median(trial_s)) if trial_s.size else 0.0,
        "metrics.run_trial.s_max": float(trial_s.max()) if trial_s.size else 0.0,
        "metrics.lambda_grid_search.s": stat("metrics.lambda_grid_search", "s"),
        "metrics.relative_error.calls": int(stat("metrics.relative_error", "calls")),
        "diagnostics.linear_rate_certificate.calls": int(
            stat("diagnostics.linear_rate_certificate", "calls")
        ),
        "diagnostics.linear_rate_certificate.s": stat(
            "diagnostics.linear_rate_certificate", "s"
        ),
    }



def exact_counters(metrics: dict) -> dict:
    """The integer counters, which two traced executions must repeat exactly."""
    return {k: v for k, v in metrics.items() if isinstance(v, int)}
