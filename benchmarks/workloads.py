"""The benchmark's workloads: inputs built from the seed, the timed units, and
the check of every unit's outputs.

A run is a number of batches.  Each batch draws fresh instances from
(workload, seed, batch), builds them (set-up, untimed), runs its units one at a
time in this process (closed loop, one client), and then checks every output.
The program sees only the built instances and ensembles.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import robustpr
import robustpr.cli
import robustpr.metrics
from robustpr import FieldTag, NoiseSpec, SolverConfig, SpectralConfig

LAM = 1e-3
DELTA = SolverConfig(lam=LAM).delta  # sufficient-decrease constant of criterion 3
SUCCESS = 5e-3  # the library's default success threshold
LAMBDA_GRID = (1e-6, 1e-5, 1e-4, 1e-3)  # the acceptance suite's grid


def instance_seed(workload: str, seed: int, batch: int, unit: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{batch}:{unit}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Unit:
    """Outcome of one unit: time, error, output digest and check verdict."""

    seconds: float
    rel_err: float = math.nan
    success: bool = False
    failure: str | None = None
    digest: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    units: int  # units per batch
    batch_s: float  # one batch's typical time with set-up and calibration, reference machine
    build: Callable  # (seed, batch, workdir) -> list of unit inputs
    run: Callable  # (inputs, mark) -> list of (seconds, raw output)
    check: Callable  # (inputs, list of (seconds, raw output)) -> list of Unit
    calibrate: Callable  # () -> seconds of the workload's calibration kernel
    reference_s: float  # the kernel's time on the reference machine, quiet


def calibration_kernel(n: int, p: int, field: FieldTag, iters: int,
                       json_values: int = 0) -> Callable[[], float]:
    """A numpy-only stand-in for a workload's inner loop; returns its timer.

    The kernel does what one solver iteration does on an n x p ensemble of the
    workload's field: a forward product through a conjugated copy of the
    matrix, a Huber-like weighting, the adjoint product and a cosine
    shrinkage of the kept entries like the half-threshold prox, ``iters`` times;
    with ``json_values`` it also round-trips that many floats through JSON, as
    the CLI does with its instance files.  It never calls robustpr, so no
    change to the package moves its time; its time tracks how fast the shared
    machine runs at the moment of measuring, on work of the same shape.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, p))
    x = rng.standard_normal(p)
    if field is FieldTag.COMPLEX:
        a = a + 1j * rng.standard_normal((n, p))
        x = x + 1j * rng.standard_normal(p)
    floats = rng.standard_normal(json_values).tolist()

    def seconds() -> float:
        y = x.copy()
        start = time.perf_counter()
        for _ in range(iters):
            c = a.conj() @ y
            y = a.T @ (np.minimum(np.abs(c), 1.0) * c) / n
            y /= np.linalg.norm(y)
            keep = np.abs(y) > 0.01
            t = y[keep]
            arg = np.clip(1e-3 * (np.abs(t) / 3.0) ** -1.5, 0.0, 1.0)
            y[keep] = t * (1.0 + np.cos(2.0 * np.pi / 3.0 - np.arccos(arg)))
        if floats:
            json.loads(json.dumps(floats))
        return time.perf_counter() - start

    return seconds


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _descent_failure(initial: float, values, steps) -> str | None:
    """Criterion 3, as the acceptance suite checks it, plus F_final <= F_0."""
    values = [initial] + list(values)
    if values[-1] > values[0]:
        return "final objective above initial objective"
    for k, (f_prev, f_next, step) in enumerate(zip(values, values[1:], steps), 1):
        if not f_prev - f_next >= DELTA * step**2 - 1e-15:
            return f"descent inequality fails at iteration {k}"
    return None


def _result_failure(result) -> str | None:
    if not np.all(np.isfinite(result.estimate)):
        return "non-finite estimate"
    if result.termination is robustpr.Termination.LINE_SEARCH_FAILED:
        return "LineSearchFailed"
    return _descent_failure(
        result.initial_objective,
        [r.F_value for r in result.trace],
        [r.step_norm for r in result.trace],
    )


def _result_digest(result) -> str:
    return _digest(result.estimate.tobytes(), result.iterations,
                   result.termination.value)


def _each(check):
    """A batch check that checks each unit against its own input."""
    def check_all(inputs, raw):
        if len(raw) != len(inputs):
            raise RuntimeError("a batch returned the wrong number of units")
        return [check(item, r) for item, r in zip(inputs, raw)]
    return check_all


def _timed_units(inputs, mark, fn) -> list:
    """Run fn on each input in turn; a unit that raises is kept as a failure."""
    out = []
    for i, item in enumerate(inputs):
        mark(i)
        start = time.perf_counter()
        try:
            raw = fn(item)
        except Exception as exc:  # a raising unit is a counted failure
            raw = exc
        out.append((time.perf_counter() - start, raw))
    return out


@contextlib.contextmanager
def _captured_solves():
    """Keep every SolverResult that the metrics module's solve returns."""
    results = []
    inner = robustpr.metrics.solve

    def solve(*args, **kwargs):
        result = inner(*args, **kwargs)
        results.append(result)
        return result

    robustpr.metrics.solve = solve
    try:
        yield results
    finally:
        robustpr.metrics.solve = inner


# --- cli-real --------------------------------------------------------------

CLI_SHAPE = dict(p=128, s=12, n=768, field=FieldTag.REAL, spec=NoiseSpec("type2", 0.1))


def _cli_build(seed, batch, workdir: Path):
    paths = []
    for i in range(WORKLOADS["cli-real"].units):
        e = robustpr.synthesize_instance(
            seed=instance_seed("cli-real", seed, batch, i), **CLI_SHAPE)
        path = workdir / f"u{i}"
        path.with_suffix(".json").write_text(robustpr.serialize_instance(e) + "\n")
        paths.append(path)
    return paths


def _cli_unit(path: Path):
    inst = str(path.with_suffix(".json"))
    res, trace, cert = (str(path) + s for s in ("-res.json", "-trace.csv", "-cert.json"))
    rc_solve = robustpr.cli.main(["solve", "--instance", inst, "--lambda", str(LAM),
                                  "--out-result", res, "--out-trace", trace])
    rc_cert = robustpr.cli.main(["diag", "certificate", "--instance", inst,
                                 "--solution", res, "--lambda", str(LAM),
                                 "--out", cert])
    return rc_solve, rc_cert


def _cli_run(inputs, mark):
    with contextlib.redirect_stdout(io.StringIO()):
        return _timed_units(inputs, mark, _cli_unit)


def _cli_check(path: Path, raw) -> Unit:
    seconds, out = raw
    if isinstance(out, Exception):
        return Unit(seconds, failure=f"raised {out!r}")
    if out != (0, 0):
        return Unit(seconds, failure=f"exit codes {out}")
    res_b = Path(str(path) + "-res.json").read_bytes()
    trace_b = Path(str(path) + "-trace.csv").read_bytes()
    cert_b = Path(str(path) + "-cert.json").read_bytes()
    doc = json.loads(res_b)
    json.loads(cert_b)  # a certificate with passed=False is an outcome, not a failure
    rows = list(csv.DictReader(io.StringIO(trace_b.decode())))
    unit = Unit(seconds, rel_err=float(doc["relative_error"]),
                digest=_digest(res_b, trace_b, cert_b))
    estimate = np.asarray(doc["estimate"], dtype=np.float64)
    if not np.all(np.isfinite(estimate)):
        unit.failure = "non-finite estimate"
    elif doc["termination"] == robustpr.Termination.LINE_SEARCH_FAILED.value:
        unit.failure = "LineSearchFailed"
    elif len(rows) != doc["iterations"]:
        unit.failure = "trace rows differ from the iteration count"
    elif rows and float(rows[-1]["F"]) != doc["final_objective"]:
        unit.failure = "trace and result disagree on the final objective"
    else:
        unit.failure = _descent_failure(
            doc["initial_objective"],
            [float(r["F"]) for r in rows],
            [float(r["step_norm"]) for r in rows],
        )
    unit.success = unit.failure is None and unit.rel_err < SUCCESS
    return unit


# --- lib-complex-outliers --------------------------------------------------

COMPLEX_SHAPE = dict(p=128, s=8, n=768, field=FieldTag.COMPLEX,
                     spec=NoiseSpec("type3", 0.05))


def _ensembles(workload, shape):
    def build(seed, batch, workdir):
        return [
            robustpr.synthesize_instance(
                seed=instance_seed(workload, seed, batch, i), **shape)
            for i in range(WORKLOADS[workload].units)
        ]
    return build


def _complex_unit(e):
    x0 = robustpr.spectral_init(
        e, SpectralConfig(truncation=2 * COMPLEX_SHAPE["s"]), e.seed)
    result = robustpr.solve(e, x0, SolverConfig(lam=LAM))
    report = robustpr.linear_rate_certificate(result.estimate, e, LAM, 1.345)
    return result, report


def _complex_run(inputs, mark):
    return _timed_units(inputs, mark, _complex_unit)


def _complex_check(e, raw) -> Unit:
    seconds, out = raw
    if isinstance(out, Exception):
        return Unit(seconds, failure=f"raised {out!r}")
    result, report = out
    rel = robustpr.relative_error(result.estimate, e.ground_truth)
    failure = _result_failure(result)
    return Unit(seconds, rel_err=rel, failure=failure,
                success=failure is None and rel < SUCCESS,
                digest=_digest(_result_digest(result), report.to_json()))


# --- lambda-sweep-t3 -------------------------------------------------------

# The acceptance suite's Type-III set (criterion 6): alpha = 0.1345.
T3_SHAPE = dict(p=64, s=6, n=512, field=FieldTag.REAL, spec=NoiseSpec("type3", 0.1))
T3_ALPHA = 0.1345


def _sweep_unit(e):
    cfg = SolverConfig(lam=LAM, alpha=T3_ALPHA)
    with _captured_solves() as solves:
        best = robustpr.lambda_grid_search(e, cfg, LAMBDA_GRID, "oracle")
    return best, solves


def _sweep_run(inputs, mark):
    return _timed_units(inputs, mark, _sweep_unit)


def _sweep_check(e, raw) -> Unit:
    seconds, out = raw
    if isinstance(out, Exception):
        return Unit(seconds, failure=f"raised {out!r}")
    (best_lam, table), solves = out
    failure = None
    if len(solves) != len(LAMBDA_GRID):
        failure = f"{len(solves)} solves for {len(LAMBDA_GRID)} lambdas"
    for result in solves:
        failure = failure or _result_failure(result)
    rel = min(score for _, score in table)
    return Unit(seconds, rel_err=rel, failure=failure,
                success=failure is None and rel < SUCCESS,
                digest=_digest(best_lam, table, *map(_result_digest, solves)))


# --- success-rate-small ----------------------------------------------------

SR_GRID = (64, 128, 192, 256)


def _sr_build(seed, batch, workdir):
    return [robustpr.ExperimentSpec(
        p=32, s=4, n_grid=SR_GRID, noise=NoiseSpec("none"),
        trials=WORKLOADS["success-rate-small"].units // len(SR_GRID),
        solver=SolverConfig(lam=LAM), spectral=SpectralConfig(),
        master_seed=instance_seed("success-rate-small", seed, batch, 0),
    )]


def _sr_run(inputs, mark):
    (spec,) = inputs
    start = time.perf_counter()
    with _captured_solves() as results:
        try:
            report = robustpr.run_experiment(spec)
        except Exception as exc:  # the whole experiment counts as one failed unit
            return [(time.perf_counter() - start, exc)]
    if len(results) != len(report.records):
        return [(time.perf_counter() - start,
                 RuntimeError(f"{len(results)} solves for "
                              f"{len(report.records)} trials"))]
    # One unit per trial, timed by the library itself.
    return [(r.wall_time, (r, res)) for r, res in zip(report.records, results)]


def _sr_check(raw) -> Unit:
    seconds, out = raw
    if isinstance(out, Exception):
        return Unit(seconds, failure=f"raised {out!r}")
    record, result = out
    failure = _result_failure(result)
    if result.iterations != record.iterations:
        failure = "trial record and solver result disagree"
    return Unit(seconds, rel_err=record.relative_error, failure=failure,
                success=failure is None and record.relative_error < SUCCESS,
                digest=_digest(record.n, record.trial, record.seed,
                               record.relative_error, _result_digest(result)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-real",
            "documented CLI pipeline: instance-JSON I/O plus a dense real solve; "
            "no conjugate copy, no lambda sharing",
            units=3, batch_s=1.35,
            build=_cli_build, run=_cli_run, check=_each(_cli_check),
            calibrate=calibration_kernel(768, 128, FieldTag.REAL, 200, 40_000),
            reference_s=0.065),
        Workload(
            "lib-complex-outliers",
            "complex Wirtinger path under outliers through the library; the "
            "forward correlate dominates and there is no file I/O",
            units=3, batch_s=1.85,
            build=_ensembles("lib-complex-outliers", COMPLEX_SHAPE),
            run=_complex_run, check=_each(_complex_check),
            calibrate=calibration_kernel(768, 128, FieldTag.COMPLEX, 300),
            reference_s=0.13),
        Workload(
            "lambda-sweep-t3",
            "many small solves sharing A and x0 over the 4-lambda oracle grid on "
            "the Type-III acceptance set; per-call overhead dominates",
            units=4, batch_s=0.8,
            build=_ensembles("lambda-sweep-t3", T3_SHAPE),
            run=_sweep_run, check=_each(_sweep_check),
            calibrate=calibration_kernel(512, 64, FieldTag.REAL, 2500),
            reference_s=0.082),
        Workload(
            "success-rate-small",
            "Monte Carlo trials on distinct instances, so nothing is shared; the "
            "near-degenerate n=2p trials make a long tail",
            units=4 * len(SR_GRID), batch_s=2.5,
            build=_sr_build, run=_sr_run,
            check=lambda inputs, raw: [_sr_check(r) for r in raw],
            calibrate=calibration_kernel(128, 32, FieldTag.REAL, 4000),
            reference_s=0.095),
    )
}


def run_batch(workload: Workload, inputs, mark=lambda i: None):
    """Run one batch's units; returns their (seconds, raw output) pairs.

    ``mark(i)`` is called before unit i, outside the unit's timing.
    """
    with warnings.catch_warnings():
        # The solver's support-churn RuntimeWarning would interleave with the
        # report; it is an outcome of the run, not a failure.
        warnings.simplefilter("ignore", RuntimeWarning)
        return workload.run(inputs, mark)

