"""Recovery metrics and the Monte Carlo benchmark engine.

Relative error is measured up to the unrecoverable global phase:
min over theta of ||xhat - e^{i theta} x_true|| / ||x_true||, with the
minimizing phase in closed form.  A trial is successful when the relative
error is below the success threshold (default 5e-3).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import MissingDataError
from .model import (
    FieldTag,
    MeasurementEnsemble,
    NoiseSpec,
    correlate,
    field_of,
    synthesize_instance,
)
from .objective import huber
from .rng import TAG_HOLDOUT, mix, stream
from .solver import SolverConfig, SolverResult, Termination, solve
from .spectral import SpectralConfig, spectral_init


def relative_error(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Phase-invariant relative recovery error.

    Complex: the optimal phase is e^{i theta*} = conj(<x_hat, x_true>) / |.|
    (any phase when the inner product vanishes).  Real: the better of +-1.
    """
    x_hat = np.asarray(x_hat)
    x_true = np.asarray(x_true)
    if x_hat.shape != x_true.shape or field_of(x_hat) is not field_of(x_true):
        raise ValueError("estimate and truth must share field and length")
    norm_true = float(np.linalg.norm(x_true))
    if norm_true == 0.0:
        raise ValueError("relative error is undefined for a zero ground truth")
    if field_of(x_true) is FieldTag.REAL:
        return float(
            min(np.linalg.norm(x_hat - x_true), np.linalg.norm(x_hat + x_true))
            / norm_true
        )
    inner = complex(np.vdot(x_hat, x_true))
    if inner == 0:
        return float(np.sqrt(np.linalg.norm(x_hat) ** 2 + norm_true**2) / norm_true)
    phase = np.conj(inner) / abs(inner)
    return float(np.linalg.norm(x_hat - phase * x_true) / norm_true)


def align(x_hat: np.ndarray, x_true: np.ndarray) -> np.ndarray:
    """Rotate/flip x_hat onto x_true's global phase."""
    if field_of(x_true) is FieldTag.REAL:
        if np.linalg.norm(x_hat - x_true) <= np.linalg.norm(x_hat + x_true):
            return x_hat.copy()
        return -x_hat
    inner = complex(np.vdot(x_true, x_hat))
    if inner == 0:
        return x_hat.copy()
    return x_hat * (np.conj(inner) / abs(inner))


@dataclass(frozen=True)
class ExperimentSpec:
    p: int
    s: int
    n_grid: tuple
    noise: NoiseSpec
    trials: int
    solver: SolverConfig
    spectral: SpectralConfig
    master_seed: int
    field: FieldTag = FieldTag.REAL
    success_threshold: float = 5e-3

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if len(self.n_grid) == 0 or list(self.n_grid) != sorted(self.n_grid):
            raise ValueError("n_grid must be nonempty and ascending")


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    seed: int
    relative_error: float
    iterations: int
    termination: str
    wall_time: float  # informational only; excluded from exported files


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    records: list
    success_rate: dict
    median_relative_error: dict

    def deterministic_records(self) -> list:
        """Record tuples without wall time, for determinism comparisons."""
        return [
            (r.n, r.trial, r.seed, r.relative_error, r.iterations, r.termination)
            for r in self.records
        ]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["n", "trial", "seed", "relative_error", "iterations", "termination"]
            )
            for r in self.records:
                writer.writerow(
                    [r.n, r.trial, r.seed, repr(r.relative_error), r.iterations,
                     r.termination]
                )

    def write_json(self, path) -> None:
        doc = {
            "p": self.spec.p,
            "s": self.spec.s,
            "field": self.spec.field.value,
            "noise": str(self.spec.noise),
            "trials": self.spec.trials,
            "master_seed": self.spec.master_seed,
            "success_threshold": self.spec.success_threshold,
            "lambda": self.spec.solver.lam,
            "alpha": self.spec.solver.alpha,
            "success_rate": {str(n): rate for n, rate in self.success_rate.items()},
            "median_relative_error": {
                str(n): err for n, err in self.median_relative_error.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def trial_seed(master_seed: int, n: int, trial: int) -> int:
    """Per-trial seed; stable under extensions of the grid or trial count."""
    return mix(master_seed, n, trial)


def run_trial(spec: ExperimentSpec, n: int, trial: int) -> TrialRecord:
    seed = trial_seed(spec.master_seed, n, trial)
    instance = synthesize_instance(spec.p, spec.s, n, spec.field, spec.noise, seed)
    start = time.perf_counter()
    x0 = spectral_init(instance, spec.spectral, seed)
    result = solve(instance, x0, spec.solver)
    elapsed = time.perf_counter() - start
    rel = relative_error(result.estimate, instance.ground_truth)
    return TrialRecord(
        n=n,
        trial=trial,
        seed=seed,
        relative_error=rel,
        iterations=result.iterations,
        termination=result.termination.value,
        wall_time=elapsed,
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run trials over the measurement grid; deterministic given the seed."""
    records = [run_trial(spec, n, t) for n in spec.n_grid for t in range(spec.trials)]
    rates, medians = {}, {}
    for n in spec.n_grid:
        group = [r for r in records if r.n == n]
        wins = sum(
            1
            for r in group
            if r.relative_error < spec.success_threshold
            and r.termination != Termination.LINE_SEARCH_FAILED.value
        )
        rates[n] = wins / len(group)
        medians[n] = float(np.median([r.relative_error for r in group]))
    return ExperimentReport(
        spec=spec, records=records, success_rate=rates, median_relative_error=medians
    )


def error_vs_iteration(
    e: MeasurementEnsemble,
    cfg: SolverConfig,
    spectral: SpectralConfig,
    seed: int | None = None,
    x0: np.ndarray | None = None,
) -> tuple[list, SolverResult]:
    """Relative-error curve along the iterates, starting at the initial point.

    The initializer is spectral unless an explicit x0 is supplied.
    """
    if e.ground_truth is None:
        raise MissingDataError("error-vs-iteration needs a ground truth")
    if seed is None:
        seed = e.seed
    curve = []

    def record(k, x):
        curve.append((k, relative_error(x, e.ground_truth)))

    if x0 is None:
        x0 = spectral_init(e, spectral, seed)
    result = solve(e, x0, cfg, callback=record)
    return curve, result


def holdout_split(e: MeasurementEnsemble, fraction: float = 0.8):
    """Deterministic measurement split derived from the ensemble seed."""
    rng = stream(e.seed, TAG_HOLDOUT)
    perm = rng.permutation(e.n)
    cut = max(1, min(e.n - 1, int(round(fraction * e.n))))
    return np.sort(perm[:cut]), np.sort(perm[cut:])


def _sub_ensemble(e: MeasurementEnsemble, idx: np.ndarray) -> MeasurementEnsemble:
    return MeasurementEnsemble(
        field=e.field,
        sampling_vectors=e.sampling_vectors[idx],
        observations=e.observations[idx],
        ground_truth=e.ground_truth,
        noise_record=None if e.noise_record is None else e.noise_record[idx],
        seed=e.seed,
    )


def lambda_grid_search(
    e: MeasurementEnsemble,
    cfg_base: SolverConfig,
    lambda_grid,
    validation_rule: str,
    spectral: SpectralConfig | None = None,
    seed: int | None = None,
):
    """Pick lambda from a grid by oracle error or held-out Huber loss.

    rule 'oracle': smallest relative error against the ground truth.
    rule 'holdout': fit on 80% of the measurements, score by the Huber loss
    on the held-out 20%.  Ties go to the larger lambda (sparser solutions).
    Returns (chosen_lambda, table) with one (lambda, score) row per grid point.
    """
    grid = sorted(float(v) for v in lambda_grid)
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    if validation_rule not in ("oracle", "holdout"):
        raise ValueError(f"unknown validation rule: {validation_rule!r}")
    if validation_rule == "oracle" and e.ground_truth is None:
        raise MissingDataError("oracle rule needs a ground truth")
    if spectral is None:
        spectral = SpectralConfig()
    if seed is None:
        seed = e.seed

    if validation_rule == "holdout":
        train_idx, val_idx = holdout_split(e)
        train = _sub_ensemble(e, train_idx)
        val = _sub_ensemble(e, val_idx)
    else:
        train, val = e, None

    x0 = spectral_init(train, spectral, seed)
    table = []
    best_lam, best_score = None, np.inf
    for lam in grid:
        cfg = replace(cfg_base, lam=lam)
        result = solve(train, x0, cfg)
        if validation_rule == "oracle":
            score = relative_error(result.estimate, e.ground_truth)
        else:
            resid = (
                np.abs(correlate(val.sampling_vectors, result.estimate)) ** 2
                - val.observations
            )
            score = float(np.mean(huber(resid, cfg.alpha)))
        table.append((lam, score))
        if score <= best_score:  # ascending grid: later (larger) lambda wins ties
            best_lam, best_score = lam, score
    return best_lam, table
