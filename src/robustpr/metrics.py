"""Recovery metrics and the Monte Carlo benchmark engine.

Relative error is measured up to the unrecoverable global phase:
min over theta of ||xhat - e^{i theta} x_true|| / ||x_true||, with the
minimizing phase in closed form.  A trial is successful when the relative
error is below the success threshold (default 5e-3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .model import (
    FieldTag,
    MeasurementEnsemble,
    NoiseSpec,
    _check_count,
    _check_positive,
    field_of,
    synthesize_instance,
    write_csv,
    write_json,
)
from .model import correlate  # unused here; benchmarks/tracing.py binds it
from .objective import loss, objective
from .rng import TAG_HOLDOUT, _check_seed, mix, stream
from .solver import SolverConfig, SolverResult, Termination, solve
from .spectral import SpectralConfig, spectral_init


def _phase(x_hat: np.ndarray, x_true: np.ndarray):
    """Validate the pair and return ``relative_error``'s optimal global
    phase, conj(<x_hat, x_true>) / |.|: +-1 for real data, 1 on a tie."""
    if x_hat.shape != x_true.shape or field_of(x_hat) is not field_of(x_true):
        raise ValueError("estimate and truth must share field and length")
    if np.linalg.norm(x_true) == 0.0:
        raise ValueError("relative error is undefined for a zero ground truth")
    inner = np.vdot(x_hat, x_true).item()  # a Python float for real data
    return np.conj(inner) / abs(inner) if inner else 1.0


def relative_error(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Phase-invariant relative recovery error.

    ||x_hat - phi x_true|| / ||x_true|| at the optimal global phase
    phi = conj(<x_hat, x_true>) / |.|, +-1 for real data (1 when the inner
    product vanishes, any phase being optimal then).
    """
    x_hat = np.asarray(x_hat)
    x_true = np.asarray(x_true)
    phase = _phase(x_hat, x_true)
    return float(np.linalg.norm(x_hat - phase * x_true) / np.linalg.norm(x_true))


def align(x_hat: np.ndarray, x_true: np.ndarray) -> np.ndarray:
    """Rotate/flip x_hat onto x_true's global phase."""
    x_hat = np.asarray(x_hat)
    return x_hat * np.conj(_phase(x_hat, np.asarray(x_true)))


def settings(cfg: SolverConfig) -> dict:
    """A run's solver settings, the two SolverConfig fields, in the order
    every writer echoes them; the MM constants are the class's, not the run's."""
    return {"lambda": cfg.lam, "alpha": cfg.alpha}


def summarize(result: SolverResult, e: MeasurementEnsemble, cfg: SolverConfig) -> dict:
    """A run's reported fields, in the order every writer exports them; the
    truth's fields only with a nonzero truth, where truth_gap = (F(x_hat) -
    F(x_true)) / F(x0), or 0 at F(x0) = 0: x0 = x_hat is a global minimizer."""
    x, truth = result.estimate, e.nonzero_truth
    doc = {
        "termination": result.termination.value,
        "iterations": result.iterations,
        "initial_objective": result.initial_objective,
        "final_objective": result.final_objective,
        "fixed_point_residual": result.fixed_point_residual,
        "trials": result.trials,
        "prox_calls": result.trials + (result.iterations > 0),
        "forward_products": result.trials + 1,
        "adjoint_products": result.iterations + 1,
        "support_size": int(np.count_nonzero(x)),
    }
    if truth is not None:
        F_true = objective(truth, e, cfg.lam, cfg.alpha)
        doc["relative_error"] = relative_error(x, truth)
        F0 = result.initial_objective
        doc["truth_gap"] = (result.final_objective - F_true) / F0 if F0 else 0.0
        doc["support_missed"] = int(np.count_nonzero((truth != 0) & (x == 0)))
        doc["support_extra"] = int(np.count_nonzero((x != 0) & (truth == 0)))
    return doc


@dataclass(frozen=True)
class ExperimentSpec:
    p: int
    s: int
    n_grid: tuple
    noise: NoiseSpec
    trials: int
    solver: SolverConfig
    master_seed: int
    field: FieldTag = FieldTag.REAL
    success_threshold: float = 5e-3
    spectral: SpectralConfig | None = None  # None: the untruncated start

    def __post_init__(self):
        p, s, trials = _check_count(p=self.p, s=self.s, trials=self.trials)
        n_grid = tuple(_check_count(n=n) for n in self.n_grid)
        if not n_grid or any(a >= b for a, b in zip(n_grid, n_grid[1:])):
            raise ValueError("n_grid must be nonempty and strictly ascending")
        checked = dict(
            p=p, s=s, n_grid=n_grid, trials=trials,
            master_seed=_check_seed(master_seed=self.master_seed),
            success_threshold=_check_positive(
                success_threshold=self.success_threshold))
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    seed: int
    summary: dict  # summarize() of the trial's run: the exported columns
    wall_time: float  # informational only; excluded from exported files

    relative_error = property(lambda self: self.summary["relative_error"])
    iterations = property(lambda self: self.summary["iterations"])


@dataclass
class ExperimentReport:
    """The trials of an experiment; its per-n summaries are read from them."""

    spec: ExperimentSpec
    records: list

    def _groups(self):
        return {n: [r for r in self.records if r.n == n] for n in self.spec.n_grid}

    @property
    def success_rate(self) -> dict:
        """Per n, the share of trials below the success threshold that did
        not end LineSearchFailed."""
        failed = Termination.LINE_SEARCH_FAILED.value
        return {n: sum(r.relative_error < self.spec.success_threshold
                       and r.summary["termination"] != failed for r in group)
                / len(group) for n, group in self._groups().items()}

    @property
    def median_relative_error(self) -> dict:
        return {n: float(np.median([r.relative_error for r in group]))
                for n, group in self._groups().items()}

    def write_csv(self, path) -> None:
        write_csv(path, ("n", "trial", "seed", *self.records[0].summary),
                  [(r.n, r.trial, r.seed, *r.summary.values()) for r in self.records])

    def write_json(self, path) -> None:
        doc = {
            "p": self.spec.p,
            "s": self.spec.s,
            "field": self.spec.field.value,
            "noise": str(self.spec.noise),
            "trials": self.spec.trials,
            "master_seed": self.spec.master_seed,
            "success_threshold": self.spec.success_threshold,
            **settings(self.spec.solver),
            "success_rate": {str(n): rate for n, rate in self.success_rate.items()},
            "median_relative_error": {
                str(n): err for n, err in self.median_relative_error.items()
            },
        }
        write_json(path, doc)


def trial_seed(master_seed: int, n: int, trial: int) -> int:
    """Per-trial seed; stable under extensions of the grid or trial count."""
    return mix(master_seed, n, trial)


def drawn_start(e: MeasurementEnsemble, cfg: SpectralConfig | None = None) -> np.ndarray:
    """The spectral start of an instance the program drew, or the zero signal
    when its noise leaves mean b <= 0, spectral_init's one DomainError: the
    run from zero stays there, with relative error 1, so a sweep counts the
    draw as a failure and finishes.  An instance read from a file is refused."""
    try:
        return spectral_init(e, cfg)
    except DomainError:
        return np.zeros(e.p, e.field.dtype)


def run_trial(spec: ExperimentSpec, n: int, trial: int) -> TrialRecord:
    seed = trial_seed(spec.master_seed, n, trial)
    instance = synthesize_instance(spec.p, spec.s, n, spec.field, spec.noise, seed)
    start = time.perf_counter()
    x0 = drawn_start(instance, spec.spectral)
    result = solve(instance, x0, spec.solver)
    elapsed = time.perf_counter() - start
    return TrialRecord(n, trial, seed, summarize(result, instance, spec.solver), elapsed)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run trials over the measurement grid; deterministic given the seed."""
    return ExperimentReport(spec, [run_trial(spec, n, t) for n in spec.n_grid
                                   for t in range(spec.trials)])


def error_vs_iteration(
    e: MeasurementEnsemble, cfg: SolverConfig
) -> tuple[list, SolverResult]:
    """Relative-error curve along the iterates, starting at the spectral point
    drawn with the ensemble's seed (``drawn_start``: zero when mean b <= 0)."""
    if (truth := e.nonzero_truth) is None:
        raise DomainError("error-vs-iteration needs a nonzero ground truth")
    curve = []

    def record(k, x):
        curve.append((k, relative_error(x, truth)))

    result = solve(e, drawn_start(e), cfg, callback=record)
    return curve, result


def holdout_split(e: MeasurementEnsemble):
    """Deterministic 80/20 measurement split derived from the ensemble seed."""
    rng = stream(e.seed, TAG_HOLDOUT)
    perm = rng.permutation(e.n)
    cut = max(1, min(e.n - 1, int(round(0.8 * e.n))))
    return np.sort(perm[:cut]), np.sort(perm[cut:])


def _sub_ensemble(e: MeasurementEnsemble, idx: np.ndarray) -> MeasurementEnsemble:
    """Rows idx of e, without the truth and noise record no holdout step reads."""
    return MeasurementEnsemble(e.sampling_vectors[idx], e.observations[idx],
                               seed=e.seed)


VALIDATION_RULES = ("oracle", "holdout")  # lambda_grid_search's rules


def lambda_grid_search(
    e: MeasurementEnsemble,
    cfg_base: SolverConfig,
    lambda_grid,
    validation_rule: str,
):
    """Pick lambda from a grid by oracle error or held-out Huber loss.

    rule 'oracle': smallest relative error against the ground truth.
    rule 'holdout': fit on 80% of the measurements, score by the Huber loss
    on the held-out 20% (so it needs at least 2 measurements).  Ties go to the larger lambda (sparser solutions).
    Returns (chosen_lambda, table) with one (lambda, score) row per grid
    point, in ascending lambda.

    The grid is solved once per lambda in ascending order, along a
    continuation path.  The smallest lambda starts from the spectral point.
    Each later lambda starts from the previous lambda's estimate, unless that
    estimate is all zero (g(0) = 0, so zero is a fixed point of every MM
    step) or scores worse than the spectral point under the same rule (the
    path is trapped at a poor stationary point); then it starts from the
    spectral point again.  So a score after the smallest lambda's usually
    comes from a warm start.  Every grid value must be finite and positive.
    """
    grid = sorted(_check_positive(lam=lam) for lam in lambda_grid)
    if not grid or len(set(grid)) < len(grid):
        raise ValueError("lambda grid must be nonempty and free of repeats")
    if validation_rule not in VALIDATION_RULES:
        raise ValueError(f"unknown validation rule: {validation_rule!r}")
    if validation_rule == "holdout":
        if e.n < 2:
            raise DomainError("holdout rule needs at least 2 measurements")
        train_idx, val_idx = holdout_split(e)
        train = _sub_ensemble(e, train_idx)
        val = _sub_ensemble(e, val_idx)

        def score(x):
            return loss(x, val, cfg_base.alpha)
    else:
        if (truth := e.nonzero_truth) is None:
            raise DomainError("oracle rule needs a nonzero ground truth")
        train = e

        def score(x):
            return relative_error(x, truth)

    x_spectral = spectral_init(train)
    spectral_score = score(x_spectral)
    x0 = x_spectral
    table = []
    best_lam, best_score = None, np.inf
    for lam in grid:
        result = solve(train, x0, replace(cfg_base, lam=lam))
        lam_score = score(result.estimate)
        table.append((lam, lam_score))
        if lam_score <= best_score:  # ascending grid: later (larger) lambda wins ties
            best_lam, best_score = lam, lam_score
        warm = np.any(result.estimate) and lam_score <= spectral_score
        x0 = result.estimate if warm else x_spectral
    return best_lam, table
