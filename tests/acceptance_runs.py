"""The acceptance experiment's runs as a function of the master seed.

``runs(offset)`` solves the nine arms that criteria 3-6, 13 and 15 of
``tests/test_acceptance.py`` read, each from its master seed (100, 200,
300, 400, 500 or 600) plus ``offset``; the suite's fixture is ``runs(0)``.
Every run is stored once, with its ``metrics.summarize`` record and F at the
truth.  ``COLUMNS`` holds the statistics the criteria gate, each one function
of an arm's runs, and the criteria read nothing else.  Run as a script, from
the repository root,

    PYTHONPATH=src python tests/acceptance_runs.py

it prints every column for offsets 1-10 and each arm: the spread that a
bound over the master seed is set from.  A new arm is a row of ``ARMS``; a
new statistic is an entry of ``COLUMNS``.
"""

from __future__ import annotations

import time
from collections import namedtuple

import numpy as np

from robustpr import (
    FieldTag,
    MeasurementEnsemble,
    NoiseSpec,
    SolverConfig,
    Termination,
    relative_error,
    solve,
    spectral_init,
    synthesize_instance,
)
from robustpr.metrics import summarize, trial_seed
from robustpr.objective import objective

LAMBDA_GRID = (1e-6, 1e-5, 1e-4, 1e-3)
SUCCESS_ERROR = 5e-3
CONVERGED = Termination.CONVERGED.value
# A Huber threshold above every residual makes h_alpha(u) = u^2/2 everywhere:
# the squared loss that criterion 6 compares the Huber loss against.
SQUARED_LOSS_ALPHA = 1e6


# The scale factors c of criterion 15; c = 1 is each scaled run's twin.
SCALES = (1.0, 0.01, 0.1, 10.0, 100.0)

Arm = namedtuple("Arm", "name field p s n noise alpha trials master_seed lams scales",
                 defaults=(LAMBDA_GRID, (1.0,)))
Run = namedtuple("Run", "trial scale lam result summary F_true")
# The Type-III instances (master seed 300) are solved twice from the same
# spectral inits: with the Huber loss and with the squared loss.  The scaled
# arms solve the t3, quick and cplx shapes at a selecting lambda, at each c
# of SCALES; the t3 ones are the first ten Type-III instances.
ARMS = (
    Arm("real_noiseless", FieldTag.REAL, 64, 6, 512, NoiseSpec("none"), 1.345, 20, 100),
    Arm("complex_noiseless",
        FieldTag.COMPLEX, 32, 4, 320, NoiseSpec("none"), 1.345, 20, 200),
    Arm("real_noiseless_outlier_alpha",
        FieldTag.REAL, 64, 6, 512, NoiseSpec("none"), 0.1345, 20, 300),
    Arm("type3", FieldTag.REAL, 64, 6, 512, NoiseSpec("type3", 0.1), 0.1345, 20, 300),
    Arm("type3_squared",
        FieldTag.REAL, 64, 6, 512, NoiseSpec("type3", 0.1), SQUARED_LOSS_ALPHA, 20, 300),
    Arm("gaussian",
        FieldTag.REAL, 64, 6, 512, NoiseSpec("gaussian", 0.01), 1.345, 20, 400),
    Arm("t3_scaled", FieldTag.REAL, 64, 6, 512, NoiseSpec("type3", 0.1), 0.1345, 10, 300,
        (1e-3,), SCALES),
    Arm("quick_scaled", FieldTag.REAL, 128, 12, 768, NoiseSpec("type2", 0.1), 1.345, 10,
        500, (0.1,), SCALES),
    Arm("cplx_scaled", FieldTag.COMPLEX, 128, 8, 768, NoiseSpec("type3", 0.05), 1.345, 10,
        600, (1e-2,), SCALES),
)


def scaled(e, c):
    """The instance scaled by c: x -> c x, b -> c^2 b and noise c^2 eps.  At
    lambda c^3.5 and alpha c^2 its F is c^4 times e's, and its minimizer c
    times e's."""
    return MeasurementEnsemble(e.sampling_vectors, c * c * e.observations,
                               c * e.ground_truth, c * c * e.noise_record, e.seed)


def runs(offset=0, arms=ARMS):
    """Each arm's runs, a Run at every scale and lambda of the arm, with its
    unscaled lambda, and each arm's wall seconds, both by arm name."""
    by_arm, seconds = {}, {}
    for arm in arms:
        t0 = time.perf_counter()
        arm_runs = by_arm[arm.name] = []
        for trial in range(arm.trials):
            seed = trial_seed(arm.master_seed + offset, arm.n, trial)
            e = synthesize_instance(arm.p, arm.s, arm.n, arm.field, arm.noise, seed)
            for c in arm.scales:
                e_c = scaled(e, c)
                x0 = spectral_init(e_c)
                for lam in arm.lams:
                    cfg = SolverConfig(lam=lam * c**3.5, alpha=arm.alpha * c**2)
                    result = solve(e_c, x0, cfg)
                    arm_runs.append(Run(trial, c, lam, result, summarize(result, e_c, cfg),
                                        objective(e_c.ground_truth, e_c, cfg.lam, cfg.alpha)))
        seconds[arm.name] = time.perf_counter() - t0
    return by_arm, seconds


def _best_errors(arm_runs):
    """Each trial's best relative error over the arm's lambdas, at each
    scale: oracle tuning."""
    best = {}
    for run in arm_runs:
        key = run.trial, run.scale
        best[key] = min(best.get(key, np.inf), run.summary["relative_error"])
    return np.array(list(best.values()))


def _converged(arm_runs, key):
    """``key`` of each of an arm's converged runs."""
    return [run.summary[key] for run in arm_runs if run.summary["termination"] == CONVERGED]


def scale_twins(arm_runs):
    """Each scaled run (c != 1) with its twin: the run at c = 1 of the same
    trial and lambda."""
    twins = {(run.trial, run.lam): run for run in arm_runs if run.scale == 1.0}
    return [(run, twins[run.trial, run.lam]) for run in arm_runs if run.scale != 1.0]


def deviation(run, twin):
    """relative_error(x_hat(c) / c, x_hat(1)): zero for an equivariant solver."""
    return relative_error(run.result.estimate / run.scale, twin.result.estimate)


def _iteration_factor(run, twin):
    """The larger iteration count over the smaller (a zero count as 1)."""
    counts = run.result.iterations, twin.result.iterations
    return max(counts) / max(1, min(counts))


def _relative_truth_gap(run):
    """(F(x_hat) - F(x_true)) / |F(x_true)|: summarize's truth_gap floors
    |F(x_true)| at 1, which hides a gap at c << 1."""
    return (run.result.final_objective - run.F_true) / abs(run.F_true)


def _q90(values):
    """The smallest value at or above 90% of ``values``; NaN for none."""
    return float(np.quantile(values, 0.9, method="inverted_cdf")) if values else np.nan


# The criterion each column gates; a max over no converged run is NaN.
COLUMNS = {
    # criterion 6
    "median best error": lambda arm_runs: float(np.median(_best_errors(arm_runs))),
    # criterion 13: (F(x_hat) - F(x_true)) / max(1, |F(x_true)|)
    "max truth gap": lambda arm_runs: max(_converged(arm_runs, "truth_gap"),
                                          default=np.nan),
    # criterion 4
    "not converged": lambda arm_runs: sum(
        run.summary["termination"] != CONVERGED for run in arm_runs),
    # criterion 5: the share of trials whose best error is below SUCCESS_ERROR
    "success rate": lambda arm_runs: float(np.mean(_best_errors(arm_runs) < SUCCESS_ERROR)),
    # criterion 4: the fixed-point residual at the accepted step
    "max residual": lambda arm_runs: max(_converged(arm_runs, "fixed_point_residual"),
                                         default=np.nan),
    # criterion 15: the deviation that at least 90% of the scaled runs stay within
    "deviation q90": lambda arm_runs: _q90(
        [deviation(*pair) for pair in scale_twins(arm_runs)]),
    # criterion 15
    "iteration factor": lambda arm_runs: max(
        (_iteration_factor(*pair) for pair in scale_twins(arm_runs)), default=np.nan),
    # criterion 15: scaled runs whose Converged differs from their twin's
    "converged mismatch": lambda arm_runs: sum(
        (run.summary["termination"] == CONVERGED) != (twin.summary["termination"] == CONVERGED)
        for run, twin in scale_twins(arm_runs)),
    # criterion 15: _relative_truth_gap, over the converged scaled runs
    "scaled truth gap": lambda arm_runs: max(
        (_relative_truth_gap(run) for run, _ in scale_twins(arm_runs)
         if run.summary["termination"] == CONVERGED), default=np.nan),
}


def main(offsets=range(1, 11), arms=ARMS):
    """Print a header naming every column, then one row per offset and arm
    with each value right-aligned under its column's name."""
    print(f"{'offset':>6}  {'arm':<28} " + " ".join(COLUMNS))
    for offset in offsets:
        for name, arm_runs in runs(offset, arms)[0].items():
            cells = []
            for column, statistic in COLUMNS.items():
                value = statistic(arm_runs)
                kind = "d" if isinstance(value, int) else ".3e"
                cells.append(format(value, f">{len(column)}{kind}"))
            print(f"{offset:>6}  {name:<28} " + " ".join(cells))


if __name__ == "__main__":
    main()
