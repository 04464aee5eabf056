"""The acceptance experiment's runs as a function of the master seed.

``runs(offset)`` solves the six arms that criteria 3-6 and 13 of
``tests/test_acceptance.py`` read, each from its master seed (100, 200,
300 or 400) plus ``offset``; the suite's fixture is ``runs(0)``.  Every
run is stored once, with its ``metrics.summarize`` record.  ``COLUMNS``
holds the statistics the criteria gate, each one function of an arm's runs,
and the criteria read nothing else.  Run as a script, from the repository
root,

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
    NoiseSpec,
    SolverConfig,
    Termination,
    solve,
    spectral_init,
    synthesize_instance,
)
from robustpr.metrics import summarize, trial_seed

LAMBDA_GRID = (1e-6, 1e-5, 1e-4, 1e-3)
SUCCESS_ERROR = 5e-3
CONVERGED = Termination.CONVERGED.value
# A Huber threshold above every residual makes h_alpha(u) = u^2/2 everywhere:
# the squared loss that criterion 6 compares the Huber loss against.
SQUARED_LOSS_ALPHA = 1e6


Arm = namedtuple("Arm", "name field p s n noise alpha trials master_seed")
# The Type-III instances (master seed 300) are solved twice from the same
# spectral inits: with the Huber loss and with the squared loss.
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
)


def runs(offset=0, arms=ARMS):
    """Each arm's runs, as (trial, lam, result, summary) at every lambda of
    LAMBDA_GRID, and each arm's wall seconds, both by arm name."""
    by_arm, seconds = {}, {}
    for arm in arms:
        t0 = time.perf_counter()
        arm_runs = by_arm[arm.name] = []
        for trial in range(arm.trials):
            seed = trial_seed(arm.master_seed + offset, arm.n, trial)
            e = synthesize_instance(arm.p, arm.s, arm.n, arm.field, arm.noise, seed)
            x0 = spectral_init(e)
            for lam in LAMBDA_GRID:
                cfg = SolverConfig(lam=lam, alpha=arm.alpha)
                result = solve(e, x0, cfg)
                arm_runs.append((trial, lam, result, summarize(result, e, cfg)))
        seconds[arm.name] = time.perf_counter() - t0
    return by_arm, seconds


def _best_errors(arm_runs):
    """Each trial's best relative error over LAMBDA_GRID: oracle tuning."""
    errors = [summary["relative_error"] for *_, summary in arm_runs]
    return np.min(np.reshape(errors, (-1, len(LAMBDA_GRID))), axis=1)


def _converged(arm_runs, key):
    """``key`` of each of an arm's converged runs."""
    return [summary[key] for *_, summary in arm_runs
            if summary["termination"] == CONVERGED]


# The criterion each column gates; a max over no converged run is NaN.
COLUMNS = {
    # criterion 6
    "median best error": lambda arm_runs: float(np.median(_best_errors(arm_runs))),
    # criterion 13: (F(x_hat) - F(x_true)) / max(1, |F(x_true)|)
    "max truth gap": lambda arm_runs: max(_converged(arm_runs, "truth_gap"),
                                          default=np.nan),
    # criterion 4
    "not converged": lambda arm_runs: sum(
        summary["termination"] != CONVERGED for *_, summary in arm_runs),
    # criterion 5: the share of trials whose best error is below SUCCESS_ERROR
    "success rate": lambda arm_runs: float(np.mean(_best_errors(arm_runs) < SUCCESS_ERROR)),
    # criterion 4: the fixed-point residual at the accepted step
    "max residual": lambda arm_runs: max(_converged(arm_runs, "fixed_point_residual"),
                                         default=np.nan),
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
