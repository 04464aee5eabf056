"""The acceptance experiment's runs as a function of the master seed.

``runs(offset)`` solves the six arms that criteria 3-6 and 13 of
``tests/test_acceptance.py`` read, each from its master seed (100, 200,
300 or 400) plus ``offset``; the suite's fixture is ``runs(0)``.  Every
run is stored once, with its ``metrics.summarize`` record, and every reader
takes its numbers from that record.  Run as a script, from the repository
root,

    PYTHONPATH=src python tests/acceptance_runs.py

it solves offsets 1-10 and prints, per offset and arm, the median best
error, the largest truth gap (F(x_hat) - F(x_true)) / max(1, |F(x_true)|)
and the count of runs that did not converge: the spread that a bound over
the master seed is set from.  No test runs the sweep.
"""

from __future__ import annotations

import time

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
from robustpr.metrics import summarize
from robustpr.rng import mix

LAMBDA_GRID = (1e-6, 1e-5, 1e-4, 1e-3)
# A Huber threshold above every residual makes h_alpha(u) = u^2/2 everywhere:
# the squared loss that criterion 6 compares the Huber loss against.
SQUARED_LOSS_ALPHA = 1e6
# (name, field, p, s, n, noise, alpha, trials, master seed).  The Type-III
# instances (master seed 300) are solved twice from the same spectral inits:
# with the Huber loss and with the squared loss.
ARMS = (
    ("real_noiseless", FieldTag.REAL, 64, 6, 512, NoiseSpec("none"), 1.345, 20, 100),
    ("complex_noiseless",
     FieldTag.COMPLEX, 32, 4, 320, NoiseSpec("none"), 1.345, 20, 200),
    ("real_noiseless_outlier_alpha",
     FieldTag.REAL, 64, 6, 512, NoiseSpec("none"), 0.1345, 20, 300),
    ("type3", FieldTag.REAL, 64, 6, 512, NoiseSpec("type3", 0.1), 0.1345, 20, 300),
    ("type3_squared",
     FieldTag.REAL, 64, 6, 512, NoiseSpec("type3", 0.1), SQUARED_LOSS_ALPHA, 20, 300),
    ("gaussian",
     FieldTag.REAL, 64, 6, 512, NoiseSpec("gaussian", 0.01), 1.345, 20, 400),
)


def tuned_trials(arm, field, p, s, n, noise, alpha, trials, master_seed, runs):
    """Oracle lambda tuning per trial over LAMBDA_GRID: each trial's best
    relative error.

    Every run lands in ``runs`` as ((arm, trial, lam), result, summary).
    """
    best_errors = []
    for trial in range(trials):
        seed = mix(master_seed, n, trial)
        e = synthesize_instance(p, s, n, field, noise, seed)
        x0 = spectral_init(e, seed=seed)
        summaries = []
        for lam in LAMBDA_GRID:
            cfg = SolverConfig(lam=lam, alpha=alpha)
            result = solve(e, x0, cfg)
            summaries.append(summarize(result, e, cfg))
            runs.append(((arm, trial, lam), result, summaries[-1]))
        best_errors.append(min(summary["relative_error"] for summary in summaries))
    return np.array(best_errors)


def runs(offset=0):
    """Each arm's best errors by name, the noiseless arms' wall time as
    ``noiseless_time``, and every run of every arm as ``runs``."""
    data = {"runs": []}
    t0 = time.perf_counter()
    for name, *setup, master_seed in ARMS:
        data[name] = tuned_trials(name, *setup, master_seed + offset, data["runs"])
        if name == "complex_noiseless":  # the last noiseless arm
            data["noiseless_time"] = time.perf_counter() - t0
    return data


def main():
    print(f"{'offset':>6}  {'arm':<28} {'median best error':>17} "
          f"{'max truth gap':>13} {'not converged':>13}")
    for offset in range(1, 11):
        data = runs(offset)
        for name, *_ in ARMS:
            summaries = [summary for (arm, *_), _, summary in data["runs"]
                         if arm == name]
            gap = max(summary["truth_gap"] for summary in summaries)
            stalled = sum(summary["termination"] != Termination.CONVERGED.value
                          for summary in summaries)
            print(f"{offset:>6}  {name:<28} {np.median(data[name]):>17.3e} "
                  f"{gap:>13.3e} {stalled:>13}")


if __name__ == "__main__":
    main()
