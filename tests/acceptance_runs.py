"""The acceptance experiment's runs as a function of the master seed.

``runs(offset)`` solves the six arms that criteria 3-6 of
``tests/test_acceptance.py`` read, each from its master seed (100, 200,
300 or 400) plus ``offset``; the suite's fixture is ``runs(0)``.  Run as a
script, from the repository root,

    PYTHONPATH=src python tests/acceptance_runs.py

it solves offsets 1-10 and prints, per offset and arm, the median best
error, the largest truth gap (F(x_hat) - F(x_true)) / max(1, |F(x_true)|)
and the count of runs that did not converge: the spread that a bound over
the master seed is set from.  No test runs the sweep.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from robustpr import (
    FieldTag,
    NoiseSpec,
    SolverConfig,
    Termination,
    objective,
    relative_error,
    solve,
    spectral_init,
    synthesize_instance,
)
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
    """Oracle lambda tuning per trial over LAMBDA_GRID.

    Every run lands in ``runs`` as ((arm, trial, lam), e, cfg, result).
    """
    best_errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(trials):
            seed = mix(master_seed, n, trial)
            e = synthesize_instance(p, s, n, field, noise, seed)
            x0 = spectral_init(e, seed=seed)
            best = None
            for lam in LAMBDA_GRID:
                cfg = SolverConfig(lam=lam, alpha=alpha)
                result = solve(e, x0, cfg)
                runs.append(((arm, trial, lam), e, cfg, result))
                rel = relative_error(result.estimate, e.ground_truth)
                if best is None or rel <= best:
                    best = rel
            best_errors.append(best)
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


def truth_gap(e, cfg, result):
    """(F(x_hat) - F(x_true)) / max(1, |F(x_true)|): above 0, the run ended
    higher than a global minimizer can."""
    at_truth = objective(e.ground_truth, e, cfg.lam, cfg.alpha)
    gap = objective(result.estimate, e, cfg.lam, cfg.alpha) - at_truth
    return gap / max(1.0, abs(at_truth))


def main():
    print(f"{'offset':>6}  {'arm':<28} {'median best error':>17} "
          f"{'max truth gap':>13} {'not converged':>13}")
    for offset in range(1, 11):
        data = runs(offset)
        for name, *_ in ARMS:
            arm_runs = [run for run in data["runs"] if run[0][0] == name]
            gap = max(truth_gap(e, cfg, result) for _, e, cfg, result in arm_runs)
            stalled = sum(result.termination is not Termination.CONVERGED
                          for *_, result in arm_runs)
            print(f"{offset:>6}  {name:<28} {np.median(data[name]):>17.3e} "
                  f"{gap:>13.3e} {stalled:>13}")


if __name__ == "__main__":
    main()
