import csv

import numpy as np
import pytest

from robustpr import (
    FieldTag,
    NoiseSpec,
    SolverConfig,
    Termination,
    fixed_point_residual,
    relative_error,
    solve,
    synthesize_instance,
)
from robustpr.model import MeasurementEnsemble
from robustpr.objective import objective
from robustpr.solver import write_trace_csv


def easy_instance(seed=11):
    return synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("none"), seed)


def test_solve_from_truth_noiseless():
    e = easy_instance()
    cfg = SolverConfig(lam=1e-4)
    result = solve(e, e.ground_truth, cfg)
    assert result.termination is Termination.CONVERGED
    assert relative_error(result.estimate, e.ground_truth) < 5e-3
    assert result.trace[0].F_value <= result.initial_objective
    assert result.iterations <= 25


def test_solve_zero_observations_collapse():
    a = np.random.default_rng(0).standard_normal((12, 6))
    e = MeasurementEnsemble(
        field=FieldTag.REAL, sampling_vectors=a, observations=np.zeros(12)
    )
    x0 = np.random.default_rng(1).standard_normal(6)
    result = solve(e, x0, SolverConfig(lam=50.0))
    assert not result.estimate.any()
    assert result.final_objective == 0.0
    assert result.termination is Termination.CONVERGED


def test_trace_descent_and_square_summability():
    e = synthesize_instance(24, 3, 192, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    cfg = SolverConfig(lam=1e-3)
    result = solve(e, np.zeros(24) + 0.5, cfg)
    values = [result.initial_objective] + [r.F_value for r in result.trace]
    steps = [r.step_norm for r in result.trace]
    for f_prev, f_next, step in zip(values, values[1:], steps):
        assert f_prev - f_next >= cfg.delta * step**2 - 1e-15
    assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))
    assert sum(s**2 for s in steps) <= 2.0 * result.initial_objective / cfg.delta
    assert all(0.0 < r.tau <= cfg.gamma for r in result.trace)


def test_converged_step_criterion():
    e = easy_instance(5)
    cfg = SolverConfig(lam=1e-4)
    from robustpr.spectral import SpectralConfig, spectral_init

    x0 = spectral_init(e, SpectralConfig(), 5)
    result = solve(e, x0, cfg)
    assert result.termination is Termination.CONVERGED
    assert result.trace[-1].step_norm <= cfg.eps * max(
        1.0, np.linalg.norm(result.estimate) + result.trace[-1].step_norm
    )
    assert result.trace[-1].fixed_point_residual <= 10 * cfg.eps


def test_line_search_failure_is_reported_not_raised():
    e = easy_instance(7)
    # enormous delta rejects every candidate within the backtrack budget
    cfg = SolverConfig(lam=1e-4, delta=1e12, max_backtracks=3)
    rng = np.random.default_rng(2)
    result = solve(e, rng.standard_normal(16), cfg)
    assert result.termination is Termination.LINE_SEARCH_FAILED
    assert result.estimate.shape == (16,)


def test_fixed_point_residual_cases():
    e = easy_instance(9)
    cfg = SolverConfig(lam=1e-4)
    # x = 0 is a fixed point of the map at x=0 (g(0)=0, threshold keeps 0)
    assert fixed_point_residual(np.zeros(16), e, 1e-4, 1.345, 0.5) == 0.0
    result = solve(e, e.ground_truth, cfg)
    tau = result.trace[-1].tau if result.trace else 0.5
    assert (
        fixed_point_residual(result.estimate, e, cfg.lam, cfg.alpha, tau) <= 1e-5
    )
    rng = np.random.default_rng(3)
    wild = e.ground_truth + 2.0 * rng.standard_normal(16)
    assert fixed_point_residual(wild, e, cfg.lam, cfg.alpha, tau) > 1e-2
    with pytest.raises(ValueError):
        fixed_point_residual(np.zeros(16), e, 1e-4, 1.345, 0.0)


def test_objective_cached_value_matches_recomputation():
    e = synthesize_instance(12, 2, 96, FieldTag.COMPLEX, NoiseSpec("type1", 0.1), 4)
    cfg = SolverConfig(lam=1e-3)
    from robustpr.spectral import SpectralConfig, spectral_init

    x0 = spectral_init(e, SpectralConfig(truncation=4), 4)
    result = solve(e, x0, cfg)
    recomputed = objective(result.estimate, e, cfg.lam, cfg.alpha)
    assert np.isclose(result.final_objective, recomputed, rtol=1e-12)


def test_callback_sees_initial_point_and_each_iterate():
    e = easy_instance(13)
    seen = []
    result = solve(
        e, e.ground_truth, SolverConfig(lam=1e-4), callback=lambda k, x: seen.append(k)
    )
    assert seen[0] == 0
    assert len(seen) == result.iterations + 1


def test_trace_csv_export(tmp_path):
    e = easy_instance(15)
    result = solve(e, e.ground_truth, SolverConfig(lam=1e-4))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, result)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "F", "tau", "j", "step_norm", "support_size",
                       "fp_residual"]
    assert len(rows) == len(result.trace) + 1
    assert float(rows[1][1]) == result.trace[0].F_value


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, gamma=1.5)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, beta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, eps=0.0)
    for bad in (float("nan"), float("inf")):
        for name in ("lam", "alpha", "delta", "eps"):
            with pytest.raises(ValueError):
                SolverConfig(**{"lam": 1.0, name: bad})


def test_solve_rejects_bad_start():
    e = easy_instance(17)
    with pytest.raises(ValueError):
        solve(e, np.full(16, np.nan), SolverConfig(lam=1e-4))


def test_solve_hits_iteration_cap():
    e = synthesize_instance(24, 3, 96, FieldTag.REAL, NoiseSpec("type2", 0.2), 19)
    rng = np.random.default_rng(5)
    result = solve(e, rng.standard_normal(24), SolverConfig(lam=1e-3, max_iter=3))
    assert result.termination is Termination.MAX_ITERATIONS
    assert result.iterations == 3


@pytest.mark.parametrize("trial", [0, 5, 12])
def test_type3_estimate_is_the_minimizer_not_a_stall(trial):
    # Acceptance criterion 6's Type-III set: the gap to x_true there is the
    # Huber estimator's outlier bias only if the solver really minimizes F.
    # Started from x_true and from the spectral init, it must reach the same
    # point, and that point must beat x_true on F.
    from robustpr.rng import mix
    from robustpr.spectral import SpectralConfig, spectral_init

    seed = mix(300, 512, trial)
    e = synthesize_instance(64, 6, 512, FieldTag.REAL, NoiseSpec("type3", 0.1), seed)
    cfg = SolverConfig(lam=1e-3, alpha=0.1345)
    from_spectral = solve(e, spectral_init(e, SpectralConfig(), seed), cfg)
    from_truth = solve(e, e.ground_truth, cfg)
    assert from_spectral.termination is Termination.CONVERGED
    assert from_truth.termination is Termination.CONVERGED
    gap = relative_error(from_spectral.estimate, from_truth.estimate)
    assert gap <= 10.0 * cfg.eps
    F_truth = objective(e.ground_truth, e, cfg.lam, cfg.alpha)
    assert from_spectral.final_objective <= F_truth
    assert from_truth.final_objective <= F_truth
