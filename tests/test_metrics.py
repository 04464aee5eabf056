import importlib
import re
from dataclasses import replace

import numpy as np
import pytest

import robustpr.metrics
from robustpr import (
    ExperimentReport,
    ExperimentSpec,
    FieldTag,
    NoiseSpec,
    SolverConfig,
    SpectralConfig,
    error_vs_iteration,
    lambda_grid_search,
    loss,
    objective,
    relative_error,
    run_experiment,
    solve,
    spectral_init,
    synthesize_instance,
)
from robustpr.errors import DomainError
from robustpr.metrics import (
    TrialRecord, _sub_ensemble, align, holdout_split, settings, summarize, trial_seed)
from robustpr.model import render_json


def random_complex(rng, p):
    return rng.standard_normal(p) + 1j * rng.standard_normal(p)


def test_relative_error_trivial_cases():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8)
    assert relative_error(x, x) == 0.0
    assert relative_error(-x, x) == 0.0
    z = random_complex(rng, 8)
    assert relative_error(z, z) == 0.0
    assert relative_error(-z, z) == 0.0
    assert relative_error(1j * z, z) == 0.0
    rotated = np.exp(1j * np.pi / 4) * z
    assert relative_error(rotated, z) <= 1e-12
    assert np.isclose(relative_error(np.zeros_like(z), z), 1.0)


def test_relative_error_phase_invariance_of_estimate():
    rng = np.random.default_rng(1)
    z = random_complex(rng, 6)
    x = random_complex(rng, 6)
    base = relative_error(z, x)
    for theta in rng.uniform(0, 2 * np.pi, size=20):
        assert abs(relative_error(np.exp(1j * theta) * z, x) - base) <= 1e-12


def test_relative_error_triangle_bound():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = random_complex(rng, 5)
        x = random_complex(rng, 5)
        bound = (np.linalg.norm(z) + np.linalg.norm(x)) / np.linalg.norm(x)
        assert relative_error(z, x) <= bound + 1e-12


def test_relative_error_matches_theta_grid():
    rng = np.random.default_rng(3)
    thetas = np.linspace(0.0, 2 * np.pi, 3600, endpoint=False)
    for _ in range(20):
        z = random_complex(rng, 6)
        x = random_complex(rng, 6)
        closed = relative_error(z, x)
        grid = min(
            np.linalg.norm(z - np.exp(1j * th) * x) for th in thetas
        ) / np.linalg.norm(x)
        assert closed <= grid + 1e-12
        assert abs(closed - grid) <= 1e-6  # grid resolution limits agreement


def test_relative_error_validation():
    with pytest.raises(ValueError):
        relative_error(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        relative_error(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        relative_error(np.zeros(3, dtype=complex), np.zeros(3))


def test_align_validation():
    with pytest.raises(ValueError, match="zero ground truth"):
        align(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="share field and length"):
        align(np.zeros(3), np.ones(4))
    with pytest.raises(ValueError, match="share field and length"):
        align(np.zeros(3, dtype=complex), np.ones(3))


def _relative_error_reference(x_hat, x_true):
    """The relative_error body before the phase was shared with align."""
    norm_true = float(np.linalg.norm(x_true))
    if not np.iscomplexobj(x_true):
        return float(
            min(np.linalg.norm(x_hat - x_true), np.linalg.norm(x_hat + x_true))
            / norm_true
        )
    inner = complex(np.vdot(x_hat, x_true))
    if inner == 0:
        return float(np.sqrt(np.linalg.norm(x_hat) ** 2 + norm_true**2) / norm_true)
    phase = np.conj(inner) / abs(inner)
    return float(np.linalg.norm(x_hat - phase * x_true) / norm_true)


def _align_reference(x_hat, x_true):
    """The align body before the phase was shared with relative_error."""
    if not np.iscomplexobj(x_true):
        if np.linalg.norm(x_hat - x_true) <= np.linalg.norm(x_hat + x_true):
            return x_hat.copy()
        return -x_hat
    inner = complex(np.vdot(x_true, x_hat))
    if inner == 0:
        return x_hat.copy()
    return x_hat * (np.conj(inner) / abs(inner))


@pytest.mark.parametrize("complex_field", [False, True])
def test_relative_error_and_align_are_bitwise_the_reference_bodies(complex_field):
    rng = np.random.default_rng(27)
    for p in range(1, 200, 2):
        if complex_field:
            x_hat, x_true = random_complex(rng, p), random_complex(rng, p)
        else:
            x_hat, x_true = rng.standard_normal((2, p))
        estimates = [x_hat, -x_true + 1e-3 * x_hat]
        if not complex_field:  # a tie: both signs give the same error
            estimates.append(np.zeros(p))
        for estimate in estimates:
            got, want = align(estimate, x_true), _align_reference(estimate, x_true)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (relative_error(estimate, x_true)
                    == _relative_error_reference(estimate, x_true))


def test_relative_error_at_an_orthogonal_complex_estimate():
    # every phase is optimal, so the error is taken at phase 1
    x_hat, x_true = np.array([0.0, 2.0j]), np.array([1.0 + 0j, 0.0])
    assert relative_error(x_hat, x_true) == np.linalg.norm(x_hat - x_true)
    assert np.isclose(relative_error(x_hat, x_true), np.sqrt(5.0))
    np.testing.assert_array_equal(align(x_hat, x_true), x_hat)


def test_align_real_and_complex():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(5)
    np.testing.assert_array_equal(align(-x, x), x)
    z = random_complex(rng, 5)
    aligned = align(np.exp(1j * 0.3) * z, z)
    assert np.linalg.norm(aligned - z) <= 1e-12 * np.linalg.norm(z)


def desk_spec(**overrides):
    base = dict(
        p=16,
        s=2,
        n_grid=(160,),
        noise=NoiseSpec("none"),
        trials=1,
        solver=SolverConfig(lam=1e-4),
        master_seed=42,
        field=FieldTag.REAL,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.mark.parametrize("threshold", [np.nan, 0.0, -1.0, np.inf,
                                       pytest.param(10**400, id="10**400")])
def test_experiment_spec_rejects_bad_success_threshold(threshold):
    with pytest.raises(ValueError, match="^success_threshold must be finite and "
                                         f"positive, got {threshold}$"):
        desk_spec(success_threshold=threshold)


@pytest.mark.parametrize("trials", [2.5, 3.0, np.nan, True, "3"])
def test_experiment_spec_rejects_a_non_integer_trial_count(trials):
    message = f"^trials must be a positive integer, got {re.escape(str(trials))}$"
    with pytest.raises(ValueError, match=message):
        desk_spec(trials=trials)


def test_a_numpy_integer_trial_count_runs_the_same_trials():
    ours = run_experiment(desk_spec(trials=np.int64(1))).records
    assert [r.summary for r in ours] == [r.summary for r in run_experiment(desk_spec()).records]


def test_a_report_of_numpy_integer_counts_writes_the_same_json(tmp_path):
    paths = tmp_path / "numpy.json", tmp_path / "int.json"
    ints = dict(p=16, s=2, trials=1, master_seed=42)
    numpy_ints = dict(p=np.int64(16), s=np.int32(2), trials=np.uint8(1),
                      master_seed=np.uint64(42))
    for path, counts in zip(paths, (numpy_ints, ints)):
        run_experiment(desk_spec(**counts)).write_json(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("field, value, message", [
    ("p", 16.0, "p must be a positive integer, got 16.0"),
    ("s", True, "s must be a positive integer, got True"),
    ("n_grid", (16.0,), "n must be a positive integer, got 16.0"),
    ("n_grid", (0, 160), "n must be a positive integer, got 0"),
    ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
    ("master_seed", np.True_, "master_seed must be an integer, got True"),
])
def test_experiment_spec_refuses_a_bad_count_or_seed_when_built(field, value, message):
    # each was accepted once, and run_experiment tripped on it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        desk_spec(**{field: value})


def test_experiment_spec_stores_each_grid_entry_as_a_python_int():
    spec = desk_spec(n_grid=[np.int64(64), np.uint16(160)])
    assert spec.n_grid == (64, 160)
    assert [type(n) for n in spec.n_grid] == [int, int]


def test_settings_echo_the_python_floats_the_config_holds():
    # a float32 lambda once made render_json raise TypeError; an int one is a float
    assert render_json(settings(SolverConfig(np.float32(1e-3), np.float16(0.5)))) == \
        render_json(settings(SolverConfig(float(np.float32(1e-3)), 0.5)))
    assert render_json(settings(SolverConfig(1, 2))) == '{"lambda": 1.0, "alpha": 2.0}'


def test_run_experiment_easy_instance_succeeds():
    report = run_experiment(desk_spec())
    assert report.success_rate[160] == 1.0
    assert len(report.records) == 1


def test_run_experiment_underdetermined_fails():
    spec = desk_spec(n_grid=(16,), noise=NoiseSpec("type2", 0.1), trials=5)
    report = run_experiment(spec)
    assert report.success_rate[16] <= 0.2


def test_run_experiment_deterministic():
    spec = desk_spec(trials=3, n_grid=(64, 160))
    r1 = run_experiment(spec)
    r2 = run_experiment(spec)
    # every record field but the informational wall time
    assert [replace(r, wall_time=0.0) for r in r1.records] == [
        replace(r, wall_time=0.0) for r in r2.records
    ]
    assert r1.success_rate == r2.success_rate


def test_report_reads_its_summaries_from_its_records():
    spec = desk_spec(n_grid=(16, 160), trials=2, success_threshold=1e-3)
    records = [TrialRecord(n, t, 0, {"termination": term, "relative_error": err}, 0.0)
               for n, t, term, err in [
                   (16, 0, "Converged", 5e-4), (16, 1, "LineSearchFailed", 1e-4),
                   (160, 0, "MaxIterations", 2e-4), (160, 1, "Converged", 3e-3)]]
    report = ExperimentReport(spec, records)
    assert report.success_rate == {16: 0.5, 160: 0.5}
    assert report.median_relative_error == {16: np.median([5e-4, 1e-4]),
                                            160: np.median([2e-4, 3e-3])}
    with pytest.raises(TypeError):
        ExperimentReport(spec, records, report.success_rate,
                         report.median_relative_error)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_a_spec_without_a_spectral_config_runs_the_untruncated_start(field):
    spec = desk_spec(trials=2, n_grid=(64, 160), noise=NoiseSpec("type2", 0.1),
                     field=field)
    assert spec.spectral is None
    default, explicit = (run_experiment(s)
                         for s in (spec, replace(spec, spectral=SpectralConfig())))
    # every record field but the informational wall time
    assert [replace(r, wall_time=0.0) for r in default.records] == [
        replace(r, wall_time=0.0) for r in explicit.records
    ]
    assert default.median_relative_error == explicit.median_relative_error


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_summarize_reports_the_run_and_its_distance_to_the_truth(field):
    e = synthesize_instance(16, 2, 96, field, NoiseSpec("type2", 0.1), 5)
    cfg = SolverConfig(lam=1e-2)
    result = solve(e, spectral_init(e), cfg)
    F_true = objective(e.ground_truth, e, cfg.lam, cfg.alpha)
    found = set(np.flatnonzero(result.estimate))
    true = set(np.flatnonzero(e.ground_truth))
    expected = {
        "termination": result.termination.value,
        "iterations": result.iterations,
        "initial_objective": result.initial_objective,
        "final_objective": result.final_objective,
        "fixed_point_residual": result.fixed_point_residual,
        "trials": result.trials,
        "prox_calls": result.trials + (result.iterations > 0),
        "forward_products": result.trials + 1,
        "adjoint_products": result.iterations + 1,
        "support_size": len(found),
        "relative_error": relative_error(result.estimate, e.ground_truth),
        "truth_gap": (result.final_objective - F_true) / result.initial_objective,
        "support_missed": len(true - found),
        "support_extra": len(found - true),
    }
    summary = summarize(result, e, cfg)
    assert list(summary.items()) == list(expected.items())
    # without a nonzero truth the summary stops at the run's own fields
    for truth in (None, np.zeros_like(e.ground_truth)):
        summary = summarize(result, replace(e, ground_truth=truth, noise_record=None),
                            cfg)
        assert list(summary.items()) == list(expected.items())[:10]


def test_truth_gap_is_zero_from_a_start_at_zero_objective():
    # zero observations and a zero start give F(x0) = 0: the start is a
    # global minimizer (F >= 0) and the run stays there, below the truth
    e = synthesize_instance(16, 2, 96, FieldTag.REAL, NoiseSpec("none"), 5)
    e = replace(e, observations=np.zeros(e.n), noise_record=None)
    cfg = SolverConfig(lam=1e-2)
    summary = summarize(solve(e, np.zeros(e.p), cfg), e, cfg)
    assert summary["initial_objective"] == summary["final_objective"] == 0.0
    assert objective(e.ground_truth, e, cfg.lam, cfg.alpha) > 0.0
    assert summary["truth_gap"] == 0.0


@pytest.mark.parametrize("delta", [1e-4, 1e20], ids=["converged", "no-row"])
def test_summary_counts_the_products_the_run_made(delta, monkeypatch):
    # delta = 1e20 ends the run LineSearchFailed after a zero step, with no rows
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("none"), 3)
    monkeypatch.setattr(SolverConfig, "delta", delta)
    cfg = SolverConfig(lam=1e-4)
    x0 = spectral_init(e)
    solver_module = importlib.import_module("robustpr.solver")
    objective_module = importlib.import_module("robustpr.objective")
    forward, adjoint = [], []
    correlate, adjoint_product = objective_module.correlate, solver_module._adjoint
    monkeypatch.setattr(objective_module, "correlate",
                        lambda a, x: forward.append(1) or correlate(a, x))
    monkeypatch.setattr(solver_module, "_adjoint",
                        lambda *a: adjoint.append(1) or adjoint_product(*a))
    result = solve(e, x0, cfg)
    monkeypatch.undo()
    assert (result.iterations == 0) == (delta == 1e20)
    summary = summarize(result, e, cfg)
    assert summary["forward_products"] == len(forward)
    assert summary["adjoint_products"] == len(adjoint)


def test_trial_seed_stable_under_grid_extension():
    assert trial_seed(1, 64, 0) == trial_seed(1, 64, 0)
    assert trial_seed(1, 64, 0) != trial_seed(1, 64, 1)
    assert trial_seed(1, 64, 0) != trial_seed(1, 128, 0)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        desk_spec(trials=0)
    with pytest.raises(ValueError):
        desk_spec(n_grid=())
    with pytest.raises(ValueError):
        desk_spec(n_grid=(160, 64))
    with pytest.raises(ValueError, match="strictly ascending"):
        desk_spec(n_grid=(32, 32))


def test_error_vs_iteration_curve():
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("none"), 11)
    curve, result = error_vs_iteration(e, SolverConfig(lam=1e-4))
    assert len(curve) == result.iterations + 1
    assert curve[-1][1] < 5e-3


def test_error_vs_iteration_needs_truth():
    e = synthesize_instance(8, 2, 32, FieldTag.REAL, NoiseSpec("none"), 1)
    from robustpr.model import MeasurementEnsemble

    bare = MeasurementEnsemble(
        sampling_vectors=e.sampling_vectors,
        observations=e.observations,
    )
    with pytest.raises(DomainError,
                       match="^error-vs-iteration needs a nonzero ground truth$"):
        error_vs_iteration(bare, SolverConfig(lam=1e-4))


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_error_vs_iteration_rejects_a_zero_truth_before_any_solve(field, monkeypatch):
    e = synthesize_instance(16, 2, 160, field, NoiseSpec("none"), 3)
    zero = replace(e, ground_truth=np.zeros_like(e.ground_truth), noise_record=None)
    calls, spectral_calls = _captured_solves(monkeypatch), []
    monkeypatch.setattr(robustpr.metrics, "spectral_init",
                        lambda *args: spectral_calls.append(args))
    with pytest.raises(DomainError,
                       match="^error-vs-iteration needs a nonzero ground truth$"):
        error_vs_iteration(zero, SolverConfig(lam=1e-4))
    assert calls == [] and spectral_calls == []


def test_lambda_grid_search_single_element():
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("none"), 10)
    chosen, table = lambda_grid_search(e, SolverConfig(lam=1.0), [1e-3], "oracle")
    assert chosen == 1e-3 and len(table) == 1


def test_lambda_grid_search_oracle_finds_recovery():
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("none"), 11)
    grid = [1e-6, 1e-4, 1e-2, 1.0]
    chosen, table = lambda_grid_search(e, SolverConfig(lam=1.0), grid, "oracle")
    best_score = min(score for _, score in table)
    assert best_score < 5e-3
    assert chosen in grid


def test_a_numpy_lambda_grid_gives_the_table_of_its_python_floats():
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    grid = np.array([1e-2, 1e-4], dtype=np.float32)
    ours = lambda_grid_search(e, SolverConfig(lam=1.0), grid, "oracle")
    want = lambda_grid_search(e, SolverConfig(lam=1.0), [float(v) for v in grid], "oracle")
    assert ours == want
    assert {type(v) for row in ours[1] for v in row} == {float}


def test_lambda_grid_search_refuses_a_bool_before_any_solve(monkeypatch):
    calls = _captured_solves(monkeypatch)
    e = synthesize_instance(8, 2, 32, FieldTag.REAL, NoiseSpec("none"), 14)
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="^lam must be finite and positive, got True$"):
            lambda_grid_search(e, SolverConfig(lam=1.0), [1e-3, bad], "oracle")
    assert calls == []


def test_lambda_grid_search_tie_goes_to_larger():
    # both huge lambdas collapse the iterate to zero, so scores tie exactly
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("none"), 12)
    chosen, table = lambda_grid_search(
        e, SolverConfig(lam=1.0), [1e6, 1e7], "oracle"
    )
    assert chosen == 1e7
    assert table[0][1] == table[1][1]


def test_lambda_grid_search_holdout():
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("type1", 0.1), 13)
    grid = [1e-4, 1e-2]
    chosen, table = lambda_grid_search(e, SolverConfig(lam=1.0), grid, "holdout")
    assert chosen in grid
    assert all(score >= 0.0 for _, score in table)


def test_holdout_score_is_the_validation_loss_bitwise():
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("type1", 0.1), 13)
    cfg = SolverConfig(lam=1.0)
    _, table = lambda_grid_search(e, cfg, [1e-4, 1e-2], "holdout")
    train_idx, val_idx = holdout_split(e)
    train, val = _sub_ensemble(e, train_idx), _sub_ensemble(e, val_idx)
    x_spectral = spectral_init(train)
    spectral_score = loss(x_spectral, val, cfg.alpha)
    x0 = x_spectral
    for lam, score in table:  # the continuation path
        estimate = solve(train, x0, SolverConfig(lam=lam)).estimate
        assert score == loss(estimate, val, cfg.alpha)
        x0 = estimate if np.any(estimate) and score <= spectral_score else x_spectral


def _captured_solves(monkeypatch, alter=None):
    """Record each solve's start, lambda and result; ``alter(i, estimate)``
    may replace the estimate that call i returns."""
    calls = []

    def capturing(e, x0, cfg, *args, **kwargs):
        start = x0.copy()
        result = solve(e, x0, cfg, *args, **kwargs)
        if alter is not None:
            result = replace(result, estimate=alter(len(calls), result.estimate))
        calls.append((start, cfg.lam, result))
        return result

    monkeypatch.setattr(robustpr.metrics, "solve", capturing)
    return calls


def test_lambda_grid_search_validation(monkeypatch):
    calls = _captured_solves(monkeypatch)
    e = synthesize_instance(8, 2, 32, FieldTag.REAL, NoiseSpec("none"), 14)
    with pytest.raises(ValueError):
        lambda_grid_search(e, SolverConfig(lam=1.0), [], "oracle")
    with pytest.raises(ValueError):
        lambda_grid_search(e, SolverConfig(lam=1.0), [1e-3], "bogus")
    with pytest.raises(ValueError, match="free of repeats"):
        lambda_grid_search(e, SolverConfig(lam=1.0), [1e-3, 1e-4, 0.001], "oracle")
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1e-3):
        for rule in ("oracle", "holdout"):
            with pytest.raises(ValueError,
                               match=f"^lam must be finite and positive, got {bad}$"):
                lambda_grid_search(e, SolverConfig(lam=1.0), [1e-3, bad], rule)
    assert calls == []
    from robustpr.model import MeasurementEnsemble

    bare = MeasurementEnsemble(
        sampling_vectors=e.sampling_vectors,
        observations=e.observations,
    )
    with pytest.raises(DomainError, match="^oracle rule needs a nonzero ground truth$"):
        lambda_grid_search(bare, SolverConfig(lam=1.0), [1e-3], "oracle")


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_oracle_rule_rejects_a_zero_truth_before_any_solve(field, monkeypatch):
    e = synthesize_instance(16, 2, 160, field, NoiseSpec("none"), 3)
    zero = replace(e, ground_truth=np.zeros_like(e.ground_truth), noise_record=None)
    calls, spectral_calls = _captured_solves(monkeypatch), []
    monkeypatch.setattr(robustpr.metrics, "spectral_init",
                        lambda *args: spectral_calls.append(args))
    with pytest.raises(DomainError, match="^oracle rule needs a nonzero ground truth$"):
        lambda_grid_search(zero, SolverConfig(lam=1.0), [1e-4, 1e-3], "oracle")
    assert calls == [] and spectral_calls == []


def test_holdout_rule_needs_two_measurements_before_any_solve(monkeypatch):
    # one measurement leaves the validation side of the split empty
    calls = _captured_solves(monkeypatch)
    one = synthesize_instance(4, 1, 1, FieldTag.REAL, NoiseSpec("none"), 1)
    with pytest.raises(DomainError, match="holdout rule needs at least 2 measurements"):
        lambda_grid_search(one, SolverConfig(lam=1.0), [1e-3], "holdout")
    assert calls == []
    two = synthesize_instance(4, 1, 2, FieldTag.REAL, NoiseSpec("none"), 1)
    chosen, table = lambda_grid_search(two, SolverConfig(lam=1.0), [1e-3], "holdout")
    assert chosen == 1e-3 and len(table) == 1 and len(calls) == 1


def _training_set(e, rule):
    return _sub_ensemble(e, holdout_split(e)[0]) if rule == "holdout" else e


def _score(e, rule, x, alpha):
    if rule == "holdout":
        return loss(x, _sub_ensemble(e, holdout_split(e)[1]), alpha)
    return relative_error(x, e.ground_truth)


@pytest.mark.parametrize("rule", ["oracle", "holdout"])
@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_grid_search_warm_starts_along_the_ascending_grid(field, rule, monkeypatch):
    e = synthesize_instance(16, 2, 160, field, NoiseSpec("type1", 0.1), 21)
    cfg = SolverConfig(lam=1.0)
    calls = _captured_solves(monkeypatch)
    grid = [1e-2, 1e-6, 1e-3, 1e-4]
    _, table = lambda_grid_search(e, cfg, grid, rule)
    # one solve per grid point, in ascending lambda, as the table lists them
    assert [lam for _, lam, _ in calls] == sorted(grid)
    assert [lam for lam, _ in table] == sorted(grid)
    x_spectral = spectral_init(_training_set(e, rule))
    assert calls[0][0].tobytes() == x_spectral.tobytes()
    spectral_score = _score(e, rule, x_spectral, cfg.alpha)
    for (_, _, previous), (start, _, _), (_, score) in zip(calls, calls[1:], table):
        assert np.any(previous.estimate) and score <= spectral_score
        assert start.tobytes() == previous.estimate.tobytes()


@pytest.mark.parametrize("rule", ["oracle", "holdout"])
@pytest.mark.parametrize("spoil", ["zero", "worse than spectral"])
def test_a_spoiled_estimate_restarts_from_the_spectral_point(rule, spoil, monkeypatch):
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("type1", 0.1), 22)
    cfg = SolverConfig(lam=1.0)
    x_spectral = spectral_init(_training_set(e, rule))
    if spoil == "zero":
        # a start so poor that zero outscores it: only the zero guard restarts
        x_spectral = 10.0 * x_spectral
        monkeypatch.setattr(robustpr.metrics, "spectral_init",
                            lambda *args, **kwargs: x_spectral)
    scale = 0.0 if spoil == "zero" else 1e3

    def alter(i, estimate):
        return scale * estimate if i == 1 else estimate

    calls = _captured_solves(monkeypatch, alter)
    _, table = lambda_grid_search(e, cfg, [1e-6, 1e-5, 1e-4, 1e-3], rule)
    spectral_score = _score(e, rule, x_spectral, cfg.alpha)
    if spoil == "zero":
        assert not np.any(calls[1][2].estimate) and table[1][1] <= spectral_score
    else:
        assert table[1][1] > spectral_score
    starts = [start.tobytes() for start, _, _ in calls]
    assert starts[0] == starts[2] == x_spectral.tobytes()
    assert starts[1] == calls[0][2].estimate.tobytes()
    assert starts[3] == calls[2][2].estimate.tobytes()


def test_holdout_split_deterministic_and_disjoint():
    e = synthesize_instance(8, 2, 40, FieldTag.REAL, NoiseSpec("none"), 15)
    train1, val1 = holdout_split(e)
    train2, val2 = holdout_split(e)
    np.testing.assert_array_equal(train1, train2)
    np.testing.assert_array_equal(val1, val2)
    assert len(set(train1) & set(val1)) == 0
    assert len(train1) + len(val1) == e.n
