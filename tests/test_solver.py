import dataclasses
import importlib
import tracemalloc
from pathlib import Path

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
from robustpr import prox, solver
from robustpr.gradient import g
from robustpr.model import MeasurementEnsemble
from robustpr.objective import objective
from robustpr.solver import write_trace_csv
from robustpr.spectral import spectral_init


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
        sampling_vectors=a, observations=np.zeros(12)
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
    values = np.append(result.initial_objective, result.trace.F_value)
    steps = result.trace.step_norm
    assert np.all(values[:-1] - values[1:] >= cfg.delta * steps**2 - 1e-15)
    assert np.all(values[1:] <= values[:-1])
    assert np.sum(steps**2) <= 2.0 * result.initial_objective / cfg.delta
    assert np.all((0.0 < result.trace.tau) & (result.trace.tau <= cfg.gamma))


def test_converged_step_criterion():
    e = easy_instance(5)
    cfg = SolverConfig(lam=1e-4)
    x0 = spectral_init(e)
    result = solve(e, x0, cfg)
    assert result.termination is Termination.CONVERGED
    # ||x_prev|| <= ||x_hat|| + ||step||: the relative stop test, bounded
    assert result.trace[-1].step_norm <= cfg.eps * (
        np.linalg.norm(result.estimate) + result.trace[-1].step_norm
    )
    assert result.trace[-1].fixed_point_residual <= 10 * cfg.eps


def test_line_search_failure_is_reported_not_raised(monkeypatch):
    e = easy_instance(7)
    # A trial passes only when F(x) - F(x+) >= delta ||x+ - x||^2, which for a
    # gradient step of length tau needs delta <~ 1/(2 tau).  The last trial has
    # tau = beta^MAX_BACKTRACKS = 2^-60, so delta = 1e20 rejects all of them
    # (delta = 1e12 accepts j = 40 here).  From this dense random start the
    # trial j = 56 rounds to x itself and passes as 0 >= delta * 0; x is no
    # fixed point, so that zero step ends the search after 57 trials and one
    # more prox, the residual's at tau = gamma.
    monkeypatch.setattr(SolverConfig, "delta", 1e20)
    cfg = SolverConfig(lam=1e-4)
    proxes = []
    inner = solver._half_threshold
    monkeypatch.setattr(solver, "_half_threshold",
                        lambda xi, mu: proxes.append(mu) or inner(xi, mu))
    rng = np.random.default_rng(2)
    result = solve(e, rng.standard_normal(16), cfg)
    assert result.termination is Termination.LINE_SEARCH_FAILED
    assert result.estimate.shape == (16,)
    assert result.iterations == 0
    assert len(proxes) == 57 + 1
    assert proxes[-1] == 2.0 * cfg.lam * cfg.gamma


def test_a_zero_step_from_a_non_fixed_point_fails_the_line_search(monkeypatch):
    # trial j = 57 rounds to the start itself; the start's residual at
    # gamma is 2.84, so the zero step is no evidence of a fixed point
    e = easy_instance(15)
    x0 = np.ones(16)
    monkeypatch.setattr(SolverConfig, "delta", 1e20)
    result = solve(e, x0, SolverConfig(lam=1e-4))
    assert result.termination is Termination.LINE_SEARCH_FAILED
    assert result.iterations == 0
    assert result.estimate.tobytes() == x0.tobytes()
    assert result.final_objective == result.initial_objective
    assert fixed_point_residual(x0, e, 1e-4, 1.345, 1.0) > 1.0


@pytest.mark.parametrize("field, n, seed", [
    (FieldTag.REAL, 160, 7), (FieldTag.REAL, 160, 23),
    (FieldTag.COMPLEX, 16, 22), (FieldTag.COMPLEX, 160, 36)])
def test_runs_that_ended_on_a_zero_step_stay_converged(field, n, seed):
    # lam = 0.1 from the spectral start: these runs end on steps of at most
    # 2e-11, two of them exactly zero, at estimates whose residual at gamma
    # is <= 9e-9 (REAL-160-23 ended on a 7.3e-7 step under the gamma clip)
    e = synthesize_instance(16, 2, n, field, NoiseSpec("none"), seed)
    cfg = SolverConfig(lam=0.1)
    result = solve(e, spectral_init(e), cfg)
    assert result.termination is Termination.CONVERGED
    assert result.trace[-1].step_norm <= 1e-10
    assert fixed_point_residual(
        result.estimate, e, cfg.lam, cfg.alpha, cfg.gamma) <= cfg.eps
    if field is FieldTag.REAL and seed == 7:  # the zero step keeps its row
        assert result.trace[-1].step_norm == 0.0 and result.trace[-1].j == 22


def test_fixed_point_residual_cases():
    e = easy_instance(9)
    cfg = SolverConfig(lam=1e-4)
    # x = 0 is a fixed point of the map at x=0 (g(0)=0, threshold keeps 0)
    assert fixed_point_residual(np.zeros(16), e, 1e-4, 1.345, 0.5) == 0.0
    result = solve(e, e.ground_truth, cfg)
    tau = result.trace[-1].tau if result.iterations else 0.5
    assert (
        fixed_point_residual(result.estimate, e, cfg.lam, cfg.alpha, tau) <= 1e-5
    )
    rng = np.random.default_rng(3)
    wild = e.ground_truth + 2.0 * rng.standard_normal(16)
    assert fixed_point_residual(wild, e, cfg.lam, cfg.alpha, tau) > 1e-2
    with pytest.raises(ValueError):
        fixed_point_residual(np.zeros(16), e, 1e-4, 1.345, 0.0)


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_fixed_point_residual_rejects_nonpositive_or_nonfinite_tau(tau):
    e = easy_instance(9)
    with pytest.raises(ValueError, match=f"^tau must be finite and positive, got {tau}$"):
        fixed_point_residual(e.ground_truth, e, 1e-3, 1.345, tau)


@pytest.mark.parametrize("lam", [-1.0, 0.0, float("nan"), float("inf")])
def test_fixed_point_residual_rejects_a_bad_lam_before_any_gradient(lam, monkeypatch):
    e = easy_instance(9)

    def refuse(*args, **kwargs):
        raise AssertionError("a gradient was computed")

    monkeypatch.setattr(solver, "gradient_map", refuse)
    with pytest.raises(ValueError, match=f"^lam must be finite and positive, got {lam}$"):
        fixed_point_residual(e.ground_truth, e, lam, 1.345, 0.5)


@pytest.mark.parametrize("case", ["short x", "complex x"])
def test_fixed_point_residual_rejects_a_mismatched_x(case):
    e = synthesize_instance(16, 2, 96, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    x = {"short x": e.ground_truth[:1], "complex x": e.ground_truth + 0j}[case]
    with pytest.raises(ValueError, match="signal"):
        fixed_point_residual(x, e, 1e-3, 1.345, 0.5)


def _assert_rows_equal_public_maps(e, x0, cfg):
    iterates = []
    result = solve(e, x0, cfg, callback=lambda k, x: iterates.append(x.copy()))
    assert result.initial_objective == objective(iterates[0], e, cfg.lam, cfg.alpha)
    # row k's residual is taken at the step the run took from x_k, the last
    # row's at its own tau
    taus = np.append(result.trace.tau[1:], result.trace.tau[-1:])
    for row, x, tau in zip(result.trace, iterates[1:], taus, strict=True):
        assert row.F_value == objective(x, e, cfg.lam, cfg.alpha)
        assert row.fixed_point_residual == fixed_point_residual(
            x, e, cfg.lam, cfg.alpha, tau
        )
        assert row.support_size == np.count_nonzero(x)
    assert result.fixed_point_residual == result.trace[-1].fixed_point_residual
    if result.termination is Termination.CONVERGED and result.iterations >= 2:
        # the run stops at the first step with step_norm <= eps ||x||,
        # and that step gives the second-to-last row its residual
        residuals = result.trace.fixed_point_residual
        assert np.all(residuals[:-2] > cfg.eps)
        assert residuals[-2] <= cfg.eps
    return result


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_trace_rows_equal_the_public_maps_at_each_iterate(field):
    # The loop evaluates F and g through the shared core and takes each
    # residual from the next accepted step; every recorded value must be
    # exactly what objective and fixed_point_residual give.
    e = synthesize_instance(24, 3, 144, field, NoiseSpec("type2", 0.1), 27)
    cfg = SolverConfig(lam=1e-3)
    x0 = spectral_init(e)
    result = _assert_rows_equal_public_maps(e, x0, cfg)
    assert result.termination is Termination.CONVERGED
    # n = p: a long run of thousands of rows
    e = synthesize_instance(16, 2, 16, field, NoiseSpec("none"), 4)
    x0 = spectral_init(e)
    _assert_rows_equal_public_maps(e, x0, cfg)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_trial_step_alternates_the_long_and_short_bb_steps(field):
    # After an accepted iteration k with Re<s, y> > 0 the next backtracking
    # starts at the long step ||s||^2 / (2 Re<s, y>) for odd k and at the
    # short step Re<s, y> / (2 ||y||^2) for even k, clipped to [TAU_MIN,
    # 1 / TAU_MIN]; the public g gives the solver's gradients bit for bit.
    e = synthesize_instance(24, 3, 144, field, NoiseSpec("type2", 0.1), 27)
    cfg = SolverConfig(lam=1e-3)
    iterates = []
    x0 = spectral_init(e)
    result = solve(e, x0, cfg, callback=lambda k, x: iterates.append(x.copy()))
    assert result.termination is Termination.CONVERGED
    grads = [g(x, e, cfg.alpha) for x in iterates]
    want = [cfg.gamma]
    shorter = 0
    for k in range(1, result.iterations):
        s, y = iterates[k] - iterates[k - 1], grads[k] - grads[k - 1]
        curvature = float(np.vdot(s, y).real)
        if curvature <= 0.0:
            want.append(cfg.gamma)
            continue
        long_step = float(np.vdot(s, s).real) / (2.0 * curvature)
        short_step = curvature / (2.0 * float(np.vdot(y, y).real))
        assert short_step <= long_step
        step = long_step if k % 2 else short_step
        want.append(min(max(step, solver.TAU_MIN), 1.0 / solver.TAU_MIN))
        shorter += k % 2 == 0 and want[-1] < min(long_step, 1.0 / solver.TAU_MIN)
    # the step the parent rule would have taken differs on these rows
    assert shorter > 0
    tau0 = result.trace.tau / cfg.beta**result.trace.j
    assert tau0.tolist() == want
    assert np.all(result.trace.tau <= cfg.gamma)


@pytest.mark.parametrize("seed", range(6))
def test_degenerate_n_equals_p_instances_converge(seed):
    # n = p = 16 from the spectral init at lam = 1e-3.  With the long BB step
    # alone seed 4 ran to MaxIterations at F = 8.976e-3; alternating it with
    # the short step converges every seed (seed 4 in 4745 iterations).
    e = synthesize_instance(16, 2, 16, FieldTag.REAL, NoiseSpec("none"), seed)
    x0 = spectral_init(e)
    result = solve(e, x0, SolverConfig(lam=1e-3))
    assert result.termination is Termination.CONVERGED


def test_solve_makes_one_forward_product_per_trial_and_validates_once(monkeypatch):
    e = easy_instance(5)
    x0 = spectral_init(e)
    forward = []
    checks = []
    for name in ("model", "objective", "gradient"):
        module = importlib.import_module(f"robustpr.{name}")
        inner = module.correlate
        monkeypatch.setattr(
            module, "correlate",
            lambda a, x, inner=inner: forward.append(1) or inner(a, x),
        )
    check = MeasurementEnsemble.check_signal
    monkeypatch.setattr(
        MeasurementEnsemble, "check_signal",
        lambda self, x: checks.append(1) or check(self, x),
    )
    result = solve(e, x0, SolverConfig(lam=1e-4))
    assert result.termination is Termination.CONVERGED
    # F(x0) and g(x0), then one product per Armijo trial; an accepted
    # trial's products give g(x+) through the adjoint alone.
    assert len(forward) == 1 + sum(r.j + 1 for r in result.trace)
    assert len(checks) == 1


def _prox_count_run(case, monkeypatch):
    """(e, x0, cfg, trials) of two converged runs, whose trials the trace
    counts, and of two runs with no rows, which set delta = 1e20."""
    if case == "converged":
        e = synthesize_instance(16, 2, 16, FieldTag.REAL, NoiseSpec("none"), 4)
        return e, spectral_init(e), SolverConfig(lam=1e-3), None
    if case == "converged-zero-step":  # the last row is a zero step at a fixed point
        e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("none"), 7)
        return e, spectral_init(e), SolverConfig(lam=0.1), None
    monkeypatch.setattr(SolverConfig, "delta", 1e20)
    cfg = SolverConfig(lam=1e-4)
    if case == "exhausted":  # no trial rounds to x0, so all of them are rejected
        e = easy_instance(11)
        return e, spectral_init(e), cfg, solver.MAX_BACKTRACKS + 1
    # test_line_search_failure_is_reported_not_raised: trial 57 is a zero step
    e = easy_instance(7)
    return e, np.random.default_rng(2).standard_normal(16), cfg, 57


# (trials, proxes) of each _prox_count_run case
PROX_COUNTS = {"converged": (876, 877), "exhausted": (61, 62),
               "zero-step": (57, 58), "converged-zero-step": (37, 39)}


@pytest.mark.parametrize("case", list(PROX_COUNTS))
def test_solve_makes_one_prox_per_trial_and_one_more_per_solve(case, monkeypatch):
    e, x0, cfg, row_free_trials = _prox_count_run(case, monkeypatch)
    shapes, weights, outputs, evaluations = [], [], [], []
    inner, check, evaluate = solver._half_threshold, prox.threshold_point, solver._evaluate
    monkeypatch.setattr(solver, "_half_threshold", lambda xi, mu: shapes.append(
        xi.shape) or outputs.append(inner(xi, mu)) or outputs[-1])
    monkeypatch.setattr(prox, "threshold_point",
                        lambda mu: weights.append(mu) or check(mu))
    monkeypatch.setattr(solver, "_evaluate",
                        lambda *a: evaluations.append(1) or evaluate(*a))
    public = []
    for module, name in ((prox, "half_threshold"), (solver, "half_threshold"),
                         (solver, "fixed_point_residual")):
        monkeypatch.setattr(module, name, lambda *a, **k: public.append(1))
    result = solve(e, x0, cfg)
    monkeypatch.undo()
    # F(x0), then one forward product per trial
    assert len(evaluations) - 1 == (row_free_trials
                                    or sum(r.j + 1 for r in result.trace))
    # the result counts the trials and the proxes the run made
    assert (result.trials, result.prox_calls) == (len(evaluations) - 1, len(shapes))
    assert (result.trials, result.prox_calls) == PROX_COUNTS[case]
    trials = result.trials
    # every trial validates its weight and takes one prox; the result's
    # residual takes one more of each, and the other rows' none; a zero step
    # after which a row is written takes one more, its test's at gamma
    zero_step_test = case == "converged-zero-step"
    assert len(shapes) == len(weights) == trials + 1 + zero_step_test
    assert shapes == [(e.p,)] * len(shapes)
    assert not public
    if case.startswith("converged"):
        assert result.termination is Termination.CONVERGED
        tau = result.trace[-1].tau
        assert result.fixed_point_residual == result.trace[-1].fixed_point_residual
        assert (result.trace[-1].step_norm == 0.0) == zero_step_test
        if zero_step_test:
            assert weights[-2] == 2.0 * cfg.lam * cfg.gamma
    else:
        assert result.termination is Termination.LINE_SEARCH_FAILED
        assert result.iterations == 0
        tau = cfg.gamma
        zero_steps = [not np.any(c != x0) for c in outputs[:trials]]
        assert zero_steps == [False] * (trials - 1) + [case == "zero-step"]
    assert result.fixed_point_residual == fixed_point_residual(
        result.estimate, e, cfg.lam, cfg.alpha, tau)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_solve_makes_one_clamp_per_trial_and_none_in_the_adjoint(field, monkeypatch):
    e = synthesize_instance(16, 2, 96, field, NoiseSpec("type3", 0.1), 4)
    x0 = spectral_init(e)
    # the package re-exports a function named objective, so import by path
    objective_module = importlib.import_module("robustpr.objective")
    gradient_module = importlib.import_module("robustpr.gradient")
    clamps = []
    inner = objective_module.huber_deriv
    monkeypatch.setattr(objective_module, "huber_deriv",
                        lambda u, alpha: clamps.append(1) or inner(u, alpha))
    result = solve(e, x0, SolverConfig(lam=1e-3, alpha=0.1345))
    assert result.iterations > 0
    # F(x0), then one clamp per trial; g(x+) reuses the accepted trial's
    assert len(clamps) == 1 + sum(r.j + 1 for r in result.trace)
    _, c, d = objective_module._evaluate(x0, e, 0.0, 0.1345)
    clamps.clear()
    gradient_module._adjoint(e, c, d)
    assert not clamps


def test_trace_keeps_no_iterate_alive_in_a_long_solve(monkeypatch):
    # p = 512, 200 iterations: holding every iterate and gradient until the
    # end would take 200 * 2 * 512 * 8 B = 1.6 MB.
    e = synthesize_instance(512, 8, 1024, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    x0 = spectral_init(e)
    monkeypatch.setattr(SolverConfig, "eps", 1e-300)
    monkeypatch.setattr(SolverConfig, "max_iter", 200)
    cfg = SolverConfig(lam=1e-3)
    block = 2**16  # 64 KiB, 2**13 float64 entries
    # measured 2.0 blocks
    bound = 10 * block

    def peak(f, *args):
        tracemalloc.start()
        try:
            out = f(*args)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    bytes_used, result = peak(solve, e, x0, cfg)
    assert result.iterations == 200
    assert bytes_used <= bound
    # the prox's scratch on a vector of a block's bytes: measured 2.3 times
    # its bytes for a real vector and 1.6 for a complex one
    xi = np.random.default_rng(3).standard_normal(block // 8)
    for xi in (xi, xi + 1j * xi[::-1]):
        assert peak(prox._half_threshold, xi, 1e-3)[0] <= 3 * xi.nbytes


def test_objective_cached_value_matches_recomputation():
    e = synthesize_instance(12, 2, 96, FieldTag.COMPLEX, NoiseSpec("type1", 0.1), 4)
    cfg = SolverConfig(lam=1e-3)
    x0 = spectral_init(e)
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


def _trace_csv_oracle(trace) -> bytes:
    """The trace CSV as written one row at a time, each float by repr()."""
    lines = ["k,F,tau,j,step_norm,support_size,fp_residual"]
    for r in trace:
        lines.append(",".join([
            str(int(r.k)), repr(float(r.F_value)), repr(float(r.tau)), str(int(r.j)),
            repr(float(r.step_norm)), str(int(r.support_size)),
            repr(float(r.fixed_point_residual)),
        ]))
    return "".join(line + "\n" for line in lines).encode()


def test_trace_csv_export(tmp_path, monkeypatch):
    real = easy_instance(15)
    cplx = synthesize_instance(24, 3, 144, FieldTag.COMPLEX, NoiseSpec("type2", 0.1), 27)
    results = [
        solve(real, real.ground_truth, SolverConfig(lam=1e-4)),
        solve(cplx, spectral_init(cplx),
              SolverConfig(lam=1e-3)),
    ]
    # every trial is rejected at k = 1: no rows, the header alone
    monkeypatch.setattr(SolverConfig, "delta", 1e20)
    results.append(solve(real, np.random.default_rng(2).standard_normal(16),
                         SolverConfig(lam=1e-4)))
    assert [r.iterations > 0 for r in results] == [True, True, False]
    for i, result in enumerate(results):
        path = tmp_path / f"trace{i}.csv"
        write_trace_csv(path, result)
        assert path.read_bytes() == _trace_csv_oracle(result.trace)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    for bad in (float("nan"), float("inf"), 10**400):
        for name in ("lam", "alpha"):
            with pytest.raises(ValueError,
                               match=f"^{name} must be finite and positive, got {bad}$"):
                SolverConfig(**{"lam": 1.0, name: bad})


@pytest.mark.parametrize("name", ["lam", "alpha"])
def test_solver_config_refuses_a_bool(name):
    for bad in (True, np.True_):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and positive, got True$"):
            SolverConfig(**{"lam": 1.0, name: bad})


def test_solver_config_stores_the_python_float_it_accepts():
    # an int lambda is stored, and echoed, as the float it equals
    assert (SolverConfig(1), SolverConfig(2, np.int64(3))) == (
        SolverConfig(1.0), SolverConfig(2.0, 3.0))
    cfg = SolverConfig(np.float32(1e-3), np.float16(0.5))
    assert (type(cfg.lam), type(cfg.alpha)) == (float, float)
    assert (cfg.lam, cfg.alpha) == (float(np.float32(1e-3)), 0.5)


def test_a_numpy_lambda_solves_as_the_python_float_it_equals():
    # under NEP 50 a float32 lambda, kept raw, made F float32: this solve
    # then ended LineSearchFailed after 77 iterations
    e = synthesize_instance(128, 12, 768, FieldTag.REAL, NoiseSpec("type2", 0.1), 1)
    x0 = spectral_init(e)
    ours = solve(e, x0, SolverConfig(np.float32(1e-3)))
    want = solve(e, x0, SolverConfig(float(np.float32(1e-3))))
    assert ours.termination is Termination.CONVERGED
    assert ours.estimate.tobytes() == want.estimate.tobytes()
    assert ours.trace.tobytes() == want.trace.tobytes()
    assert (ours.initial_objective, ours.fixed_point_residual) == (
        want.initial_objective, want.fixed_point_residual)


def test_solve_rejects_bad_start():
    e = easy_instance(17)
    with pytest.raises(ValueError, match="^signal contains non-finite entries$"):
        solve(e, np.full(16, np.nan), SolverConfig(lam=1e-4))


def test_solve_hits_iteration_cap(monkeypatch):
    e = synthesize_instance(24, 3, 96, FieldTag.REAL, NoiseSpec("type2", 0.2), 19)
    rng = np.random.default_rng(5)
    monkeypatch.setattr(SolverConfig, "max_iter", 3)
    result = solve(e, rng.standard_normal(24), SolverConfig(lam=1e-3))
    assert result.termination is Termination.MAX_ITERATIONS
    assert result.iterations == 3


@pytest.mark.parametrize("trial", [0, 5, 12])
def test_type3_estimate_is_the_minimizer_not_a_stall(trial):
    # Acceptance criterion 6's Type-III set: the gap to x_true there is the
    # Huber estimator's outlier bias only if the solver really minimizes F.
    # Started from x_true and from the spectral init, it must reach the same
    # point, and that point must beat x_true on F.
    from robustpr.rng import mix
    seed = mix(300, 512, trial)
    e = synthesize_instance(64, 6, 512, FieldTag.REAL, NoiseSpec("type3", 0.1), seed)
    cfg = SolverConfig(lam=1e-3, alpha=0.1345)
    from_spectral = solve(e, spectral_init(e), cfg)
    from_truth = solve(e, e.ground_truth, cfg)
    assert from_spectral.termination is Termination.CONVERGED
    assert from_truth.termination is Termination.CONVERGED
    gap = relative_error(from_spectral.estimate, from_truth.estimate)
    assert gap <= 10.0 * cfg.eps
    F_truth = objective(e.ground_truth, e, cfg.lam, cfg.alpha)
    assert from_spectral.final_objective <= F_truth
    assert from_truth.final_objective <= F_truth


def test_bb_step_escapes_the_barely_stable_fixed_step():
    # `gen --p 16 --s 2 --n 160 --noise none --seed 3`, `solve --lambda 1e-4`.
    # The restricted Jacobian of g at the solution has eigenvalues 0.459 and
    # 1.998, so tau = 1 is rejected and the fixed grid's tau = 0.5 contracts
    # by only 0.998 per iteration: 2106 iterations to F = 1.2481309366e-4.
    e = synthesize_instance(16, 2, 160, FieldTag.REAL, NoiseSpec("none"), 3)
    cfg = SolverConfig(lam=1e-4)
    result = solve(e, spectral_init(e), cfg)
    assert result.termination is Termination.CONVERGED
    assert result.iterations <= 60
    assert result.final_objective == pytest.approx(1.2481309366e-4, rel=1e-6)
    first = result.trace[0]
    assert first.tau == cfg.gamma * cfg.beta**first.j
    assert all(r.tau <= 1.0 / solver.TAU_MIN for r in result.trace)


@pytest.mark.parametrize("seed, lam", [(7016, 0.1), (7025, 1e-5)])
def test_quick_shape_traps_end_at_or_below_the_truth(seed, lam):
    # README quick-start shape.  From the dense all-coordinate spectral start
    # these runs converged silently to spurious stationary points at 5.73x
    # and 12.45x F(x_true), relative error above 1; a global minimizer has
    # F <= F(x_true), and the screened start reaches such a point.
    e = synthesize_instance(128, 12, 768, FieldTag.REAL, NoiseSpec("type2", 0.1), seed)
    cfg = SolverConfig(lam=lam)
    result = solve(e, spectral_init(e), cfg)
    assert result.termination is Termination.CONVERGED
    assert result.final_objective <= objective(e.ground_truth, e, cfg.lam, cfg.alpha)


def test_readme_quick_start_numbers():
    # runs the README's library quick start and checks the numbers its prose
    # gives for it, so a change that moves them cannot leave the README stale
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library quick start")[1].split("```python\n")[1]
    namespace = {}
    exec(code.split("```")[0], namespace)
    e, x0 = namespace["e"], namespace["x0"]
    true = e.ground_truth != 0
    assert (np.count_nonzero(x0), np.count_nonzero(x0[true])) == (14, 5)
    cases = {1e-3: namespace["result"],
             0.1: solve(e, x0, SolverConfig(lam=0.1, alpha=1.345))}
    found = {}
    for lam, result in cases.items():
        kept = result.estimate != 0
        rel = relative_error(result.estimate, e.ground_truth)
        found[lam] = (int(kept.sum()), int(np.sum(kept & ~true)), f"{rel:.1e}")
    assert found == {1e-3: (121, 109, "4.6e-02"), 0.1: (14, 2, "1.1e-02")}
    prose = " ".join(readme.split())
    assert ("keeps 121 of the 128 entries, 109 of them outside the true support, "
            "at relative error 4.6e-2; λ = 0.1 keeps the 12 true entries and 2 "
            "others, at 1.1e-2. The start `x0` is nonzero on 14 coordinates, 5 of "
            "them true ones") in prose


def test_final_objective_is_read_from_the_trace():
    e = easy_instance()
    result = solve(e, spectral_init(e), SolverConfig(lam=1e-4))
    assert result.iterations > 0
    assert type(result.final_objective) is float
    assert result.final_objective == result.trace.F_value[-1]
    no_rows = dataclasses.replace(result, trace=result.trace[:0])
    assert no_rows.final_objective == result.initial_objective
    with pytest.raises(TypeError):
        dataclasses.replace(result, final_objective=0.0)
