"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criteria 3, 4 and 13 are universal post-conditions over every solver run of
the shared experiment fixture.  Criteria 4, 5, 6, 13 and 15 gate the values
of ``acceptance_runs.COLUMNS`` on its arms, the numbers its sweep prints.
No criterion silences warnings: pyproject turns every one into an error.
"""

import json
import time

import numpy as np
import pytest

from robustpr import (
    FieldTag,
    NoiseSpec,
    SolverConfig,
    Termination,
    half_threshold,
    relative_error,
    solve,
    spectral_init,
    synthesize_instance,
    threshold_point,
)
from robustpr.cli import main as cli_main
from robustpr.gradient import g
from robustpr.solver import TAU_MIN

from acceptance_runs import (
    ARMS,
    COLUMNS,
    CONVERGED,
    deviation,
    main as sweep,
    runs,
    scale_twins,
)
from oracles import chi, chi_oracle, fd_loss_gradient, realify_gradient


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def experiments():
    """The arms of ``acceptance_runs`` at offset 0: every run of every arm,
    the squared-loss and scaled ones included, by arm name as a ``Run``, and
    each arm's wall seconds."""
    return runs(0)


def test_criterion_1_prox_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        mu = float(rng.uniform(0.05, 2.0))
        if rng.random() < 0.5:
            t = float(rng.uniform(-4.0, 4.0))
        else:
            t = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        worst = max(worst, abs(chi(t, mu) - chi_oracle(t, mu, 1e-6)))
    boundary_ok = True
    for mu in (0.2, 1.0, 2.3):
        tbar = threshold_point(mu)
        boundary_ok &= chi(0.999 * tbar, mu) == 0.0
        boundary_ok &= chi(tbar, mu) == 0.0
        boundary_ok &= abs(chi(1.001 * tbar, mu)) > 0.5 * (mu / 2.0) ** (2.0 / 3.0)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-5 and boundary_ok and elapsed < 10.0,
        f"prox oracle equivalence: worst |chi - oracle| = {worst:.2e} "
        f"(<= 1e-5), boundary rule {'ok' if boundary_ok else 'BROKEN'}, "
        f"{elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    for trial in range(50):
        field = FieldTag.REAL if trial % 2 == 0 else FieldTag.COMPLEX
        p = int(rng.integers(3, 9))
        n = int(rng.integers(8, 33))
        noise = NoiseSpec("type1", 0.1) if trial % 3 else NoiseSpec("none")
        e = synthesize_instance(p, min(2, p), n, field, noise, 9000 + trial)
        if field is FieldTag.REAL:
            x = rng.standard_normal(p)
            got = 2.0 * g(x, e, 1.345)
        else:
            x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            got = realify_gradient(x, e, 1.345)
        want = fd_loss_gradient(x, e, 1.345)
        scale = max(np.linalg.norm(want), 1e-10)
        worst = max(worst, float(np.linalg.norm(got - want) / scale))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-5 and elapsed < 10.0,
        f"gradients vs central differences on 50 instances: worst relative "
        f"error {worst:.2e} (<= 1e-5), {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_3_descent_and_square_summability(experiments):
    """Every accepted step passes the rule's own test F_k - F_{k+1} >= delta
    ||s_k||^2 / tau_k, to 4 ulps of F_k, so delta sum ||s_k||^2 / tau_k <=
    F(x0); with tau_k <= tau_R / TAU_MIN, tau_R the first trial step, sum
    ||s_k||^2 is finite.  Both sides of each test scale alike in c."""
    delta, slack = SolverConfig.delta, 4.0 * np.finfo(float).eps
    every_run = [run for arm_runs in experiments[0].values() for run in arm_runs]
    worst_sum = worst_squares = 0.0
    for run in every_run:
        trace, F0 = run.result.trace, run.summary["initial_objective"]
        values = np.append(F0, trace.F_value)
        weighted = delta * trace.step_norm**2 / trace.tau
        assert np.all(values[:-1] - values[1:] >= weighted - slack * values[:-1])
        assert np.sum(weighted) <= F0
        tau_max = trace[0].tau / SolverConfig.beta**trace[0].j / TAU_MIN
        assert np.all(trace.tau <= tau_max)
        worst_sum = max(worst_sum, np.sum(weighted) / F0)
        worst_squares = max(worst_squares, np.sum(trace.step_norm**2) / (tau_max * F0))
    iterations = sum(run.summary["iterations"] for run in every_run)
    trials = sum(run.summary["trials"] for run in every_run)
    report(
        3,
        len(every_run) > 0,
        f"descent F_k - F_k+1 >= delta ||s_k||^2 / tau_k and delta sum ||s_k||^2 "
        f"/ tau_k <= F(x0) (worst {worst_sum:.2e} F(x0)) on all {len(every_run)} "
        f"benchmark runs ({iterations} iterations, {trials} Armijo trials); "
        f"sum ||s_k||^2 <= {worst_squares:.2e} tau_R F(x0) / TAU_MIN",
    )


def test_criterion_4_fixed_point_inclusion(experiments):
    bound = 10.0 * SolverConfig.eps
    by_arm = experiments[0]
    stalled = sum(map(COLUMNS["not converged"], by_arm.values()))
    worst = max(map(COLUMNS["max residual"], by_arm.values()))
    converged = sum(map(len, by_arm.values())) - stalled
    named = [f"{arm} trial {run.trial} c {run.scale:g} lambda {run.lam:g} "
             f"({run.summary['termination']})"
             for arm, arm_runs in by_arm.items() for run in arm_runs
             if run.summary["termination"] != CONVERGED]
    report(
        4,
        stalled == 0 and worst <= bound,
        f"fixed-point residual at the accepted step <= 10*eps on all "
        f"{converged} converged runs (worst {worst:.2e}, bound {bound:.0e}); "
        f"excluded {stalled} non-converged: {', '.join(named) or 'none'}",
    )


def test_criterion_5_noiseless_recovery(experiments):
    by_arm, seconds = experiments
    rate_real = COLUMNS["success rate"](by_arm["real_noiseless"])
    rate_cplx = COLUMNS["success rate"](by_arm["complex_noiseless"])
    elapsed = seconds["real_noiseless"] + seconds["complex_noiseless"]
    report(
        5,
        rate_real >= 0.9 and rate_cplx >= 0.8 and elapsed < 120.0,
        f"noiseless recovery: real success {rate_real:.2f} (>= 0.9), "
        f"complex success {rate_cplx:.2f} (>= 0.8), {elapsed:.1f}s (< 2 min)",
    )


def test_criterion_6_robustness_ordering(experiments):
    """Huber's clamp must pay off against outliers, without beating clean data.

    A Huber M-estimator with a fixed alpha keeps a bias floor under outliers
    (every Type-III outlier has a nonzero clamped derivative at x_true), so
    the criterion is the ordering noiseless <= Huber Type-III <= 0.2 x
    squared-loss Type-III, not exact recovery.
    """
    by_arm = experiments[0]
    median = {arm: COLUMNS["median best error"](arm_runs)
              for arm, arm_runs in by_arm.items()}
    type3_median, squared_median = median["type3"], median["type3_squared"]
    noiseless_median = median["real_noiseless_outlier_alpha"]
    gaussian_median = median["gaussian"]
    type3_success = COLUMNS["success rate"](by_arm["type3"])
    floor_ok = noiseless_median <= type3_median
    gain_ok = type3_median <= 0.2 * squared_median
    gaussian_ok = gaussian_median <= 0.05
    report(
        6,
        floor_ok and gain_ok and gaussian_ok,
        f"robustness ordering: noiseless median {noiseless_median:.2e} <= "
        f"Huber Type-III median {type3_median:.2e} "
        f"({'ok' if floor_ok else 'NOT MET'}) <= 0.2x squared-loss Type-III "
        f"median {0.2 * squared_median:.2e} "
        f"({'ok' if gain_ok else 'NOT MET'}; Huber Type-III success rate at "
        f"the 5e-3 threshold is {type3_success:.2f}); Gaussian median "
        f"{gaussian_median:.2e} <= 0.05 ({'ok' if gaussian_ok else 'NOT MET'})",
    )


def test_criterion_7_phase_alignment_metric():
    rng = np.random.default_rng(31415)
    thetas = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    phases = np.exp(1j * thetas)
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        closed = relative_error(z, x)
        diffs = z[None, :] - phases[:, None] * x[None, :]
        grid = float(np.min(np.linalg.norm(diffs, axis=1)) / np.linalg.norm(x))
        # the closed form can only undercut the finite grid
        worst = max(worst, closed - grid if closed > grid else 0.0)
        assert abs(closed - grid) <= 1e-6  # grid spacing limits agreement
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    exact = (
        relative_error(x, x) == 0.0
        and relative_error(-x, x) == 0.0
        and relative_error(1j * x, x) == 0.0
        and relative_error(np.exp(1j * 0.73) * x, x) <= 1e-12
    )
    report(
        7,
        worst <= 1e-9 and exact,
        f"phase-alignment closed form vs 3600-point grid on 100 pairs: "
        f"worst excess {worst:.2e} (<= 1e-9); zeros on x, -x, e^(i theta) x: "
        f"{'ok' if exact else 'BROKEN'}",
    )


def test_criterion_8_certificate_sanity():
    t0 = time.perf_counter()
    e = synthesize_instance(16, 2, 320, FieldTag.REAL, NoiseSpec("none"), 21)
    x0 = spectral_init(e)
    result = solve(e, x0, SolverConfig(lam=1e-4))
    from robustpr import linear_rate_certificate

    good = linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=1.345)
    flipped = linear_rate_certificate(result.estimate, e, lam=1e-4 * 1e6, alpha=1.345)
    # complex: the certificate is taken modulo the global phase
    ec = synthesize_instance(64, 4, 640, FieldTag.COMPLEX, NoiseSpec("none"), 7)
    x0c = spectral_init(ec)
    result_c = solve(ec, x0c, SolverConfig(lam=1e-4))
    good_c = linear_rate_certificate(result_c.estimate, ec, lam=1e-4, alpha=1.345)
    flipped_c = linear_rate_certificate(
        result_c.estimate, ec, lam=1e-4 * 1e6, alpha=1.345)
    elapsed = time.perf_counter() - t0
    report(
        8,
        result.termination is Termination.CONVERGED
        and good.passed
        and not flipped.passed
        and result_c.termination is Termination.CONVERGED
        and good_c.passed
        and not flipped_c.passed
        and elapsed < 5.0,
        f"certificate passes on converged noiseless real and complex runs "
        f"(lhs {good.lhs_min_eig:.3g} >= rhs "
        f"{good.rhs_boundary_norms + good.rhs_reg_term:.3g}; complex modulo "
        f"phase {good_c.lhs_min_eig:.3g} >= "
        f"{good_c.rhs_boundary_norms + good_c.rhs_reg_term:.3g}) and flips to "
        f"failed at lambda x 1e6, {elapsed:.1f}s (< 5 s)",
    )


def test_criterion_9_remark2_witness():
    rng = np.random.default_rng(2718)
    strict = True
    for _ in range(100):
        v = complex(rng.standard_normal(), rng.standard_normal())
        if v.real == 0.0 or v.imag == 0.0:
            v = complex(v.real + 0.1, v.imag + 0.1)
        strict &= np.sqrt(abs(v.real)) + np.sqrt(abs(v.imag)) > np.sqrt(abs(v))
    # componentwise complex prox differs from thresholding Re and Im apart
    differs = False
    for _ in range(50):
        mu = float(rng.uniform(0.2, 2.0))
        t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        joint = half_threshold(np.array([t]), mu)[0]
        parts = complex(
            float(half_threshold(np.array([t.real]), mu)[0]),
            float(half_threshold(np.array([t.imag]), mu)[0]),
        )
        if abs(joint - parts) > 1e-8:
            differs = True
            break
    report(
        9,
        strict and differs,
        "modulus vs componentwise half-norm: strict inequality on 100 "
        "samples and the two prox outputs differ on a sampled input",
    )


def run_cli(*argv):
    try:
        return cli_main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_criterion_10_byte_identical_outputs(tmp_path):
    def once(tag):
        d = tmp_path / tag
        d.mkdir()
        inst = d / "inst.json"
        assert run_cli("gen", "--p", "16", "--s", "2", "--n", "160",
                       "--field", "real", "--noise", "type1:0.1",
                       "--seed", "5", "--out", str(inst)) == 0
        assert run_cli("solve", "--instance", str(inst), "--lambda", "1e-4",
                       "--out-result", str(d / "res.json"),
                       "--out-trace", str(d / "trace.csv")) == 0
        assert run_cli("bench", "success-rate", "--p", "12", "--s", "2",
                       "--grid", "4,8", "--trials", "2", "--noise", "none",
                       "--lambda", "1e-4", "--seed", "3",
                       "--out-prefix", str(d / "bench")) == 0
        assert run_cli("bench", "error-iter", "--p", "12", "--s", "2",
                       "--ratio", "8", "--noise", "none", "--lambda", "1e-4",
                       "--seed", "4", "--out-prefix", str(d / "curve")) == 0
        assert run_cli("diag", "certificate", "--instance", str(inst),
                       "--solution", str(d / "res.json"), "--lambda", "1e-4",
                       "--out", str(d / "cert.json")) == 0
        assert run_cli("diag", "stability", "--instance", str(inst),
                       "--samples", "40", "--out", str(d / "stab.json")) == 0
        from robustpr import GrayImage, write_pgm

        pixels = np.zeros((6, 6))
        pixels[1, 2] = 1.0
        pixels[4, 4] = 0.5
        write_pgm(d / "img.pgm", GrayImage(pixels=pixels))
        assert run_cli("image", "--input", str(d / "img.pgm"),
                       "--out-image", str(d / "recon.pgm"),
                       "--out-metrics", str(d / "img.json"),
                       "--ratio", "8", "--lambda", "1e-4", "--seed", "2") == 0
        names = ["inst.json", "res.json", "trace.csv", "bench.csv",
                 "bench.json", "bench_rates.csv", "bench.gp", "curve.csv",
                 "curve.gp", "cert.json", "stab.json", "recon.pgm", "img.json"]
        return {name: (d / name).read_bytes() for name in names}

    first = once("run1")
    second = once("run2")
    mismatched = [name for name in first if first[name] != second[name]]
    cert = json.loads(first["cert.json"])
    report(
        10,
        not mismatched and cert["passed"] is True,
        f"reruns byte-identical across {len(first)} output files"
        + (f"; MISMATCH in {mismatched}" if mismatched else "")
        + f"; the solve's certificate passed={cert['passed']} "
        f"(lhs {cert['lhs_min_eig']:.4g}, reg {cert['rhs_reg_term']:.4g})",
    )


def test_criterion_13_truth_gap(experiments):
    """No converged run of a Huber arm ends above the truth's objective.

    A global minimizer x* has F(x*) <= F(x_true), so a run whose summary
    truth_gap = (F(x_hat) - F(x_true)) / F(x0) is positive has not found
    one, whatever its termination says.  The gap is scale-free, so the
    scaled arms are gated with the rest.  The bound is SolverConfig.eps
    (1e-6): the stopping rule's own tolerance, not a tuned number.  The
    squared-loss arm is the non-robust baseline; its worst gap is printed,
    not gated.
    """
    by_arm = experiments[0]
    gaps = {arm: COLUMNS["max truth gap"](arm_runs) for arm, arm_runs in by_arm.items()}
    squared = gaps.pop("type3_squared")
    arm = max(gaps, key=gaps.get)
    gap = gaps[arm]
    worst = next(run for run in by_arm[arm] if run.summary["truth_gap"] == gap)
    converged = sum(len(by_arm[huber]) - COLUMNS["not converged"](by_arm[huber])
                    for huber in gaps)
    report(
        13,
        gap <= SolverConfig.eps,
        f"truth gap <= eps ({SolverConfig.eps:.0e}) on all {converged} "
        f"converged Huber-arm runs (worst {gap:.2e}: {arm} trial {worst.trial} "
        f"c {worst.scale:g} lambda {worst.lam:g}); squared-loss baseline worst "
        f"{squared:.2e}, not gated",
    )


def test_criterion_15_scale_equivariance(experiments):
    """The solver commutes with the scale map.

    The instance scaled by c (x -> c x, b -> c^2 b, noise c^2 eps, solved at
    lambda c^3.5 and alpha c^2) has F scaled by c^4 and the minimizer by c.
    Each scaled arm solves ten instances at c in {0.01, 0.1, 10, 100} and
    at c = 1, each from its own spectral start.  No constant of the
    iteration sets a scale, so each scaled run is its twin times c to
    round-off: the same termination, iteration count and support, and a
    deviation of at most 1e-12, a bound on round-off, not on drift.
    """
    by_arm = experiments[0]
    arms = [arm.name for arm in ARMS if len(arm.scales) > 1]
    mismatches = sum(COLUMNS["twin mismatch"](by_arm[arm]) for arm in arms)
    worst = max(COLUMNS["max deviation"](by_arm[arm]) for arm in arms)
    pairs = [(arm, *pair) for arm in arms for pair in scale_twins(by_arm[arm])]
    arm, run, twin = next(pair for pair in pairs if deviation(*pair[1:]) == worst)
    report(
        15,
        mismatches == 0 and worst <= 1e-12,
        f"scale equivariance on {len(pairs)} scaled runs: {mismatches} end "
        f"otherwise than their c = 1 twin in termination, iterations or support; "
        f"worst deviation {worst:.2e} (<= 1e-12): {arm} trial {run.trial} c "
        f"{run.scale:g}, {run.result.iterations} iterations against its twin's "
        f"{twin.result.iterations}, {run.summary['termination']}",
    )


def test_sweep_prints_every_column_for_every_arm(capsys):
    # the sweep's table, on one trial of the smallest arm
    smallest = min(ARMS, key=lambda arm: arm.p * arm.n)._replace(trials=1)
    sweep([1], [smallest])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split(maxsplit=2)[2] == " ".join(COLUMNS)
    assert [row.split()[:2] for row in rows] == [["1", smallest.name]]
    assert [len(row.split()) for row in rows] == [2 + len(COLUMNS)]
