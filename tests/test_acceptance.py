"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criteria 3, 4 and 13 are universal post-conditions over every solver run of
the shared experiment fixture; they read each run's ``summarize`` record.
No criterion silences warnings: pyproject turns every one into an error.
"""

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

from acceptance_runs import runs
from oracles import chi, chi_oracle, fd_loss_gradient, realify_gradient

CONVERGED = Termination.CONVERGED.value


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def experiments():
    """All benchmark runs used by criteria 3, 4, 5, 6 and 13: the arms of
    ``acceptance_runs`` at offset 0.  Every run of every arm, the
    squared-loss one included, lands in ``runs`` as
    ((arm, trial, lam), result, summary) for criteria 3, 4 and 13.
    """
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
    delta = SolverConfig.delta
    summaries = [summary for *_, summary in experiments["runs"]]
    for _, result, summary in experiments["runs"]:
        values = np.append(summary["initial_objective"], result.trace.F_value)
        steps = result.trace.step_norm
        assert np.all(values[:-1] - values[1:] >= delta * steps**2 - 1e-15)
        assert np.sum(steps**2) <= 2.0 * summary["initial_objective"] / delta + 1e-12
    iterations = sum(summary["iterations"] for summary in summaries)
    trials = sum(summary["trials"] for summary in summaries)
    report(
        3,
        len(summaries) > 0,
        f"descent inequality and sum ||dx||^2 <= 2 F(x0)/delta verified on "
        f"all {len(summaries)} benchmark runs ({iterations} iterations, {trials} "
        f"Armijo trials)",
    )


def test_criterion_4_fixed_point_inclusion(experiments):
    bound = 10.0 * SolverConfig.eps
    residuals = [summary["fixed_point_residual"]
                 for *_, summary in experiments["runs"]
                 if summary["termination"] == CONVERGED]
    stalled = [f"{arm} trial {trial} lambda {lam:g} ({summary['termination']})"
               for (arm, trial, lam), _, summary in experiments["runs"]
               if summary["termination"] != CONVERGED]
    worst = max(residuals)
    report(
        4,
        not stalled and worst <= bound,
        f"fixed-point residual at the accepted step <= 10*eps on all "
        f"{len(residuals)} converged runs (worst {worst:.2e}, bound {bound:.0e}); "
        f"excluded {len(stalled)} non-converged: {', '.join(stalled) or 'none'}",
    )


def test_criterion_5_noiseless_recovery(experiments):
    real = experiments["real_noiseless"]
    cplx = experiments["complex_noiseless"]
    rate_real = float(np.mean(real < 5e-3))
    rate_cplx = float(np.mean(cplx < 5e-3))
    elapsed = experiments["noiseless_time"]
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
    type3_median = float(np.median(experiments["type3"]))
    type3_success = float(np.mean(experiments["type3"] < 5e-3))
    squared_median = float(np.median(experiments["type3_squared"]))
    noiseless_median = float(np.median(experiments["real_noiseless_outlier_alpha"]))
    gaussian_median = float(np.median(experiments["gaussian"]))
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
    x0 = spectral_init(e, seed=21)
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
    report(
        10,
        not mismatched,
        f"reruns byte-identical across {len(first)} output files"
        + (f"; MISMATCH in {mismatched}" if mismatched else ""),
    )


def test_criterion_13_truth_gap(experiments):
    """No converged run of a Huber arm ends above the truth's objective.

    A global minimizer x* has F(x*) <= F(x_true), so a run whose summary
    truth_gap = (F(x_hat) - F(x_true)) / max(1, |F(x_true)|) is positive has
    not found one, whatever its termination says.  The floor is
    SolverConfig.eps (1e-6): the stopping rule's own tolerance, not a tuned
    number.  The squared-loss arm is the non-robust baseline; its worst gap
    is printed, not gated.
    """
    huber, squared = [], []
    for (arm, trial, lam), _, summary in experiments["runs"]:
        if summary["termination"] == CONVERGED:
            (squared if arm == "type3_squared" else huber).append(
                (summary["truth_gap"], arm, trial, lam))
    gap, arm, trial, lam = max(huber)
    report(
        13,
        gap <= SolverConfig.eps,
        f"truth gap <= eps ({SolverConfig.eps:.0e}) on all {len(huber)} "
        f"converged Huber-arm runs (worst {gap:.2e}: {arm} trial {trial} "
        f"lambda {lam:g}); squared-loss baseline worst {max(squared)[0]:.2e}, "
        f"not gated",
    )
