import json

import numpy as np
import pytest

from robustpr import (
    FieldTag,
    NoiseSpec,
    SolverConfig,
    SpectralConfig,
    consistency_conditions,
    estimate_stability,
    linear_rate_certificate,
    remark5_quantities,
    solve,
    spectral_init,
    synthesize_instance,
)
from robustpr.diagnostics import RHO0, _min_eig, _refine_pair
from robustpr.errors import MissingDataError, UnsupportedFieldError
from robustpr.gradient import realify, realify_quadratic
from robustpr.model import MeasurementEnsemble

ALPHA = 1.345


def test_min_eig_matches_numpy_and_checks_residual():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    assert np.isclose(_min_eig(m), np.linalg.eigvalsh(m)[0])


def test_stability_rank_one_ensemble_hits_zero():
    a = np.zeros((1, 3))
    a[0, 0] = 2.0  # normalized internally to e_1
    e = MeasurementEnsemble(
        field=FieldTag.REAL, sampling_vectors=a, observations=np.array([1.0])
    )
    est = estimate_stability(e, samples=50, rho0=0.5, alpha=ALPHA, seed=1)
    assert est.mu_hat <= 1e-12  # coordinate-zeroing refinement reaches the null pair
    assert not est.used_noise_record


def test_stability_gaussian_ensemble_positive():
    e = synthesize_instance(8, 2, 200, FieldTag.REAL, NoiseSpec("none"), 2)
    est = estimate_stability(e, samples=300, rho0=0.5, alpha=ALPHA, seed=3)
    assert est.mu_hat > 0.1
    assert est.c2_hat > 0.0
    assert est.used_noise_record
    assert est.inlier_threshold == pytest.approx(0.5 * ALPHA)


def test_refine_pair_compounds_accepted_moves():
    # Rows sqrt(p) e_i give mu(u, v) = sum_i |u_i v_i|, which is 0 for pairs
    # with disjoint supports.  From u = v uniform, one round reaches 0 only if
    # each zeroing acts on the vector left by the previous accepted move.
    p = 8
    u = np.full(p, 1.0 / np.sqrt(p))
    mu = _refine_pair(np.sqrt(p) * np.eye(p), u, u.copy(), np.ones(p, dtype=bool),
                      pick=lambda m, c: m, rounds=1)
    assert mu == 0.0


def test_stability_validation():
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 1)
    with pytest.raises(ValueError):
        estimate_stability(e, samples=0, rho0=0.5, alpha=ALPHA, seed=0)
    ec = synthesize_instance(4, 1, 8, FieldTag.COMPLEX, NoiseSpec("none"), 1)
    with pytest.raises(UnsupportedFieldError):
        estimate_stability(ec, samples=10, rho0=0.5, alpha=ALPHA, seed=0)


def converged_real_solution(seed=21):
    e = synthesize_instance(16, 2, 320, FieldTag.REAL, NoiseSpec("none"), seed)
    x0 = spectral_init(e, SpectralConfig(), seed)
    result = solve(e, x0, SolverConfig(lam=1e-4))
    return e, result


def test_certificate_passes_on_easy_noiseless_run():
    e, result = converged_real_solution()
    report = linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=ALPHA)
    assert report.passed
    assert report.field == "real"
    assert len(report.support) == 2
    # verdict is re-derivable from the reported numbers alone
    assert report.passed == (
        report.lhs_min_eig >= report.rhs_boundary_norms + report.rhs_reg_term
    )
    doc = json.loads(report.to_json())
    assert doc["passed"] is True


def test_certificate_flips_with_huge_lambda():
    e, result = converged_real_solution()
    report = linear_rate_certificate(result.estimate, e, lam=1e-4 * 1e6, alpha=ALPHA)
    assert not report.passed


def test_certificate_scalar_cross_check():
    # single measurement, support {0}: the 1x1 eigenproblem by hand
    a = np.array([[1.5, 0.0]])
    x = np.array([2.0, 0.0])
    b = np.array([(1.5 * 2.0) ** 2])  # residual 0, inlier
    e = MeasurementEnsemble(field=FieldTag.REAL, sampling_vectors=a, observations=b)
    report = linear_rate_certificate(x, e, lam=1e-3, alpha=ALPHA)
    c = 1.5 * 2.0
    want = (3.0 * c**2 - b[0]) * 1.5**2 / 1.0
    assert np.isclose(report.lhs_min_eig, want)
    assert report.rhs_boundary_norms == 0.0
    assert np.isclose(report.rhs_reg_term, 0.75 * 1e-3 * 2.0 ** (-1.5))


def test_certificate_complex_realified_support():
    e = synthesize_instance(12, 3, 240, FieldTag.COMPLEX, NoiseSpec("none"), 31)
    x0 = spectral_init(e, SpectralConfig(truncation=6), 31)
    result = solve(e, x0, SolverConfig(lam=1e-4))
    report = linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=ALPHA)
    assert report.field == "complex"
    assert len(report.support_realified) == 2 * len(report.support)
    assert report.passed == (
        report.lhs_min_eig >= report.rhs_boundary_norms + report.rhs_reg_term
    )


def test_certificate_real_embedded_as_complex():
    # real signal with zero imaginary parts: realified quadratic identity holds
    e = synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("none"), 7)
    a_c = e.sampling_vectors.astype(np.complex128)
    x_c = e.ground_truth.astype(np.complex128)
    ec = MeasurementEnsemble(
        field=FieldTag.COMPLEX,
        sampling_vectors=a_c,
        observations=e.observations,
        ground_truth=x_c,
        noise_record=e.noise_record,
        seed=e.seed,
    )
    report = linear_rate_certificate(x_c, ec, lam=1e-4, alpha=ALPHA)
    support = np.flatnonzero(np.abs(x_c))
    assert len(report.support_realified) == 2 * len(support)
    # the shared residuals and masks see the same data in both fields
    real_report = linear_rate_certificate(e.ground_truth, e, lam=1e-4, alpha=ALPHA)
    assert report.support == real_report.support == support.tolist()
    assert report.n_inliers == real_report.n_inliers
    assert report.n_boundary == real_report.n_boundary
    xt = realify(x_c)
    for a_i, b_i in zip(a_c[:10], e.observations[:10]):
        quad = xt @ realify_quadratic(a_i) @ xt
        direct = (np.real(a_i) @ e.ground_truth) ** 2
        assert abs(quad - direct) <= 1e-12 * (1.0 + direct)


def test_certificate_validation():
    e, result = converged_real_solution()
    with pytest.raises(ValueError):
        linear_rate_certificate(np.zeros(16), e, lam=1e-4, alpha=ALPHA)
    with pytest.raises(ValueError):
        linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=ALPHA, eps1=2.0)
    with pytest.raises(ValueError):
        linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=ALPHA, eps1=0.0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam and alpha must be positive"):
            linear_rate_certificate(result.estimate, e, lam=bad, alpha=ALPHA)
        with pytest.raises(ValueError, match="lam and alpha must be positive"):
            linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=bad)


@pytest.mark.parametrize(
    "alpha, rho0, message",
    [
        (0.0, RHO0, "alpha must be positive"),
        (-1.0, RHO0, "alpha must be positive"),
        (float("nan"), RHO0, "alpha must be positive"),
        (float("inf"), RHO0, "alpha must be positive"),
        (ALPHA, 0.0, r"rho0 must lie in \(0, 1\)"),
        (ALPHA, 1.0, r"rho0 must lie in \(0, 1\)"),
        (ALPHA, -1.0, r"rho0 must lie in \(0, 1\)"),
        (ALPHA, 1.5, r"rho0 must lie in \(0, 1\)"),
        (ALPHA, float("nan"), r"rho0 must lie in \(0, 1\)"),
    ],
)
def test_theory_checks_reject_bad_alpha_and_rho0(alpha, rho0, message):
    e = synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    with pytest.raises(ValueError, match=message):
        estimate_stability(e, samples=5, rho0=rho0, alpha=alpha, seed=0)
    with pytest.raises(ValueError, match=message):
        remark5_quantities(e.ground_truth, e, alpha, rho0=rho0)
    with pytest.raises(ValueError, match=message):
        consistency_conditions(e, alpha=alpha, lam=1e-3, c1=0.6, c2=0.3, rho0=rho0)


def test_remark5_zero_noise():
    e = synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("none"), 4)
    report = remark5_quantities(e.ground_truth, e, ALPHA, rho0=0.5)
    assert report.inlier_noise_norm == 0.0
    assert report.boundary_noise_norm == 0.0
    assert report.inlier_quadratic_min_eig > 0.0


def test_remark5_single_measurement_scalar():
    a = np.array([[2.0, 0.0]])
    x = np.array([1.0, 0.0])
    eps = np.array([0.3])
    clean = (a @ x) ** 2
    e = MeasurementEnsemble(
        field=FieldTag.REAL,
        sampling_vectors=a,
        observations=clean + eps,
        ground_truth=x,
        noise_record=eps,
    )
    report = remark5_quantities(x, e, ALPHA, rho0=0.5)
    # row rescaled to norm sqrt(2): a_hat = sqrt(2) e_1, eps_hat = 2*0.3/4
    eps_hat = 2.0 * 0.3 / 4.0
    assert np.isclose(report.inlier_noise_norm, eps_hat * 2.0)
    assert report.boundary_noise_norm == 0.0
    # 2 * <a_hat, x>^2 * a_hat[0]^2 = 2 * 2 * 2
    assert np.isclose(report.inlier_quadratic_min_eig, 8.0)


def test_remark5_gaussian_noise_magnitudes():
    e = synthesize_instance(8, 2, 400, FieldTag.REAL, NoiseSpec("gaussian", 0.01), 5)
    report = remark5_quantities(e.ground_truth, e, ALPHA, rho0=0.5)
    assert report.inlier_noise_norm < 0.1 * report.inlier_quadratic_min_eig
    assert report.boundary_noise_norm < 0.1 * report.inlier_quadratic_min_eig


def test_remark5_requires_real_and_noise_record():
    ec = synthesize_instance(4, 1, 8, FieldTag.COMPLEX, NoiseSpec("none"), 1)
    with pytest.raises(UnsupportedFieldError):
        remark5_quantities(ec.ground_truth, ec, ALPHA)
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 1)
    bare = MeasurementEnsemble(
        field=FieldTag.REAL,
        sampling_vectors=e.sampling_vectors,
        observations=e.observations,
    )
    with pytest.raises(MissingDataError):
        remark5_quantities(e.ground_truth, bare, ALPHA)


def test_consistency_conditions_report():
    e = synthesize_instance(8, 2, 400, FieldTag.REAL, NoiseSpec("type1", 0.05), 6)
    report = consistency_conditions(e, alpha=ALPHA, lam=1e-3, c1=0.6, c2=0.3)
    n, p = 400, 8
    t_n = np.sqrt(2 * (2 * p + 1) * np.log(1 + 2 * n) / n)
    assert np.isclose(report["t_n"], t_n)
    assert set(report) >= {
        "alpha_ok",
        "lambda_ok",
        "x_min_ok",
        "lambda_upper",
        "lambda_lower",
        "mean_abs_eps",
    }
