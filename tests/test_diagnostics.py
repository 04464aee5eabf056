import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from robustpr import (
    FieldTag,
    NoiseSpec,
    SolverConfig,
    diagnostics,
    estimate_stability,
    linear_rate_certificate,
    remark5_quantities,
    solve,
    spectral_init,
    synthesize_instance,
)
from robustpr.diagnostics import (
    _BLOCK_ENTRIES,
    RHO0,
    _complex_terms,
    _consistency,
    _masks,
    _min_eig,
    _mu_mean,
    _phase_projected,
    _real_terms,
    _refine_pair,
    _sample_size,
)
from robustpr.errors import DomainError
from robustpr.model import MeasurementEnsemble, correlate, measure

from oracles import realified_curvature, realify, realify_quadratic
from work_ledger import SEEDS, _instance

ALPHA = 1.345


def test_min_eig_matches_numpy_and_checks_residual():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    assert np.isclose(_min_eig(m), np.linalg.eigvalsh(m)[0])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_min_eig_inertia_bracket_rejects_a_wrong_eigenvalue(monkeypatch, sign):
    # above the smallest eigenvalue, M - (lambda - tol) I is indefinite; below
    # it, M - (lambda + tol) I is still positive definite
    rng = np.random.default_rng(1)
    b = rng.standard_normal((8, 8))
    m = b + b.T
    vals = np.linalg.eigvalsh(m)
    shifted = vals + sign * 1e-6 * np.max(np.abs(vals))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda _: shifted)
    with pytest.raises(RuntimeError, match="inertia"):
        _min_eig(m)


def test_min_eig_of_a_scalar_and_of_zero():
    assert _min_eig(np.array([[-2.5]])) == -2.5
    assert _min_eig(np.array([[3.0]])) == 3.0
    m, _ = _complex_terms(*restricted(no_inlier_inputs()))
    assert not np.any(m)
    assert _min_eig(m) == 0.0


def test_stability_rank_one_ensemble_hits_zero():
    a = np.zeros((1, 3))
    a[0, 0] = 2.0  # normalized internally to e_1
    e = MeasurementEnsemble(
        sampling_vectors=a, observations=np.array([1.0])
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


def test_refine_pair_compounds_accepted_moves(monkeypatch):
    # Rows sqrt(p) e_i give mu(u, v) = sum_i |u_i v_i|, which is 0 for pairs
    # with disjoint supports.  From u = v uniform, one round reaches 0 only if
    # each zeroing acts on the vector left by the previous accepted move.
    monkeypatch.setattr(diagnostics, "_REFINE_ROUNDS", 1)
    p = 8
    u = np.full(p, 1.0 / np.sqrt(p))
    mu = _refine_pair(np.sqrt(p) * np.eye(p), u, u.copy(), _mu_mean)
    assert mu == 0.0


def test_stability_validation():
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 1)
    with pytest.raises(ValueError, match="^samples must be a positive integer, got 0$"):
        estimate_stability(e, samples=0, rho0=0.5, alpha=ALPHA, seed=0)
    ec = synthesize_instance(4, 1, 8, FieldTag.COMPLEX, NoiseSpec("none"), 1)
    with pytest.raises(DomainError,
                       match="^stability estimation is defined for real ensembles only$"):
        estimate_stability(ec, samples=10, rho0=0.5, alpha=ALPHA, seed=0)


def test_row_normalized_checks_refuse_a_zero_row():
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("type2", 0.1), 1)
    a = e.sampling_vectors.copy()
    a[2] = 0.0
    zero_row = MeasurementEnsemble(a, e.observations)
    with pytest.raises(ValueError, match="^sampling ensemble contains a zero row$"):
        estimate_stability(zero_row, samples=5, rho0=0.5, alpha=ALPHA, seed=0)


@pytest.mark.parametrize("samples", [2.5, 3.0, np.nan, True, "3"])
def test_stability_rejects_a_non_integer_sample_count(samples):
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 1)
    message = f"^samples must be a positive integer, got {re.escape(str(samples))}$"
    with pytest.raises(ValueError, match=message):
        estimate_stability(e, samples=samples, rho0=0.5, alpha=ALPHA, seed=0)


def test_a_numpy_integer_sample_count_gives_the_same_report():
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("type2", 0.1), 1)
    ours = estimate_stability(e, samples=np.int64(5), rho0=0.5, alpha=ALPHA, seed=0)
    theirs = estimate_stability(e, samples=5, rho0=0.5, alpha=ALPHA, seed=0)
    assert ours.to_json() == theirs.to_json()


def converged_real_solution(seed=21):
    e = synthesize_instance(16, 2, 320, FieldTag.REAL, NoiseSpec("none"), seed)
    x0 = spectral_init(e)
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
    e = MeasurementEnsemble(sampling_vectors=a, observations=b)
    report = linear_rate_certificate(x, e, lam=1e-3, alpha=ALPHA)
    c = 1.5 * 2.0
    want = (3.0 * c**2 - b[0]) * 1.5**2 / 1.0
    assert np.isclose(report.lhs_min_eig, want)
    assert report.rhs_boundary_norms == 0.0
    assert np.isclose(report.rhs_reg_term, 0.75 * 1e-3 * 2.0 ** (-1.5))


def test_certificate_complex_realified_support():
    e = synthesize_instance(12, 3, 240, FieldTag.COMPLEX, NoiseSpec("none"), 31)
    x0 = spectral_init(e)
    result = solve(e, x0, SolverConfig(lam=1e-4))
    report = linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=ALPHA)
    assert report.field == "complex"
    assert len(report.support_realified) == 2 * len(report.support)
    assert report.passed == (
        report.lhs_min_eig >= report.rhs_boundary_norms + report.rhs_reg_term
    )


def converged_complex_solution(p=64, s=4, n=640, spec=NoiseSpec("none"),
                               lam=1e-4, seed=7):
    e = synthesize_instance(p, s, n, FieldTag.COMPLEX, spec, seed)
    x0 = spectral_init(e)
    result = solve(e, x0, SolverConfig(lam=lam))
    return e, result


@pytest.mark.parametrize("seed", [7, 8])
def test_complex_certificate_passes_modulo_phase(seed):
    # M is singular along realify(i x*): the Rayleigh quotient there is the
    # unprojected smallest eigenvalue, and the certificate ignores it
    e, result = converged_complex_solution(seed=seed)
    x = result.estimate
    report = linear_rate_certificate(x, e, lam=1e-4, alpha=ALPHA)
    assert report.passed
    assert abs(report.phase_direction_curvature) < 1e-3
    m, _ = _complex_terms(e.sampling_vectors, np.flatnonzero(x),
                          *certificate_inputs(e, x)[1:])
    low, second = np.linalg.eigvalsh(m)[:2]
    assert np.isclose(report.phase_direction_curvature, low, rtol=1e-2, atol=1e-6)
    assert np.isclose(report.lhs_min_eig, second, rtol=1e-3)
    assert not linear_rate_certificate(x, e, lam=1e-4 * 1e6, alpha=ALPHA).passed


def test_complex_certificate_passes_under_type3_outliers():
    for shape in (dict(p=64, s=4, n=640), dict(p=128, s=8, n=768)):
        e, result = converged_complex_solution(
            **shape, spec=NoiseSpec("type3", 0.05), lam=1e-2)
        assert linear_rate_certificate(
            result.estimate, e, lam=1e-2, alpha=ALPHA).passed, shape


def test_phase_direction_curvature_is_the_rayleigh_quotient():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((10, 10))
    m = b + b.T
    x_s = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = realify(1j * x_s)
    _, phase = _phase_projected(m, x_s)
    assert np.isclose(phase, v @ m @ v / (v @ v), rtol=1e-12)
    # the quotient is scale-free, so a tiny or huge x_S gives the same value
    for scale in (1e-200, 1e200):
        assert np.isclose(_phase_projected(m, scale * x_s)[1], phase, rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_phase_projection_interlaces(seed):
    # Cauchy interlacing: M on v-perp has its smallest eigenvalue in [l1, l2]
    rng = np.random.default_rng(seed)
    k = 6
    b = rng.standard_normal((2 * k, 2 * k))
    m = b + b.T
    x_s = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    block, _ = _phase_projected(m, x_s)
    assert block.shape == (2 * k - 1, 2 * k - 1)
    l1, l2 = np.linalg.eigvalsh(m)[:2]
    low = _min_eig(block)
    assert l1 - 1e-12 <= low <= l2 + 1e-12
    # with v the l1 eigenvector, M on v-perp starts at l2 exactly
    v = realify(1j * x_s)
    q, _ = np.linalg.qr(np.column_stack([v, rng.standard_normal((2 * k, 2 * k - 1))]))
    vals = np.sort(rng.standard_normal(2 * k))
    m_v = (q * vals) @ q.T
    block_v, phase_v = _phase_projected(m_v, x_s)
    assert np.isclose(_min_eig(block_v), vals[1], rtol=0, atol=1e-12)
    assert np.isclose(phase_v, vals[0], rtol=0, atol=1e-12)


def certificate_inputs(e, x, alpha=ALPHA):
    """The (a_s, c, r, inliers, e) that linear_rate_certificate builds M from."""
    support = np.flatnonzero(x)
    c = correlate(e.sampling_vectors, x)
    r = np.abs(c) ** 2 - e.observations
    inliers, _ = _masks(r, alpha, RHO0)
    return e.sampling_vectors[:, support], c, r, inliers, e


def real_as_complex(e):
    return MeasurementEnsemble(
        sampling_vectors=e.sampling_vectors.astype(np.complex128),
        observations=e.observations,
        ground_truth=e.ground_truth.astype(np.complex128),
        noise_record=e.noise_record,
        seed=e.seed,
    )


def complex_outliers_inputs():
    e, result = converged_complex_solution(
        p=128, s=8, n=768, spec=NoiseSpec("type3", 0.05), lam=1e-3)
    return certificate_inputs(e, result.estimate)


def embedded_real_inputs():
    e = real_as_complex(
        synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("type2", 0.1), 7))
    return certificate_inputs(e, e.ground_truth)


def single_row_inputs():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    x = np.array([1.0 - 0.5j, 0.0, 0.3j, 0.0])
    b = np.abs(correlate(a, x)) ** 2 + 0.1
    e = MeasurementEnsemble(sampling_vectors=a, observations=b)
    return certificate_inputs(e, x)


def no_inlier_inputs():
    a_s, c, r, _, e = embedded_real_inputs()
    return a_s, c, r, np.zeros(e.n, dtype=bool), e


def multi_block_inputs():
    # |S| = 96 gives row blocks of 170: five full blocks and a partial one of 150
    e = synthesize_instance(96, 96, 1000, FieldTag.COMPLEX, NoiseSpec("type3", 0.05), 5)
    step = _BLOCK_ENTRIES // 96
    assert e.n > 2 * step and e.n % step
    args = certificate_inputs(e, e.ground_truth)
    assert 0 < np.count_nonzero(args[3]) < e.n
    return args


def restricted(args):
    """(a_s, c, r, inliers, e) as _complex_terms arguments over all of a_s's columns."""
    return args[0], np.arange(args[0].shape[1]), *args[1:]


@pytest.mark.parametrize("build", [complex_outliers_inputs, embedded_real_inputs,
                                   single_row_inputs, no_inlier_inputs,
                                   multi_block_inputs])
def test_complex_terms_match_the_realified_oracle(build):
    args = build()
    m, norms = _complex_terms(*restricted(args))
    m_ref, norms_ref = realified_curvature(*args)
    assert m.shape == m_ref.shape == (2 * args[0].shape[1],) * 2
    assert np.max(np.abs(m - m_ref)) <= 1e-12 * np.max(np.abs(m_ref))
    assert np.array_equal(norms, norms_ref)
    if not np.any(args[3]):
        assert not np.any(m)


def test_complex_terms_select_the_support_block_by_block():
    # columns picked from the full A per block give the bits of a pre-restricted A
    e = synthesize_instance(
        160, 96, 1000, FieldTag.COMPLEX, NoiseSpec("type3", 0.05), 5)
    x = e.ground_truth
    support = np.flatnonzero(x)
    args = certificate_inputs(e, x)
    m, norms = _complex_terms(e.sampling_vectors, support, *args[1:])
    m_s, norms_s = _complex_terms(*restricted(args))
    assert np.array_equal(m, m_s)
    assert np.array_equal(norms, norms_s)


def test_real_terms_match_the_gram_over_inliers():
    e = synthesize_instance(128, 12, 768, FieldTag.REAL, NoiseSpec("type2", 0.1), 7)
    a_s, c, _, inliers, _ = certificate_inputs(e, e.ground_truth)
    m, _ = _real_terms(a_s, c, inliers, e)
    weights = (3.0 * c**2 - e.observations) / e.n
    assert np.array_equal(m, (a_s[inliers].T * weights[inliers]) @ a_s[inliers])


def test_certificate_memory_stays_off_the_realified_copies():
    # at n = 768, three realified n x 2|S| copies peak at 11.9 MB, two complex
    # n x |S| Gram buffers at 4.6 MB (7.0 MB at n = 3072), and the row blocks
    # at 1.3-1.6 MB whatever n is
    for n, support_size in ((768, 100), (3072, 40)):
        e, result = converged_complex_solution(
            p=128, s=8, n=n, spec=NoiseSpec("type3", 0.05), lam=1e-3)
        tracemalloc.start()
        try:
            report = linear_rate_certificate(result.estimate, e, lam=1e-3, alpha=ALPHA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.support) > support_size, n
        assert peak < 2.5e6, n


def test_real_certificate_has_no_phase_direction():
    e, result = converged_real_solution()
    report = linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=ALPHA)
    assert report.phase_direction_curvature is None
    assert json.loads(report.to_json())["phase_direction_curvature"] is None


def one_entry(field, value, p=16):
    x = np.zeros(p, dtype=field.dtype)
    x[3] = value
    return x


def non_finite(value, case):
    """A solution with a non-finite entry, which ``check_signal`` refuses whole;
    the id names the case."""
    return pytest.param(value, "^signal contains non-finite entries$",
                        id=f"{case}-solution has a non-finite entry")


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
@pytest.mark.parametrize("value, message", [
    non_finite(np.inf, "inf"),
    non_finite(-np.inf, "-inf"),
    non_finite(np.nan, "nan"),
    (1e-300, "solution's smallest nonzero entry is too small"),
    (1e200, "solution overflows the certificate's curvature terms"),
])
def test_certificate_rejects_non_finite_or_degenerate_solution(field, value, message):
    e = synthesize_instance(16, 2, 96, field, NoiseSpec("type2", 0.1), 3)
    with pytest.raises(ValueError, match=message):
        linear_rate_certificate(one_entry(field, value), e, lam=1e-3, alpha=ALPHA)


def test_certificate_rejects_an_overflowing_regularizer_term():
    e, result = converged_real_solution()
    with pytest.raises(ValueError, match="regularizer term overflows"):
        linear_rate_certificate(result.estimate, e, lam=1e308, alpha=ALPHA)


@pytest.mark.parametrize("value, message", [
    non_finite(np.inf, "inf"),
    non_finite(np.nan, "nan"),
    (1e200, "solution overflows the inlier quadratic term"),
])
def test_remark5_rejects_non_finite_or_degenerate_solution(value, message):
    e = synthesize_instance(16, 2, 96, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    with pytest.raises(ValueError, match=message):
        remark5_quantities(one_entry(FieldTag.REAL, value), e, ALPHA)


def test_certificate_real_embedded_as_complex():
    # real signal with zero imaginary parts: realified quadratic identity holds
    e = synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("none"), 7)
    ec = real_as_complex(e)
    a_c, x_c = ec.sampling_vectors, ec.ground_truth
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
    with pytest.raises(DomainError, match="^solution has empty support$"):
        linear_rate_certificate(np.zeros(16), e, lam=1e-4, alpha=ALPHA)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match=f"^lam must be finite and positive, got {bad}$"):
            linear_rate_certificate(result.estimate, e, lam=bad, alpha=ALPHA)
        with pytest.raises(ValueError,
                           match=f"^alpha must be finite and positive, got {bad}$"):
            linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=bad)


@pytest.mark.parametrize(
    "alpha, rho0, message",
    [
        *[pytest.param(bad, RHO0, f"alpha must be finite and positive, got {bad}",
                       id=f"{bad}-{RHO0}-alpha must be positive")
          for bad in (0.0, -1.0, float("nan"), float("inf"))],
        pytest.param(10**400, RHO0, f"alpha must be finite and positive, got {10**400}",
                     id=f"10**400-{RHO0}-alpha must be positive"),
        *[pytest.param(ALPHA, bad, rf"rho0 must lie in \(0, 1\), got {bad}",
                       id=rf"{ALPHA}-{bad}-rho0 must lie in \(0, 1\)")
          for bad in (0.0, 1.0, -1.0, 1.5, float("nan"))],
        pytest.param(ALPHA, 10**400, rf"rho0 must lie in \(0, 1\), got {10**400}",
                     id=rf"{ALPHA}-10**400-rho0 must lie in \(0, 1\)"),
    ],
)
def test_theory_checks_reject_bad_alpha_and_rho0(alpha, rho0, message):
    # one check and one whole message for each parameter in all three modes
    e = synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    message = f"^{message}$"
    with pytest.raises(ValueError, match=message):
        estimate_stability(e, samples=5, rho0=rho0, alpha=alpha, seed=0)
    with pytest.raises(ValueError, match=message):
        remark5_quantities(e.ground_truth, e, alpha, rho0=rho0)
    for ens in (e, real_as_complex(e)):
        with pytest.raises(ValueError, match=message):
            linear_rate_certificate(ens.ground_truth, ens, 1e-4, alpha, rho0=rho0)


@pytest.mark.parametrize("name", ["alpha", "rho0"])
def test_theory_checks_refuse_a_bool_alpha_or_rho0(name):
    e = synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    message = ("^alpha must be finite and positive, got True$" if name == "alpha"
               else r"^rho0 must lie in \(0, 1\), got True$")
    for bad in (True, np.True_):
        params = {"alpha": ALPHA, "rho0": RHO0, name: bad}
        with pytest.raises(ValueError, match=message):
            estimate_stability(e, samples=5, seed=0, **params)
        with pytest.raises(ValueError, match=message):
            remark5_quantities(e.ground_truth, e, **params)
        with pytest.raises(ValueError, match=message):
            linear_rate_certificate(e.ground_truth, e, 1e-4, **params)


def test_numpy_parameters_give_the_reports_of_their_python_floats():
    # a float32 alpha or rho0 was kept raw, and to_json raised TypeError
    e = synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    lam, alpha, rho0 = np.float32(1e-4), np.float32(ALPHA), np.float32(0.3)
    floats = float(lam), float(alpha), float(rho0)
    for ens in (e, real_as_complex(e)):
        ours, want = (linear_rate_certificate(ens.ground_truth, ens, *params)
                      for params in ((lam, alpha, rho0), floats))
        assert ours.to_json() == want.to_json()
    ours, want = (remark5_quantities(e.ground_truth, e, *params[1:])
                  for params in ((lam, alpha, rho0), floats))
    assert ours.to_json() == want.to_json()
    ours = estimate_stability(e, np.int32(5), rho0, alpha, seed=np.int64(4))
    want = estimate_stability(e, 5, float(rho0), float(alpha), seed=4)
    assert ours.to_json() == want.to_json()


@pytest.mark.parametrize("rho0", [0.05, 0.3, RHO0])
def test_every_check_counts_inliers_at_rho0_alpha(rho0):
    # one inlier rule, |v_i| <= rho0 * alpha, for the noise record (Remark 5)
    # and for the residual at the solution (certificate)
    e = synthesize_instance(8, 2, 200, FieldTag.REAL, NoiseSpec("type2", 0.5), 7)
    x = e.ground_truth
    bound = rho0 * ALPHA
    scale_sq = e.p / np.sum(e.sampling_vectors**2, axis=1)
    eps_hat = e.noise_record * scale_sq
    remark5 = remark5_quantities(x, e, ALPHA, rho0=rho0)
    assert remark5.n_inliers == np.count_nonzero(np.abs(eps_hat) <= bound)
    residual = (e.sampling_vectors @ x) ** 2 - e.observations
    cert = linear_rate_certificate(x, e, 1e-4, ALPHA, rho0=rho0)
    assert cert.n_inliers == np.count_nonzero(np.abs(residual) <= bound)
    assert remark5.eps1 == cert.eps1 == (1.0 - rho0) * ALPHA
    # the split moves with rho0: some measurements lie in each set
    assert 0 < cert.n_inliers < e.n and 0 < cert.n_boundary < e.n
    # the inlier set ends at rho0 * alpha itself, to the last bit
    edge = rho0 * ALPHA
    inliers, _ = _masks(np.array([edge, np.nextafter(edge, np.inf)]), ALPHA, rho0)
    assert inliers.tolist() == [True, False]


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
    with pytest.raises(DomainError,
                       match="^the Remark-5 check is defined for real ensembles only$"):
        remark5_quantities(ec.ground_truth, ec, ALPHA)
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 1)
    bare = MeasurementEnsemble(
        sampling_vectors=e.sampling_vectors,
        observations=e.observations,
    )
    with pytest.raises(DomainError, match="^Remark-5 quantities require a noise record$"):
        remark5_quantities(e.ground_truth, bare, ALPHA)


CONSISTENCY_KEYS = [
    "t_n", "alpha_floor", "lambda_upper", "lambda_lower", "n_lambda_window",
    "n_x_min", "p_log_n_over_n",
]


def t_n(n, p):
    return math.sqrt(2 * (2 * p + 1) * math.log(1 + 2 * n) / n)


def test_consistency_conditions_report():
    e = synthesize_instance(8, 2, 400, FieldTag.REAL, NoiseSpec("type1", 0.05), 6)
    est = estimate_stability(e, samples=50, rho0=0.5, alpha=ALPHA, seed=1)
    report = est.consistency
    assert list(report) == CONSISTENCY_KEYS
    assert not any(isinstance(value, bool) for value in report.values())
    n, p = 400, 8
    assert np.isclose(report["t_n"], t_n(n, p))
    # the lambda window scales with C2 = c2_hat
    x = e.ground_truth
    half = np.sum(np.sqrt(np.abs(x)))
    assert np.isclose(report["lambda_upper"],
                      0.25 * est.c2_hat * t_n(n, p) ** (2 / 3) / (np.sqrt(2) + half))
    # 2 t_n^(1/6) <= x_min first holds at n_x_min; neither condition holds here
    x_min = np.min(np.abs(x[x != 0]))
    assert report["n_x_min"] == _sample_size(p, (x_min / 2) ** 6)
    assert report["lambda_lower"] > report["lambda_upper"]
    assert report["n_lambda_window"] > n and report["n_x_min"] > n
    assert json.loads(est.to_json())["consistency"] == report


@pytest.mark.parametrize("p, bound", [(1, 1.0), (8, 0.5), (64, 0.05), (128, 1e-3),
                                      (8, t_n(1, 8)), (8, 10.0), (8, math.inf)])
def test_sample_size_is_the_smallest_n_with_t_n_at_most_the_bound(p, bound):
    n = _sample_size(p, bound)
    assert t_n(n, p) <= bound
    assert n == 1 or t_n(n - 1, p) > bound
    assert (n == 1) == (bound >= t_n(1, p))


@pytest.mark.parametrize("bound", [0.0, 1e-160])
def test_sample_size_past_float_range_is_none(bound):
    # bound^2 underflows, or 2 (2p+1) / bound^2 overflows: no n is a float
    assert _sample_size(1, bound) is None


@pytest.mark.parametrize("c2", [1e-9, 0.3, 1.0, 1e6])
def test_the_lambda_window_opens_at_n_lambda_window_whatever_c2(c2):
    # C2 scales both ends of the window, so it cancels from lower <= upper
    x = np.zeros(8)
    x[[1, 6]] = 0.5, -0.5
    e = measure(x, 40, NoiseSpec("none"), 1)
    opens = _consistency(e, e.noise_record, RHO0, 0.3, c2)["n_lambda_window"]
    assert 40 < opens < 10**5
    for n, is_open in ((opens, True), (opens - 1, False)):
        e = measure(x, n, NoiseSpec("none"), 1)
        report = _consistency(e, e.noise_record, RHO0, 0.3, c2)
        assert (report["lambda_lower"] <= report["lambda_upper"]) == is_open
        assert report["n_lambda_window"] == opens


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", ["t3", "quick"])
def test_no_rho0_gives_an_alpha_floor_on_the_ledger_instances(shape, seed):
    # rows at norm sqrt(p) give trace(A^T A / n) = p, so (u = v) C1 is at most
    # lambda_min(A^T A / n) <= 1; a floor needs 2 (1 - rho0) mu_hat > 1,
    # which mu_hat < 1/2 rules out at every rho0 in (0, 1)
    e, alpha = _instance(shape, seed)
    a_hat, _ = diagnostics._normalized(e, "the test")
    assert np.linalg.eigvalsh(a_hat.T @ a_hat / e.n)[0] <= 1.0
    est = estimate_stability(e, samples=50, rho0=0.01, alpha=alpha, seed=seed)
    assert est.mu_hat < 0.5
    assert est.consistency["alpha_floor"] is None


def test_consistency_is_none_without_noise_record_or_nonzero_truth():
    e = synthesize_instance(8, 2, 80, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    bare = MeasurementEnsemble(
        sampling_vectors=e.sampling_vectors,
        observations=e.observations,
        ground_truth=e.ground_truth,
    )
    zero_truth = MeasurementEnsemble(
        sampling_vectors=e.sampling_vectors,
        observations=e.noise_record,  # b = |<a_i, 0>|^2 + eps_i
        ground_truth=np.zeros(8),
        noise_record=e.noise_record,
    )
    for ens in (bare, zero_truth):
        est = estimate_stability(ens, samples=5, rho0=0.5, alpha=ALPHA, seed=0)
        assert est.consistency is None
        assert json.loads(est.to_json())["consistency"] is None


@pytest.mark.parametrize("rho0", [0.05, 0.3, 0.5])
def test_alpha_floor_is_none_exactly_without_a_margin(rho0):
    # mu_hat = 0.549 here, so 2 (1 - rho0) mu_hat exceeds 1 only at rho0 = 0.05
    e = synthesize_instance(4, 1, 400, FieldTag.REAL, NoiseSpec("type1", 0.05), 1)
    est = estimate_stability(e, samples=50, rho0=rho0, alpha=ALPHA, seed=1)
    report = est.consistency
    margin = 2.0 * (1.0 - rho0) * est.mu_hat - 1.0
    assert (report["alpha_floor"] is None) == (margin <= 0.0)
    assert (margin > 0.0) == (rho0 == 0.05)
    if margin > 0.0:
        # 6 E|eps| / margin, at the mean |eps| of the rows rescaled to norm sqrt(p)
        eps_hat = e.noise_record * e.p / np.sum(e.sampling_vectors**2, axis=1)
        assert np.isclose(report["alpha_floor"], 6.0 * np.mean(np.abs(eps_hat)) / margin)
    json.loads(est.to_json(), parse_constant=reject_constant)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_report_with_a_non_finite_number_is_not_json(value):
    e, result = converged_real_solution()
    report = linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=ALPHA)
    with pytest.raises(ValueError, match="not JSON compliant"):
        dataclasses.replace(report, lhs_min_eig=value).to_json()


def test_reports_dump_their_fields_as_asdict_would():
    e, result = converged_real_solution()
    c, cresult = converged_complex_solution(p=16, s=2, n=160)
    noisy = synthesize_instance(8, 2, 400, FieldTag.REAL, NoiseSpec("type1", 0.05), 6)
    reports = [
        linear_rate_certificate(result.estimate, e, lam=1e-4, alpha=ALPHA),
        linear_rate_certificate(cresult.estimate, c, lam=1e-4, alpha=ALPHA),
        remark5_quantities(noisy.ground_truth, noisy, alpha=ALPHA),
        estimate_stability(noisy, samples=20, rho0=0.5, alpha=ALPHA, seed=1),
    ]
    assert reports[3].consistency is not None  # a nested dict to dump
    for report in reports:
        assert report.to_json() == json.dumps(dataclasses.asdict(report))
