import numpy as np
import pytest

from robustpr import FieldTag, NoiseSpec, g, huber_deriv, synthesize_instance
from robustpr.gradient import _adjoint
from robustpr.model import correlate
from robustpr.objective import _evaluate, loss

from oracles import (
    fd_loss_gradient,
    huber,
    realify,
    realify_gradient,
    realify_quadratic,
    unrealify,
)
from test_library_refusals import library_refusal_tests

ALPHA = 1.345


def _rel_err(got, want):
    scale = np.linalg.norm(want)
    if scale < 1e-10:
        return np.linalg.norm(got - want)
    return np.linalg.norm(got - want) / scale


def test_g_zero_input():
    e = synthesize_instance(6, 2, 12, FieldTag.REAL, NoiseSpec("type1", 0.1), 0)
    assert not g(np.zeros(6), e, ALPHA).any()


def test_g_vanishes_at_truth_noiseless():
    e = synthesize_instance(6, 2, 12, FieldTag.COMPLEX, NoiseSpec("none"), 1)
    assert np.linalg.norm(g(e.ground_truth, e, ALPHA)) == 0.0


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_adjoint_of_the_evaluation_core_is_bitwise_g(field):
    # solve builds g(x+) from the products its line search already made
    e = synthesize_instance(24, 3, 96, field, NoiseSpec("type3", 0.1), 26)
    rng = np.random.default_rng(26)
    for _ in range(5):
        x = rng.standard_normal(24).astype(field.dtype)
        if field is FieldTag.COMPLEX:
            x += 1j * rng.standard_normal(24)
        _, c, d = _evaluate(x, e, 0.0, ALPHA)
        assert _adjoint(e, c, d).tobytes() == g(x, e, ALPHA).tobytes()


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
@pytest.mark.parametrize("noise", [NoiseSpec("none"), NoiseSpec("type3", 0.1)])
def test_g_is_bitwise_the_clamped_adjoint_formula(field, noise):
    # A^T (h'(|c|^2 - b) c) / n with |c|^2 as np.abs(c) ** 2, whatever form
    # the evaluation core squares c in
    e = synthesize_instance(24, 3, 96, field, noise, 28)
    rng = np.random.default_rng(28)
    for scale in (0.0, 0.1, 1.0, 10.0):
        x = e.ground_truth + scale * rng.standard_normal(24)
        if field is FieldTag.COMPLEX:
            x += 1j * scale * rng.standard_normal(24)
        c = correlate(e.sampling_vectors, x)
        d = huber_deriv(np.abs(c) ** 2 - e.observations, ALPHA)
        want = e.sampling_vectors.T @ (d * c) / e.n
        assert g(x, e, ALPHA).tobytes() == want.tobytes()


def test_real_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    for trial in range(10):
        e = synthesize_instance(
            5, 2, 16, FieldTag.REAL, NoiseSpec("type1", 0.1), 100 + trial
        )
        x = rng.standard_normal(5)
        want = fd_loss_gradient(x, e, ALPHA)
        assert _rel_err(2.0 * g(x, e, ALPHA), want) < 1e-6


def test_realified_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(10):
        e = synthesize_instance(
            6, 2, 20, FieldTag.COMPLEX, NoiseSpec("type2", 0.1), 200 + trial
        )
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        want = fd_loss_gradient(x, e, ALPHA)
        assert _rel_err(realify_gradient(x, e, ALPHA), want) < 1e-6


def test_realify_quadratic_real_vector_blocks():
    a = np.array([1.0, -2.0, 0.5], dtype=complex)
    A = realify_quadratic(a)
    block = np.outer(a.real, a.real)
    np.testing.assert_allclose(A[:3, :3], block)
    np.testing.assert_allclose(A[3:, 3:], block)
    assert not A[:3, 3:].any() and not A[3:, :3].any()


def test_realify_quadratic_identity_sampling():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    A = realify_quadratic(a)
    np.testing.assert_array_equal(A, A.T)
    for _ in range(100):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        xt = realify(x)
        quad = xt @ A @ xt
        direct = abs(np.vdot(a, x)) ** 2
        assert abs(quad - direct) <= 1e-12 * (1.0 + direct)


def test_unrealify_inverts_realify():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    np.testing.assert_array_equal(unrealify(realify(x)), x)
    with pytest.raises(ValueError):
        unrealify(np.zeros(5))


def test_g_norm_bound():
    e = synthesize_instance(6, 2, 24, FieldTag.COMPLEX, NoiseSpec("type1", 0.2), 3)
    norms_sq = np.sum(np.abs(e.sampling_vectors) ** 2, axis=1)
    bound_coef = ALPHA * np.mean(norms_sq)
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.linalg.norm(g(x, e, ALPHA)) <= bound_coef * np.linalg.norm(x) + 1e-12


def test_g_local_lipschitz_bound():
    e = synthesize_instance(5, 2, 20, FieldTag.REAL, NoiseSpec("type2", 0.1), 4)
    norms_sq = np.sum(e.sampling_vectors**2, axis=1)
    r = 3.0
    lip = np.mean(ALPHA * norms_sq + 2.0 * r**2 * norms_sq**2)
    rng = np.random.default_rng(15)
    for _ in range(50):
        x, y = rng.standard_normal((2, 5))
        x *= r * rng.random() / np.linalg.norm(x)
        y *= r * rng.random() / np.linalg.norm(y)
        lhs = np.linalg.norm(g(x, e, ALPHA) - g(y, e, ALPHA))
        assert lhs <= lip * np.linalg.norm(x - y) + 1e-12


def test_realified_loss_consistency():
    e = synthesize_instance(6, 2, 18, FieldTag.COMPLEX, NoiseSpec("type1", 0.1), 5)
    rng = np.random.default_rng(16)
    for _ in range(20):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        via_complex = loss(x, e, ALPHA)
        xt = realify(x)
        mats = [realify_quadratic(a) for a in e.sampling_vectors]
        via_real = float(
            np.mean(
                [
                    huber(xt @ A @ xt - b, ALPHA)
                    for A, b in zip(mats, e.observations)
                ]
            )
        )
        assert abs(via_complex - via_real) <= 1e-13 * (1.0 + abs(via_real))


globals().update(library_refusal_tests("test_gradient"))
