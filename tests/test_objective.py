import numpy as np
import pytest
from hypothesis import given, strategies as st

from robustpr import (
    FieldTag,
    NoiseSpec,
    half_norm,
    huber,
    huber_deriv,
    loss,
    objective,
    surrogate,
    synthesize_instance,
)
from robustpr.model import MeasurementEnsemble

ALPHA = 1.345

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_huber_values():
    assert huber(0.0, ALPHA) == 0.0
    assert huber(1.0, ALPHA) == 0.5
    assert np.isclose(huber(2.0, ALPHA), 1.345 * 2 - 1.345**2 / 2)
    assert np.isclose(float(huber(2.0, ALPHA)), 1.785487, atol=5e-7)


@given(finite_reals)
def test_huber_even(u):
    assert huber(u, ALPHA) == huber(-u, ALPHA)


@given(finite_reals)
def test_huber_sandwich(u):
    value = float(huber(u, ALPHA))
    assert ALPHA * abs(u) - ALPHA**2 / 2 <= value + 1e-12
    assert value <= ALPHA * abs(u) + 1e-12


def test_huber_deriv_clamp():
    assert huber_deriv(0.5, ALPHA) == 0.5
    assert huber_deriv(10.0, ALPHA) == ALPHA
    assert huber_deriv(-2.0, ALPHA) == -ALPHA
    assert huber_deriv(ALPHA, ALPHA) == ALPHA
    assert huber_deriv(-ALPHA, ALPHA) == -ALPHA


@given(finite_reals, finite_reals)
def test_huber_deriv_one_lipschitz_and_bounded(u, v):
    du, dv = float(huber_deriv(u, ALPHA)), float(huber_deriv(v, ALPHA))
    assert abs(du - dv) <= abs(u - v) + 1e-12
    assert abs(du) <= ALPHA


def test_half_norm_values():
    assert half_norm(np.array([4.0, 0.0, 9.0])) == 5.0
    assert np.isclose(half_norm(np.array([3 + 4j])), np.sqrt(5.0))
    assert half_norm(np.zeros(3)) == 0.0


def test_half_norm_modulus_not_parts():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = complex(rng.standard_normal(), rng.standard_normal())
        if v.real == 0 or v.imag == 0:
            continue
        parts = np.sqrt(abs(v.real)) + np.sqrt(abs(v.imag))
        assert parts > np.sqrt(abs(v))


def test_loss_zero_at_truth_noiseless():
    e = synthesize_instance(8, 2, 32, FieldTag.REAL, NoiseSpec("none"), 1)
    assert loss(e.ground_truth, e, ALPHA) == 0.0


def test_loss_constant_observations():
    a = np.eye(3)
    e = MeasurementEnsemble(
        field=FieldTag.REAL, sampling_vectors=a, observations=np.ones(3)
    )
    # every residual is -1, inside the quadratic branch
    assert loss(np.zeros(3), e, ALPHA) == 0.5


def test_loss_matches_direct_summation():
    e = synthesize_instance(6, 2, 15, FieldTag.COMPLEX, NoiseSpec("type1", 0.2), 4)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    direct = (
        sum(
            float(huber(abs(np.vdot(a_i, x)) ** 2 - b_i, ALPHA))
            for a_i, b_i in zip(e.sampling_vectors, e.observations)
        )
        / e.n
    )
    assert abs(loss(x, e, ALPHA) - direct) <= 1e-14 * max(1.0, abs(direct))


def test_loss_field_mismatch():
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 2)
    with pytest.raises(ValueError):
        loss(np.zeros(4, dtype=complex), e, ALPHA)


def test_objective_at_truth_is_regularizer():
    e = synthesize_instance(8, 2, 32, FieldTag.REAL, NoiseSpec("none"), 1)
    assert np.isclose(
        objective(e.ground_truth, e, 1e-2, ALPHA), 1e-2 * half_norm(e.ground_truth)
    )


def test_objective_dominated_by_regularizer():
    e = synthesize_instance(8, 2, 32, FieldTag.REAL, NoiseSpec("type2", 0.3), 1)
    lam = 0.05
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(8)
        assert objective(x, e, lam, ALPHA) >= lam * half_norm(x)


def test_objective_coercive():
    e = synthesize_instance(8, 2, 32, FieldTag.REAL, NoiseSpec("none"), 1)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8)
    scales = [10.0, 30.0, 100.0, 300.0, 1000.0]
    values = [objective(c * x, e, 1e-2, ALPHA) for c in scales]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_surrogate_touches_objective():
    e = synthesize_instance(8, 2, 32, FieldTag.COMPLEX, NoiseSpec("type1", 0.1), 5)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.isclose(
        surrogate(x, x, e, 1e-3, ALPHA, tau=0.7), objective(x, e, 1e-3, ALPHA)
    )


def _lipschitz_bound(e, alpha, r, field):
    norms_sq = np.sum(np.abs(e.sampling_vectors) ** 2, axis=1)
    factor = 4.0 if field is FieldTag.REAL else 2.0
    return factor * np.mean((alpha + 2.0 * r**2 * norms_sq) * norms_sq)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_surrogate_majorizes_on_ball(field):
    e = synthesize_instance(6, 2, 24, field, NoiseSpec("type1", 0.1), 6)
    r = 2.0
    tau = min(1.0, 1.0 / _lipschitz_bound(e, ALPHA, r, field))
    rng = np.random.default_rng(7)
    for _ in range(100):
        if field is FieldTag.REAL:
            x, y = rng.standard_normal((2, 6))
        else:
            x, y = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        x *= r * rng.random() / np.linalg.norm(x)
        y *= r * rng.random() / np.linalg.norm(y)
        fx = objective(x, e, 1e-3, ALPHA)
        fxy = surrogate(x, y, e, 1e-3, ALPHA, tau)
        assert fx <= fxy + 1e-10 * (1.0 + abs(fxy))


def test_surrogate_collapse_when_gradient_vanishes():
    # at the noiseless ground truth g(y) = 0, so the linear term drops and
    # F_tau(x, y) = f(y) + ||x-y||^2/(2 tau) + lam * half_norm(x)
    e = synthesize_instance(6, 2, 24, FieldTag.REAL, NoiseSpec("none"), 8)
    lam = 1e-4
    y = e.ground_truth
    rng = np.random.default_rng(9)
    x = rng.standard_normal(6)
    expected = 0.5 * np.linalg.norm(x - y) ** 2 + lam * half_norm(x)
    assert np.isclose(surrogate(x, y, e, lam, ALPHA, tau=1.0), expected)


def test_surrogate_rejects_bad_tau():
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 2)
    with pytest.raises(ValueError):
        surrogate(e.ground_truth, e.ground_truth, e, 1e-3, ALPHA, tau=0.0)


def test_params_validation():
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 2)
    x = e.ground_truth
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam and alpha must be positive"):
            objective(x, e, 1e-3, bad)
        with pytest.raises(ValueError, match="lam and alpha must be positive"):
            objective(x, e, bad, ALPHA)
        with pytest.raises(ValueError, match="lam and alpha must be positive"):
            surrogate(x, x, e, 1e-3, bad, tau=1.0)
        with pytest.raises(ValueError, match="lam and alpha must be positive"):
            surrogate(x, x, e, bad, ALPHA, tau=1.0)
