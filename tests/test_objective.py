import numpy as np
import pytest
from hypothesis import given, strategies as st

from robustpr import (
    FieldTag,
    NoiseSpec,
    fixed_point_residual,
    g,
    half_norm,
    huber_deriv,
    linear_rate_certificate,
    loss,
    objective,
    synthesize_instance,
)
from robustpr.model import MeasurementEnsemble, correlate

from oracles import huber, surrogate

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


def _huber_reference(u, alpha):
    """The two-branch huber body before the value came from one clamp."""
    u = np.asarray(u, dtype=np.float64)
    absu = np.abs(u)
    return np.where(absu <= alpha, 0.5 * u**2, alpha * absu - 0.5 * alpha**2)


# below this |u|, u^2 is subnormal and fl(u^2) - fl(0.5 u^2) may round once
SUBNORMAL_SQUARE = 2.0**-511


@pytest.mark.parametrize("alpha", [ALPHA, 0.1 * ALPHA, 1e-3, 1e6])
def test_huber_is_bitwise_the_reference_body(alpha):
    edges = [alpha, np.nextafter(alpha, 0), np.nextafter(alpha, np.inf), 0.0, np.inf]
    u = np.array(edges + [-v for v in edges] + [np.nan])
    assert huber(u, alpha).tobytes() == _huber_reference(u, alpha).tobytes()
    rng = np.random.default_rng(26)
    u = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-150, 150, 20000)
    assert np.abs(u).min() >= SUBNORMAL_SQUARE
    assert huber(u, alpha).tobytes() == _huber_reference(u, alpha).tobytes()
    tiny = rng.choice([-1.0, 1.0], 2000) * SUBNORMAL_SQUARE * rng.uniform(0, 1, 2000)
    gap = np.abs(huber(tiny, alpha) - _huber_reference(tiny, alpha))
    assert gap.max() <= np.finfo(np.float64).smallest_subnormal


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


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("p, s, n", [(8, 2, 32), (16, 3, 96), (5, 5, 40)])
@pytest.mark.parametrize("field", list(FieldTag), ids=lambda f: f.value)
def test_loss_zero_at_truth_noiseless(field, p, s, n, seed):
    # every residual is exactly 0: b and r square <a_i, x> in one function,
    # model._squared_modulus, so the loss, g and the boundary band vanish
    e = synthesize_instance(p, s, n, field, NoiseSpec("none"), seed)
    x = e.ground_truth
    assert loss(x, e, ALPHA) == 0.0
    assert np.all(g(x, e, ALPHA) == 0.0)
    cert = linear_rate_certificate(x, e, 1e-3, ALPHA)
    assert (cert.rhs_boundary_norms, cert.n_boundary) == (0.0, 0)


def test_loss_constant_observations():
    a = np.eye(3)
    e = MeasurementEnsemble(
        sampling_vectors=a, observations=np.ones(3)
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


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
@pytest.mark.parametrize("noise", [NoiseSpec("none"), NoiseSpec("type3", 0.1)])
def test_loss_is_the_huber_sum_within_a_few_ulp_per_term(field, noise):
    # the core forms sum h(r) as d.r - d.d/2 from two dot products; both dots
    # sum nonnegative terms, each at most 2 sum h, so the gap is O(n eps sum h)
    e = synthesize_instance(24, 3, 192, field, noise, 27)
    rng = np.random.default_rng(27)
    eps = np.finfo(np.float64).eps
    for _ in range(5):
        x = e.ground_truth + 0.3 * rng.standard_normal(24)
        if field is FieldTag.COMPLEX:
            x += 0.3j * rng.standard_normal(24)
        r = np.abs(correlate(e.sampling_vectors, x)) ** 2 - e.observations
        # alpha equal to a residual of either sign puts r = +alpha and
        # r = -alpha exactly on the seam of the two branches
        for alpha in (ALPHA, 0.1 * ALPHA, r[r > 0][0], -r[r < 0][0]):
            want = float(huber(r, alpha).sum() / e.n)
            assert abs(loss(x, e, alpha) - want) <= 4 * e.n * eps * want


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


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_surrogate_rejects_nonpositive_or_nonfinite_tau(tau):
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 2)
    with pytest.raises(ValueError, match="tau"):
        surrogate(e.ground_truth, e.ground_truth, e, 1e-3, ALPHA, tau=tau)


def test_params_validation():
    e = synthesize_instance(4, 1, 8, FieldTag.REAL, NoiseSpec("none"), 2)
    x = e.ground_truth
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match=f"^alpha must be finite and positive, got {bad}$"):
            objective(x, e, 1e-3, bad)
        with pytest.raises(ValueError,
                           match=f"^lam must be finite and positive, got {bad}$"):
            objective(x, e, bad, ALPHA)
        with pytest.raises(ValueError, match="lam and alpha must be positive"):
            surrogate(x, x, e, 1e-3, bad, tau=1.0)
        with pytest.raises(ValueError, match="lam and alpha must be positive"):
            surrogate(x, x, e, bad, ALPHA, tau=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluations_refuse_a_non_finite_signal(bad):
    e = synthesize_instance(8, 2, 40, FieldTag.REAL, NoiseSpec("none"), 1)
    x = e.ground_truth.copy()
    x[0] = bad
    for evaluate in (lambda: objective(x, e, 1e-3, ALPHA), lambda: loss(x, e, ALPHA),
                     lambda: g(x, e, ALPHA),
                     lambda: fixed_point_residual(x, e, 1e-3, ALPHA, tau=1.0)):
        with pytest.raises(ValueError, match="^signal contains non-finite entries$"):
            evaluate()


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_loss_and_g_reject_bad_alpha(alpha):
    e = synthesize_instance(8, 2, 40, FieldTag.REAL, NoiseSpec("none"), 1)
    x = e.ground_truth
    message = f"^alpha must be finite and positive, got {alpha}$"
    with pytest.raises(ValueError, match=message):
        loss(x, e, alpha)
    with pytest.raises(ValueError, match=message):
        g(x, e, alpha)
    with pytest.raises(ValueError, match=message):
        fixed_point_residual(x, e, 1e-3, alpha, tau=1.0)
