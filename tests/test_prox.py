import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustpr import half_threshold, threshold_point
from robustpr.objective import half_norm
from robustpr.prox import _half_threshold

from oracles import chi, chi_oracle


def test_threshold_point_constant():
    assert np.isclose(threshold_point(1.0), 0.9449412, atol=1e-6)
    with pytest.raises(ValueError):
        threshold_point(0.0)


def test_threshold_point_error_does_not_grow_with_log_mu():
    # tbar = (54^(1/3)/4) cbrt(mu)^2 against 60-digit values: cbrt's error
    # counts twice through the square, plus the roundings of the square, the
    # constant and the product, whatever mu is (at most 3.56 ulp over 30000
    # log-uniform weights).  mu ** (2/3) carries fl(2/3)'s error times
    # |ln mu|: 5.4 ulp at 1e-12, 234 at the least subnormal.
    context = decimal.Context(prec=60)
    worst = 0.0
    for mu in [5e-324, 1e-320, 2.2250738585072014e-308, *np.logspace(-300, 300, 61),
               2e-3, 1.7976931348623157e308]:
        exact = context.divide(context.power(
            context.multiply(54, decimal.Decimal(mu) ** 2), context.divide(1, 3)), 4)
        tbar = threshold_point(float(mu))
        worst = max(worst, abs(float((decimal.Decimal(tbar) - exact)
                                     / decimal.Decimal(math.ulp(tbar)))))
    assert worst <= 4.0


@pytest.mark.parametrize("mu", [0.0, -1.0, float("nan"), float("inf"),
                                pytest.param(10**400, id="10**400")])
def test_nonpositive_or_nonfinite_weight_is_rejected(mu):
    message = f"^mu must be finite and positive, got {mu}$"
    with pytest.raises(ValueError, match=message):
        threshold_point(mu)
    with pytest.raises(ValueError, match=message):
        half_threshold(np.ones(3), mu)
    with pytest.raises(ValueError):
        chi(1.0, mu)


def _gather_body(xi, mu, neg_z):
    """A gather and scatter body of the kept set with the scale
    (2/3)(1 + cos((2/3) arccos(neg_z(|t|)))), a complex t scaled by its real
    and imaginary parts apart."""
    tbar = threshold_point(mu)
    xi = np.asarray(xi)
    if not np.iscomplexobj(xi):
        xi = xi.astype(np.float64, copy=False)
    keep = np.abs(xi) > tbar
    out = np.zeros_like(xi)
    if np.any(keep):
        t = xi[keep]
        scale = (2.0 / 3.0) * (1.0 + np.cos((2.0 / 3.0) * np.arccos(neg_z(np.abs(t)))))
        if np.iscomplexobj(t):
            out.real[keep] = t.real * scale
            out.imag[keep] = t.imag * scale
        else:
            out[keep] = t * scale
    return out


def _half_threshold_reference(xi, mu):
    """The gather body with -z = -((3/4) cbrt(mu)^2 / |t|)^(3/2)."""
    return _gather_body(xi, mu, lambda m: -((0.75 * np.cbrt(mu) ** 2 / m) ** 1.5))


def _half_threshold_power_reference(xi, mu):
    """The gather body of the form before the ratio: -z as
    -(3^(3/2)/8) mu |t|^(-3/2), capped at -1, which |t|^(-3/2) overflowing
    near tbar reaches at subnormal mu."""
    return _gather_body(
        xi, mu, lambda m: np.maximum(-(3.0**1.5 / 8.0) * mu * m ** -1.5, -1.0))


def _half_threshold_cosine_reference(xi, mu):
    """The gather body of the cosine form 2pi/3 - (2/3) arccos(z) with
    z = (mu/8)(|t|/3)^(-3/2), before the scale was rewritten with arccos(-z)."""
    tbar = threshold_point(mu)
    xi = np.asarray(xi)
    if not np.iscomplexobj(xi):
        xi = xi.astype(np.float64, copy=False)
    mag = np.abs(xi)
    keep = mag > tbar
    out = np.zeros_like(xi)
    if np.any(keep):
        t = xi[keep]
        arg = np.clip((mu / 8.0) * (np.abs(t) / 3.0) ** (-1.5), 0.0, 1.0)
        phi = (2.0 / 3.0) * np.arccos(arg)
        factor = 1.0 + np.cos(2.0 * np.pi / 3.0 - phi)
        if np.iscomplexobj(t):
            out.real[keep] = (2.0 / 3.0) * t.real * factor
            out.imag[keep] = (2.0 / 3.0) * t.imag * factor
        else:
            out[keep] = (2.0 / 3.0) * t * factor
    return out


def _caught(fn, *args):
    """fn(*args) and the set of warning messages it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {str(w.message) for w in caught}


# entries the solver never feeds the prox but a caller may: signed zeros, the
# smallest subnormal, a tiny normal, NaN (dropped: NaN > tbar is False) and
# +-inf (kept).
EDGES = [0.0, -0.0, 5e-324, 1e-250, np.nan, np.inf, -np.inf]


def _grid(complex_field, rng):
    """(mu, xi) rows: mu from 1e-12 to 10 and two subnormal-range weights;
    each xi has zeros, +-tbar and its neighbours, and EDGES.

    mu = 1e-310 and 5e-324 give tbar ~ 2e-207 and ~ 3e-216, where
    tbar ** -1.5 overflows: the older forms lost the scale of a kept entry
    that close to tbar, and the dense body evaluates every dropped entry at
    tbar, so it must not overflow there."""
    for mu in np.append(np.logspace(-12, 1, 27), [1e-310, 5e-324]):
        tbar = threshold_point(mu)
        xi = rng.standard_normal(64) * rng.choice([tbar, 1.0, 10.0], 64)
        if complex_field:
            xi = xi + 1j * rng.standard_normal(64) * tbar
        xi[:4] = 0.0
        xi[4:8] = [tbar, -tbar, np.nextafter(tbar, np.inf), -np.nextafter(tbar, 0)]
        xi[8:8 + len(EDGES)] = EDGES
        yield mu, xi


@pytest.mark.parametrize("complex_field", [False, True])
def test_half_threshold_is_bitwise_the_reference_body(complex_field):
    rng = np.random.default_rng(25)
    for mu, xi in _grid(complex_field, rng):
        (got, new), (want, old) = (
            _caught(f, xi, mu) for f in (half_threshold, _half_threshold_reference))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert new <= old
    # rows with nothing kept: zeros, and entries at or below the threshold
    for mu in (1e-3, 10.0, 1e-310):
        tbar = threshold_point(mu)
        below = rng.uniform(-tbar, tbar, 64).astype(xi.dtype)
        below[:2] = [tbar, -tbar]
        below[2:5] = [-0.0, 5e-324, np.nan]
        for row in (np.zeros(64, dtype=xi.dtype), below):
            (got, new), (want, old) = (
                _caught(f, row, mu) for f in (half_threshold, _half_threshold_reference))
            assert got.tobytes() == want.tobytes()
            assert new <= old
            assert not got.any()
    # the dense body's zeros are +0.0, never the -0.0 a 0/1 mask would write
    assert not np.signbit(half_threshold(np.array([-0.0, -1e-9]), 1.0)).any()
    # the body takes one scalar weight: a column of weights is refused
    with pytest.raises(ValueError):
        _half_threshold(np.ones((2, 3)), np.full((2, 1), 1e-3))


def _assert_within_ulps_of(older, complex_field):
    """The body against an older gather body on the grid: kept entries move
    by at most 4 eps relative, zeros and infinities agree exactly.  Where
    (|t|/3)^(-3/2) overflows (subnormal mu, |t| near tbar) the older forms
    lost the scale, and the body need only stay finite there."""
    eps = np.finfo(np.float64).eps
    for mu, xi in _grid(complex_field, np.random.default_rng(25)):
        got, want = (_caught(f, xi, mu)[0] for f in (half_threshold, older))
        with np.errstate(over="ignore", divide="ignore"):
            lost = (np.abs(xi) > threshold_point(mu)) & np.isinf(
                (np.abs(xi) / 3.0) ** -1.5)
        assert not lost.any() or mu < 1e-300
        for part in ("real", "imag") if complex_field else ("real",):
            g, w, x = (getattr(v, part) for v in (got, want, xi))
            assert np.isfinite(g[lost & np.isfinite(x)]).all()
            exact = ((w == 0) | np.isinf(w)) & ~lost
            assert np.array_equal(g[exact], w[exact])
            near = ~(exact | np.isnan(w) | lost)
            assert np.all(np.abs(g[near] - w[near]) <= 4 * eps * np.abs(w[near]))


@pytest.mark.parametrize("complex_field", [False, True])
def test_half_threshold_stays_within_ulps_of_the_cosine_form(complex_field):
    # measured at most 2.9 eps relative on this grid
    _assert_within_ulps_of(_half_threshold_cosine_reference, complex_field)


@pytest.mark.parametrize("complex_field", [False, True])
def test_half_threshold_stays_within_ulps_of_the_power_form(complex_field):
    # the ratio form moves kept entries by at most 3.8 eps relative on this
    # grid; against 200-bit values on the real grid the ratio form is within
    # 2.0 eps and the power form within 1.8 eps
    _assert_within_ulps_of(_half_threshold_power_reference, complex_field)


@pytest.mark.parametrize("mu", [1e-310, 5e-324])
def test_half_threshold_keeps_its_scale_at_subnormal_weights(mu):
    # chi(t, mu) / t depends on t / tbar alone.  The power form's |t| ** -1.5
    # overflowed near tbar at these weights, and its cap read 1/3 for the
    # scale 0.8382 at t = 1.5 tbar
    ratios = np.array([1.0 + 1e-12, 1.5, 3.0, 1e3])
    t = ratios * threshold_point(1e-3)
    want = half_threshold(t, 1e-3) / t
    t = ratios * threshold_point(mu)
    got, caught = _caught(half_threshold, t, mu)
    assert not caught
    assert np.allclose(got / t, want, rtol=1e-12, atol=0.0)
    assert abs(got[1] / t[1] - 0.8381819) <= 1e-7


def test_complex_infinities_keep_their_other_part():
    # a complex product (2/3) * xi would meet inf * 0 and give nan+nanj, and
    # would turn the -0.0 part into +0.0
    xi = np.array([np.inf + 0j, -np.inf + 2j, complex(-0.0, -np.inf), 3.0 + 0j])
    want = np.array([np.inf + 0j, -np.inf + 2j, complex(-0.0, -np.inf), 0j])
    for body in (half_threshold, _half_threshold_reference,
                 _half_threshold_power_reference, _half_threshold_cosine_reference):
        got, caught = _caught(body, xi, 10.0)
        assert not caught
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [5.0, -2.5 + 4.0j, 1e-3])
def test_half_threshold_of_a_0d_input_is_the_1_element_call(t):
    # np.abs of a 0-d array is a scalar, which the body's in-place maximum
    # cannot write into; a 0-d input goes through a 1-element view
    want = half_threshold(np.array([t]), 0.5)
    for xi in (np.array(t), t):
        got = half_threshold(xi, 0.5)
        assert got.shape == ()
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_chi_below_threshold():
    assert chi(0.5, 1.0) == 0.0


def test_chi_regression_value():
    # frozen from chi_oracle(2.0, 1.0, 1e-6) on first run
    assert abs(chi(2.0, 1.0) - 1.8144018) <= 1e-5


def test_chi_complex_phase_preserved():
    value = chi(2j, 1.0)
    assert abs(abs(value) - 1.8144018) <= 1e-5
    assert np.isclose(np.angle(value), np.pi / 2)


def test_chi_boundary_tie_maps_to_zero():
    for mu in (0.3, 1.0, 2.5):
        tbar = threshold_point(mu)
        assert chi(tbar, mu) == 0.0
        assert chi(0.999 * tbar, mu) == 0.0
        assert chi(1.001 * tbar, mu) != 0.0


def test_half_threshold_zero_and_full_threshold():
    assert not half_threshold(np.zeros(5), 1.0).any()
    tbar = threshold_point(1.0)
    xi = np.array([0.1, -0.5, 0.9 * tbar, -tbar])
    assert not half_threshold(xi, 1.0).any()


def test_half_threshold_is_global_minimizer_vs_grid():
    # separable problem: check coordinatewise against a dense 1-D grid
    rng = np.random.default_rng(20)
    for trial in range(5):
        mu = float(rng.uniform(0.2, 2.0))
        xi = rng.standard_normal(4) * 2.0
        out = half_threshold(xi, mu)
        value = float(np.sum((out - xi) ** 2)) + mu * half_norm(out)
        for j in range(4):
            grid = np.linspace(-2 * abs(xi[j]) - 1, 2 * abs(xi[j]) + 1, 20001)
            vals = (grid - xi[j]) ** 2 + mu * np.sqrt(np.abs(grid))
            best = np.min(vals)
            own = (out[j] - xi[j]) ** 2 + mu * np.sqrt(abs(out[j]))
            assert own <= best + 1e-6


def test_chi_oracle_zero():
    assert chi_oracle(0.0, 1.0, 1e-6) == 0.0


def test_chi_oracle_regression():
    v = chi_oracle(2.0, 1.0, 1e-6)
    assert abs(v - 1.8144018) <= 2e-6


def test_chi_oracle_agreement_sweep():
    rng = np.random.default_rng(21)
    for _ in range(100):
        mu = float(rng.uniform(0.05, 2.0))
        if rng.random() < 0.5:
            t = float(rng.uniform(-4.0, 4.0))
        else:
            t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert abs(chi(t, mu) - chi_oracle(t, mu, 1e-5)) <= 10 * 1e-5


@settings(max_examples=50)
@given(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False),
)
def test_chi_phase_equivariance(t, mu, theta):
    rotated = chi(t * np.exp(1j * theta), mu)
    straight = chi(complex(t), mu) * np.exp(1j * theta)
    assert abs(rotated - straight) <= 1e-9 * (1.0 + abs(straight))


def test_half_threshold_scaling_bound():
    rng = np.random.default_rng(22)
    for _ in range(50):
        xi = rng.standard_normal(8) * rng.uniform(0.1, 5.0)
        mu = float(rng.uniform(0.05, 3.0))
        out = half_threshold(xi, mu)
        assert np.linalg.norm(out) <= (4.0 / 3.0) * np.linalg.norm(xi) + 1e-12


def test_chi_shrinks_and_keeps_sign():
    rng = np.random.default_rng(23)
    for _ in range(100):
        mu = float(rng.uniform(0.05, 2.0))
        t = float(rng.uniform(-5, 5))
        v = float(chi(t, mu))
        if v != 0.0:
            assert np.sign(v) == np.sign(t)
            assert abs(v) < abs(t)


def test_hard_threshold_region_exact():
    rng = np.random.default_rng(24)
    for _ in range(200):
        mu = float(rng.uniform(0.05, 2.0))
        t = float(rng.uniform(-3, 3))
        tbar = threshold_point(mu)
        assert (chi(t, mu) == 0.0) == (abs(t) <= tbar)
