"""The evaluation core: Huber loss, l_1/2 regularizer and the full objective.

The objective being minimized is

    F(x) = (1/n) sum_i h_alpha(|<a_i, x>|^2 - b_i) + lam * sum_j |x_j|^(1/2),

where h_alpha is quadratic on [-alpha, alpha] and linear outside, and the
modulus in the regularizer is the complex modulus (|Re|^(1/2) + |Im|^(1/2)
would define a different, non-equivalent problem).  F, g and each Armijo
trial of the solver go through one evaluation core, ``_evaluate``.  It
squares <a_i, x> with ``model._squared_modulus``, as ``model.measure`` does
to make b, so F is exactly 0 at a noiseless truth.
"""

from __future__ import annotations

import numpy as np

from .model import MeasurementEnsemble, _check_positive, _squared_modulus, correlate


def huber_deriv(u, alpha: float):
    """Derivative of the Huber function: u clamped to [-alpha, alpha]."""
    return np.minimum(np.maximum(u, -alpha), alpha)


def half_norm(x: np.ndarray) -> float:
    """sum_j |x_j|^(1/2) with the complex modulus."""
    return float(np.sqrt(np.abs(x)).sum())


def _evaluate(x: np.ndarray, e: MeasurementEnsemble, lam: float, alpha: float):
    """(F(x), c, d) at an already validated x, from one forward product.

    c = <a_i, x> and the clamp d = h'_alpha(|c|^2 - b) feed
    ``gradient._adjoint``, so g at the same point costs one adjoint product
    more.  The Huber sum is (d.r - d.d/2)/n with r = |c|^2 - b: d = r within
    alpha and d = +-alpha beyond it give the two branches.  With lam = 0
    the value is the loss alone.
    """
    c = correlate(e.sampling_vectors, x)
    r = _squared_modulus(c)
    r -= e.observations
    d = huber_deriv(r, alpha)
    value = float((d.dot(r) - 0.5 * d.dot(d)) / e.n)
    if lam:
        value += lam * half_norm(x)
    return value, c, d


def loss(x: np.ndarray, e: MeasurementEnsemble, alpha: float) -> float:
    """Averaged Huber loss (1/n) sum_i h_alpha(|<a_i,x>|^2 - b_i)."""
    alpha = _check_positive(alpha=alpha)
    return _evaluate(e.check_signal(x), e, 0.0, alpha)[0]


def objective(x: np.ndarray, e: MeasurementEnsemble, lam: float, alpha: float) -> float:
    """F(x) = loss + lam * half_norm."""
    lam, alpha = _check_positive(lam=lam, alpha=alpha)
    return _evaluate(e.check_signal(x), e, lam, alpha)[0]

