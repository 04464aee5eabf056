"""Huber loss, l_1/2 regularizer and the full objective.

The objective being minimized is

    F(x) = (1/n) sum_i h_alpha(|<a_i, x>|^2 - b_i) + lam * sum_j |x_j|^(1/2),

where h_alpha is quadratic on [-alpha, alpha] and linear outside, and the
modulus in the regularizer is the complex modulus (|Re|^(1/2) + |Im|^(1/2)
would define a different, non-equivalent problem).
"""

from __future__ import annotations

import numpy as np

from .model import MeasurementEnsemble, correlate


def huber(u, alpha: float):
    """Huber function: u^2/2 for |u| <= alpha, alpha*|u| - alpha^2/2 beyond."""
    u = np.asarray(u, dtype=np.float64)
    # one clamp d: beyond alpha, d = +-alpha gives alpha|u| - alpha^2/2; within
    # it, d = u and u^2 - u^2/2 is exact (Sterbenz), so both branches give the
    # two-branch values bit for bit, except by one ulp where u^2 is subnormal
    d = huber_deriv(u, alpha)
    h = d * u
    h -= (0.5 * d) * d
    return h


def huber_deriv(u, alpha: float):
    """Derivative of the Huber function: u clamped to [-alpha, alpha]."""
    return np.minimum(np.maximum(u, -alpha), alpha)


def half_norm(x: np.ndarray) -> float:
    """sum_j |x_j|^(1/2) with the complex modulus."""
    return float(np.sqrt(np.abs(x)).sum())


def _evaluate(x: np.ndarray, e: MeasurementEnsemble, lam: float, alpha: float):
    """(F(x), c, r) at an already validated x, from one forward product.

    c = <a_i, x> and r = |c|^2 - b feed ``gradient._adjoint``, so g at the
    same point costs one adjoint product more.  With lam = 0 the value is the
    loss alone.
    """
    c = correlate(e.sampling_vectors, x)
    r = np.abs(c) ** 2 - e.observations
    value = float(huber(r, alpha).sum() / e.n)
    if lam:
        value += lam * half_norm(x)
    return value, c, r


def loss(x: np.ndarray, e: MeasurementEnsemble, alpha: float) -> float:
    """Averaged Huber loss (1/n) sum_i h_alpha(|<a_i,x>|^2 - b_i)."""
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive")
    return _evaluate(e.check_signal(x), e, 0.0, alpha)[0]


def objective(x: np.ndarray, e: MeasurementEnsemble, lam: float, alpha: float) -> float:
    """F(x) = loss + lam * half_norm."""
    # chained comparisons reject NaN and inf as well as nonpositive values
    if not (0.0 < lam < np.inf and 0.0 < alpha < np.inf):
        raise ValueError("lam and alpha must be positive")
    return _evaluate(e.check_signal(x), e, lam, alpha)[0]

