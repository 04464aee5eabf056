"""Huber loss, l_1/2 regularizer, full objective and the MM surrogate.

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
    absu = np.abs(u)
    return np.where(absu <= alpha, 0.5 * u**2, alpha * absu - 0.5 * alpha**2)


def huber_deriv(u, alpha: float):
    """Derivative of the Huber function: u clamped to [-alpha, alpha]."""
    return np.clip(u, -alpha, alpha)


def half_norm(x: np.ndarray) -> float:
    """sum_j |x_j|^(1/2) with the complex modulus."""
    return float(np.sum(np.sqrt(np.abs(x))))


def residuals(x: np.ndarray, e: MeasurementEnsemble) -> np.ndarray:
    """|<a_i, x>|^2 - b_i for all measurements."""
    c = correlate(e.sampling_vectors, x)
    return np.abs(c) ** 2 - e.observations


def loss(x: np.ndarray, e: MeasurementEnsemble, alpha: float) -> float:
    """Averaged Huber loss (1/n) sum_i h_alpha(|<a_i,x>|^2 - b_i)."""
    x = e.check_signal(x)
    return float(np.mean(huber(residuals(x, e), alpha)))


def objective(x: np.ndarray, e: MeasurementEnsemble, lam: float, alpha: float) -> float:
    """F(x) = loss + lam * half_norm."""
    # chained comparisons reject NaN and inf as well as nonpositive values
    if not (0.0 < lam < np.inf and 0.0 < alpha < np.inf):
        raise ValueError("lam and alpha must be positive")
    return loss(x, e, alpha) + lam * half_norm(x)


def surrogate(
    x: np.ndarray,
    y: np.ndarray,
    e: MeasurementEnsemble,
    lam: float,
    alpha: float,
    tau: float,
) -> float:
    """MM surrogate around y.

    F_tau(x, y) = f(y) + 2 Re<g(y), x - y> + ||x - y||^2 / (2 tau)
                  + lam * half_norm(x),

    which touches F at x = y and majorizes F on a ball once tau <= 1/L.
    """
    from .gradient import g as gradient_map

    if not (0.0 < lam < np.inf and 0.0 < alpha < np.inf):
        raise ValueError("lam and alpha must be positive")
    if tau <= 0:
        raise ValueError("surrogate step tau must be positive")
    x = e.check_signal(x)
    y = e.check_signal(y)
    d = x - y
    gy = gradient_map(y, e, alpha)
    lin = 2.0 * float(np.real(np.vdot(gy, d)))
    return (
        loss(y, e, alpha)
        + lin
        + float(np.vdot(d, d).real) / (2.0 * tau)
        + lam * half_norm(x)
    )
