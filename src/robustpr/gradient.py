"""Gradient-like map g and its adjoint half from the evaluation core.

With the inner product <a, x> = a^H x used throughout, the map

    g(x) = (1/n) sum_i h'_alpha(|<a_i,x>|^2 - b_i) <a_i,x> a_i

satisfies grad f(x) = 2 g(x) in the real field, and is the Wirtinger
gradient of f in the complex field, so f(x) - f(y) ~ 2 Re<g(y), x-y>.
"""

from __future__ import annotations

import numpy as np

from .model import MeasurementEnsemble, correlate
from .objective import huber_deriv


def g(x: np.ndarray, e: MeasurementEnsemble, alpha: float) -> np.ndarray:
    """Unified gradient map; see module docstring for conventions."""
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive")
    x = e.check_signal(x)
    c = correlate(e.sampling_vectors, x)
    return _adjoint(e, c, np.abs(c) ** 2 - e.observations, alpha)


def _adjoint(
    e: MeasurementEnsemble, c: np.ndarray, r: np.ndarray, alpha: float
) -> np.ndarray:
    """g from c = <a_i, x> and r = |c|^2 - b: one adjoint product, no forward one."""
    return e.sampling_vectors.T @ (huber_deriv(r, alpha) * c) / e.n

