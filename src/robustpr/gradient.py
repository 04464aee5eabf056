"""Gradient-like map g and its adjoint half from the evaluation core.

With the inner product <a, x> = a^H x used throughout, the map

    g(x) = (1/n) sum_i h'_alpha(|<a_i,x>|^2 - b_i) <a_i,x> a_i

satisfies grad f(x) = 2 g(x) in the real field, and is the Wirtinger
gradient of f in the complex field, so f(x) - f(y) ~ 2 Re<g(y), x-y>.
g, like the solver, runs ``objective._evaluate`` and then ``_adjoint``,
which weights the rows by the core's clamp h'_alpha instead of clamping again.
"""

from __future__ import annotations

import numpy as np

from .model import MeasurementEnsemble, _check_positive
from .model import correlate  # unused here; benchmarks/tracing.py binds it
from .objective import _evaluate


def g(x: np.ndarray, e: MeasurementEnsemble, alpha: float) -> np.ndarray:
    """Unified gradient map; see module docstring for conventions."""
    alpha = _check_positive(alpha=alpha)
    _, c, d = _evaluate(e.check_signal(x), e, 0.0, alpha)
    return _adjoint(e, c, d)


def _adjoint(e: MeasurementEnsemble, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(1/n) sum_i d_i c_i a_i: g at c = <a_i, x>, d = h'_alpha(|c|^2 - b) from
    ``objective._evaluate``, and the spectral Y v at c = <a_i, v>, d = b."""
    return e.sampling_vectors.T @ (d * c) / e.n
