"""Gradient-like map g, realified gradients and quadratic forms.

With the inner product <a, x> = a^H x used throughout, the map

    g(x) = (1/n) sum_i h'_alpha(|<a_i,x>|^2 - b_i) <a_i,x> a_i

satisfies grad f(x) = 2 g(x) in the real field, and is the Wirtinger
gradient of f in the complex field, so f(x) - f(y) ~ 2 Re<g(y), x-y>.
The central finite-difference oracle below is the ground truth the
conjugation bookkeeping is tested against.

Complex problems can be rewritten over R^(2p) via xt = [Re x; Im x]:
|<a_i, x>|^2 = xt^T A_i xt with A_i = phi phi^T + psi psi^T, where
phi = [Re a_i; Im a_i] and psi = [-Im a_i; Re a_i].  The gradient of the
realified loss is then 2 [Re g(x); Im g(x)].
"""

from __future__ import annotations

import numpy as np

from .model import FieldTag, MeasurementEnsemble, correlate
from .objective import huber_deriv, loss


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


def realify(x: np.ndarray) -> np.ndarray:
    """Stack a complex vector as [Re(x); Im(x)]."""
    return np.concatenate([np.real(x), np.imag(x)]).astype(np.float64)


def unrealify(v: np.ndarray) -> np.ndarray:
    """Inverse of realify."""
    if v.shape[0] % 2:
        raise ValueError("realified vector must have even length")
    p = v.shape[0] // 2
    return v[:p] + 1j * v[p:]


def realify_gradient(x: np.ndarray, e: MeasurementEnsemble, alpha: float) -> np.ndarray:
    """Gradient of the realified loss ft(xt) = f(x) at xt = [Re x; Im x]."""
    if e.field is not FieldTag.COMPLEX:
        raise ValueError("realify_gradient is defined for complex ensembles")
    gx = g(x, e, alpha)
    return 2.0 * realify(gx)


def realify_quadratic(a_i: np.ndarray) -> np.ndarray:
    """Symmetric 2p x 2p matrix A with xt^T A xt = |<a_i, x>|^2 for all x."""
    a_i = np.asarray(a_i, dtype=np.complex128)
    phi = np.concatenate([np.real(a_i), np.imag(a_i)])
    psi = np.concatenate([-np.imag(a_i), np.real(a_i)])
    return np.outer(phi, phi) + np.outer(psi, psi)


def finite_difference_gradient(func, v: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function of a real vector."""
    grad = np.zeros_like(v, dtype=np.float64)
    for j in range(v.shape[0]):
        vp = v.copy()
        vm = v.copy()
        vp[j] += step
        vm[j] -= step
        grad[j] = (func(vp) - func(vm)) / (2.0 * step)
    return grad


def fd_loss_gradient(x: np.ndarray, e: MeasurementEnsemble, alpha: float) -> np.ndarray:
    """Finite-difference oracle for the loss gradient.

    Real field: returns the gradient of f in R^p.  Complex field: returns
    the gradient of the realified loss in R^(2p).  Relative step
    1e-6 * (1 + ||x||).
    """
    step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    if e.field is FieldTag.REAL:
        return finite_difference_gradient(lambda v: loss(v, e, alpha), x, step)
    xt = realify(x)
    return finite_difference_gradient(
        lambda v: loss(unrealify(v), e, alpha), xt, step
    )
