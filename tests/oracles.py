"""Reference implementations the tests check the package against.

None of these run when solving: they are the brute-force prox, the
finite-difference gradient, the realified forms, the MM surrogate and the
realified rate-certificate curvature that the acceptance criteria and unit
tests compare ``half_threshold``, ``g``, ``objective`` and
``diagnostics._complex_terms`` with, the elementwise Huber function
whose sum the evaluation core forms from two dot products, and the solver's
Rayleigh trial step from the public forward product.

Complex problems can be rewritten over R^(2p) via xt = [Re x; Im x]:
|<a_i, x>|^2 = xt^T A_i xt with A_i = phi phi^T + psi psi^T, where
phi = [Re a_i; Im a_i] and psi = [-Im a_i; Re a_i].  The gradient of the
realified loss is then 2 [Re g(x); Im g(x)].
"""

from __future__ import annotations

import numpy as np

from robustpr import (
    FieldTag,
    MeasurementEnsemble,
    g,
    half_threshold,
    huber_deriv,
    loss,
)
from robustpr.gradient import _adjoint
from robustpr.model import correlate
from robustpr.objective import _evaluate, half_norm
from robustpr.solver import TAU_MIN


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


def chi(t, mu: float):
    """Scalar half-thresholding; see half_threshold."""
    return half_threshold(np.asarray([t]), mu)[0]


def chi_oracle(t, mu: float, grid_step: float):
    """Brute-force minimizer of |v - t|^2 + mu |v|^(1/2) on a radial grid.

    The objective depends on v only through |v| and Re(conj(v) t), which is
    maximized at phase alignment, so the search reduces to v = r * t/|t| with
    r in [0, 2|t|].  The grid is refined coarse-to-fine: every local minimum
    of each pass is re-examined at a finer spacing until the spacing drops
    below grid_step, which is equivalent to the full grid at that resolution.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    mag = float(np.abs(t))
    if mag == 0.0:
        return 0.0 * t
    hi = 2.0 * mag
    windows = [(0.0, hi)]
    step = hi / 20000.0
    best_r = 0.0
    while True:
        step = max(step, grid_step)
        candidates = []
        for lo, up in windows:
            lo = max(lo, 0.0)
            up = min(up, hi)
            npts = max(int(np.ceil((up - lo) / step)) + 1, 3)
            r = np.linspace(lo, up, npts)
            vals = (r - mag) ** 2 + mu * np.sqrt(r)
            interior = np.where(
                (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
            )[0]
            idx = set(interior + 1) | {0, npts - 1}
            candidates.extend((vals[i], r[i]) for i in idx)
        candidates.sort()
        best_r = candidates[0][1]
        if step <= grid_step:
            break
        next_step = max(step / 64.0, grid_step)
        windows = [(r - step, r + step) for _, r in candidates[:8]]
        step = next_step
    return best_r * (t / mag)


def rayleigh_step(x: np.ndarray, e: MeasurementEnsemble) -> float:
    """The solver's trial step at x when no Barzilai-Borwein step applies:
    1 / rho(x), with rho(x) = (1/n) sum_i b_i |<a_i, x>|^2 / ||x||^2 the
    Rayleigh quotient of Y = (1/n) sum_i b_i a_i a_i^H at x; 1 / TAU_MIN when
    rho(x) <= 0, x = 0 or 1 / rho / TAU_MIN is not finite."""
    norm = float(np.linalg.norm(x))
    energy = float(np.dot(e.observations, np.abs(correlate(e.sampling_vectors, x)) ** 2))
    rho = energy / e.n / norm / norm if norm else 0.0
    return 1.0 / rho if rho > 0.0 and np.isfinite(1.0 / rho / TAU_MIN) else 1.0 / TAU_MIN


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


def fd_loss_gradient(x: np.ndarray, e: MeasurementEnsemble, alpha: float) -> np.ndarray:
    """Central finite differences of the loss.

    Real field: returns the gradient of f in R^p.  Complex field: returns
    the gradient of the realified loss in R^(2p).  Relative step
    1e-6 * (1 + ||x||).
    """
    step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    if e.field is FieldTag.REAL:
        v, func = x, lambda u: loss(u, e, alpha)
    else:
        v, func = realify(x), lambda u: loss(unrealify(u), e, alpha)
    grad = np.zeros_like(v, dtype=np.float64)
    for j in range(v.shape[0]):
        vp = v.copy()
        vm = v.copy()
        vp[j] += step
        vm[j] -= step
        grad[j] = (func(vp) - func(vm)) / (2.0 * step)
    return grad


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
    It evaluates f(y) and g(y) through the solver's evaluation core.
    """
    if not (0.0 < lam < np.inf and 0.0 < alpha < np.inf):
        raise ValueError("lam and alpha must be positive")
    if not 0.0 < tau < np.inf:
        raise ValueError("surrogate step tau must be positive and finite")
    x = e.check_signal(x)
    y = e.check_signal(y)
    d = x - y
    f_y, c, clamp = _evaluate(y, e, 0.0, alpha)
    lin = 2.0 * float(np.real(np.vdot(_adjoint(e, c, clamp), d)))
    return (
        f_y
        + lin
        + float(np.vdot(d, d).real) / (2.0 * tau)
        + lam * half_norm(x)
    )


def realified_curvature(a_s, c, r, inliers, e):
    """Realified curvature M over the inliers and per-row norms, complex field.

    Three real n x 2|S| Gram products over the phi/psi/q copies of the rows;
    ``diagnostics._complex_terms`` builds the same M from two complex ones.
    """
    # phi/psi restricted to the realified support; phi and psi stay orthogonal
    # with equal norms after restriction, which gives the closed-form norms.
    phi = np.concatenate([np.real(a_s), np.imag(a_s)], axis=1)
    psi = np.concatenate([-np.imag(a_s), np.real(a_s)], axis=1)
    q = np.real(c)[:, None] * phi + np.imag(c)[:, None] * psi
    q_in, phi_in, psi_in = q[inliers], phi[inliers], psi[inliers]
    r_in = r[inliers]
    m = (
        2.0 * q_in.T @ q_in
        + (phi_in.T * r_in) @ phi_in
        + (psi_in.T * r_in) @ psi_in
    ) / e.n
    # Restricted H_i has rank <= 2 with eigenvalues (rho^2/n)*{2|c|^2 + r, r},
    # rho^2 = sum_{j in support} |a_ij|^2.
    rho_sq = np.sum(np.abs(a_s) ** 2, axis=1)
    eig_a = np.abs(2.0 * np.abs(c) ** 2 + r)
    eig_b = np.abs(r)
    norms = rho_sq * np.maximum(eig_a, eig_b) / e.n
    return m, norms
