"""Numerical checks of the optimality and rate theory at a computed solution.

Three groups of checks:

* ``estimate_stability`` -- the parameter conditions behind estimator
  consistency that do not depend on the stability constants C1 and C2
  (real field only), in closed form from n, p and the truth: t_n and
  p log(n)/n to compare with the call's n, and the sample sizes at which
  the lambda window opens and the x_min floor holds.
* ``linear_rate_certificate`` -- evaluates the spectral-gap condition that
  certifies a linear convergence rate at a solution x*: the smallest
  eigenvalue of the inlier generalized-Jacobian sum on the support must
  dominate the boundary-measurement norms plus a regularizer curvature term.
  For a complex x* the sum is the realified 2|S| x 2|S| curvature M,
  assembled from two complex Gram products over the inlier rows, summed
  over row blocks of A[:, S] (see ``_complex_terms``).  F(e^{i theta} x) =
  F(x), so M is singular along the global-phase tangent realify(i x*_S) and
  the rate can hold only modulo the phase: the eigenvalue is taken on the
  complement of that direction.
* ``remark5_quantities`` -- the noise-weighted spectral norms that explain
  when the certificate is expected to hold.

Every |<a_i, x>|^2 and |a_ij|^2 is ``model._squared_modulus``, the square
``model.measure`` makes b with, so at a noiseless truth each residual is
exactly 0 and the certificate's boundary band is empty.

Each smallest eigenvalue comes from ``eigvalsh`` and is checked by an inertia
bracket of two Cholesky factorizations (see ``_min_eig``).  The certificate and
the Remark-5 check split the measurements into inliers and a boundary band by
``_masks`` at one rho0.

The Remark-5 check follows the equal-energy convention of the consistency
theory: rows are rescaled internally to a common norm with eps_i rescaled
to match (see ``_normalized``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (
    FieldTag,
    MeasurementEnsemble,
    _as_float,
    _check_positive,
    _squared_modulus,
    correlate,
    render_json,
)
from .objective import half_norm

# Inlier fraction of the Huber threshold, the default of every check's rho0:
# measurements with |v_i| <= rho0 * alpha count as inliers, and the boundary
# band around the Huber kink has half-width eps1 = (1 - rho0) * alpha.
RHO0 = 0.5


def _min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric m, bracketed by its inertia.

    eigvalsh gives lambda.  With tol = 1e-8 max_i |lambda_i|, Sylvester's law
    of inertia turns two Cholesky factorizations into a bracket: that of
    m - (lambda - tol) I exists, so no eigenvalue lies below lambda - tol, and
    that of m - (lambda + tol) I does not, so one lies below lambda + tol.
    """
    vals = np.linalg.eigvalsh(m)
    lmin = float(vals[0])
    tol = 1e-8 * max(float(np.max(np.abs(vals))), 1e-300)

    def positive_definite(shift):
        shifted = m.copy()
        shifted.flat[:: m.shape[0] + 1] -= shift
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
        return True

    if not positive_definite(lmin - tol) or positive_definite(lmin + tol):
        raise RuntimeError("eigenvalue inertia check failed")
    return lmin


def _boundary_width(alpha: float, rho0: float) -> tuple[float, float, float]:
    """(alpha, rho0, eps1) as Python floats, eps1 = (1 - rho0) * alpha;
    ValueError unless 0 < alpha < inf and 0 < rho0 < 1."""
    alpha = _check_positive(alpha=alpha)
    if not 0.0 < (fraction := _as_float(rho0)) < 1.0:
        raise ValueError(f"rho0 must lie in (0, 1), got {rho0}")
    return alpha, fraction, (1.0 - fraction) * alpha


def _masks(v: np.ndarray, alpha: float, rho0: float):
    """Inliers |v_i| <= rho0 * alpha and the boundary band ||v_i| - alpha| < eps1,
    at the alpha and rho0 its caller checked with _boundary_width."""
    mag = np.abs(v)
    return mag <= rho0 * alpha, np.abs(mag - alpha) < (1.0 - rho0) * alpha


class _Report:
    def to_json(self) -> str:
        return render_json(vars(self))


def _check_real(e: MeasurementEnsemble, what: str) -> None:
    """DomainError naming ``what`` unless e is a real ensemble."""
    if e.field is not FieldTag.REAL:
        raise DomainError(f"{what} is defined for real ensembles only")


def _normalized(e: MeasurementEnsemble, what: str):
    """Checked real ensemble as (a_hat, eps_hat): rows at norm sqrt(p), eps to match.

    Equalizing row norms makes the measurements comparable; the sqrt(p)
    scale keeps the ensemble isotropic (E <a,u>^2 = ||u||^2 for Gaussian
    rows).  For standard Gaussian rows the rescaled quantities match the raw
    ones in expectation.
    """
    _check_real(e, what)
    with np.errstate(over="ignore"):  # an overflow is the inf refused below
        norms = np.linalg.norm(e.sampling_vectors, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("sampling ensemble contains a zero row")
    if not np.all(np.isfinite(norms)):
        raise ValueError("sampling ensemble row norms overflow")
    scale = np.sqrt(e.p) / norms
    a_hat = e.sampling_vectors * scale[:, None]
    eps_hat = None if e.noise_record is None else e.noise_record * scale**2
    return a_hat, eps_hat


@dataclass(frozen=True)
class StabilityEstimate(_Report):
    """The consistency numbers that need neither C1 nor C2 (see
    ``estimate_stability``), not estimates of the stability constants."""

    t_n: float
    n_lambda_window: int | float | None  # None without a nonzero truth
    n_x_min: int | float | None
    p_log_n_over_n: float


def _t_n(p: int, n) -> float:
    """t_n = sqrt(2 (2p+1) log(1+2n) / n), the rate in the consistency conditions."""
    return float(np.sqrt(2.0 * (2 * p + 1) * np.log(1.0 + 2 * n) / n))


def _sample_size(p: int, bound: float) -> int | float | None:
    """Smallest n >= 1 with t_n <= bound, None past float range.  t_n falls in
    n, so n <- ceil(2 (2p+1) log(1+2n) / bound^2) climbs from n = 1 to the
    smallest solution and stops there; its stop test rounds apart from t_n,
    so n then steps, by ones, to the smallest n at which ``_t_n`` meets the
    bound.  Past 2^53 the iteration's n is a float, and is returned as one:
    an int would carry digits it never held."""
    n, scale = 1, 2.0 * (2 * p + 1) / bound / bound if bound else math.inf
    while (need := scale * math.log(1 + 2 * n)) > n:
        if math.isinf(need):
            return None
        n = math.ceil(need)
    if n > 2**53:
        return float(n)
    while _t_n(p, n) > bound:
        n += 1
    while n > 1 and _t_n(p, n - 1) <= bound:
        n -= 1
    return n if n <= 2**53 else float(n)


def estimate_stability(e: MeasurementEnsemble) -> StabilityEstimate:
    """The numbers of the consistency conditions that do not depend on C1 or
    C2, in closed form from n, p and the nonzero truth.

    t_n and p log(n)/n at this n, and the smallest n at which a condition
    holds at this p and truth.  The lambda window runs from
    C2 t_n sqrt(x_min/(2s)) ||x||^2 up to
    0.25 C2 t_n^(2/3) / (sqrt(s) + sum_j |x_j|^(1/2)), so it opens at
    t_n <= t_w, where C2 cancels; 2 t_n^(1/6) <= x_min holds at
    t_n <= (x_min/2)^6.  Both sample sizes are None without a nonzero truth.
    """
    _check_real(e, "stability estimation")
    n, p, x = e.n, e.p, e.nonzero_truth
    n_window = n_x_min = None
    if x is not None:
        s, x_min = np.count_nonzero(x), np.min(np.abs(x[x != 0]))
        upper = 0.25 / (np.sqrt(s) + half_norm(x))  # window's upper end / (C2 t_n^(2/3))
        lower = np.sqrt(0.5 * x_min / s) * np.linalg.norm(x) ** 2  # lower end / (C2 t_n)
        with np.errstate(over="ignore", divide="ignore"):  # inf: holds from n = 1
            t_w, t_x = float((upper / lower) ** 3), float((x_min / 2.0) ** 6)
        n_window, n_x_min = _sample_size(p, t_w), _sample_size(p, t_x)
    return StabilityEstimate(
        t_n=_t_n(p, n),
        n_lambda_window=n_window,
        n_x_min=n_x_min,
        p_log_n_over_n=float(p * np.log(n) / n),
    )


@dataclass(frozen=True)
class CertificateReport(_Report):
    field: str
    support: list
    eps1: float
    lhs_min_eig: float  # complex field: on the complement of the phase tangent
    phase_direction_curvature: float | None  # v^T M v / ||v||^2, v = realify(i x*_S)
    rhs_boundary_norms: float
    rhs_reg_term: float
    n_inliers: int
    n_boundary: int
    passed: bool


def _solution(x: np.ndarray, e: MeasurementEnsemble):
    """Checked solution and its support; DomainError if the support is empty."""
    x = e.check_signal(x)
    support = np.flatnonzero(x)
    if support.size == 0:
        raise DomainError("solution has empty support")
    return x, support


def _gram(a: np.ndarray, w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """sum_i w_i a_i a_i^T over the rows i in mask (real field), gathered once."""
    rows = a[mask]
    return (rows.T * w[mask]) @ rows


def _real_terms(a_s, c, inliers, e):
    """Restricted curvature M over the inliers and per-row norms, real field."""
    weights = (3.0 * _squared_modulus(c) - e.observations) / e.n
    m = _gram(a_s, weights, inliers)
    norms = np.abs(weights) * np.sum(_squared_modulus(a_s), axis=1)
    return m, norms


# Rows of A[:, S] per block of the complex curvature: a block holds about
# this many entries, so each of its three copies (the block, its inlier rows
# and their weighted copy) stays near 256 KB whatever n is.
_BLOCK_ENTRIES = 2**14


def _complex_terms(a, support, c, r, inliers, e):
    """Realified curvature M over the inliers and per-row norms, complex field.

    Row i contributes 2 (q_i.z)^2 + r_i ((phi_i.z)^2 + (psi_i.z)^2) to z^T M z,
    with phi_i = [Re a_i; Im a_i], psi_i = [-Im a_i; Re a_i] and
    q_i = Re(c_i) phi_i + Im(c_i) psi_i restricted to the support.  For
    z = realify(zeta) and w_i = <a_i, zeta> that is
    (r_i + |c_i|^2) |w_i|^2 + Re(conj(c_i)^2 w_i^2), so with the inlier rows
    A = a[inliers][:, support]

        herm = A^T diag(r + |c|^2) conj(A),   sym = A^T diag(c^2) A,
        M = [[Re herm + Re sym, Im sym - Im herm],
             [Im herm + Im sym, Re herm - Re sym]] / n.

    herm and sym are summed over row blocks of a[:, support] of about
    _BLOCK_ENTRIES entries, so no n x |S| array is built; the norms cover
    every row, block by block.
    """
    k = support.size
    herm = np.zeros((k, k), dtype=np.complex128)
    sym = np.zeros((k, k), dtype=np.complex128)
    norms = np.empty(e.n)
    step = max(1, _BLOCK_ENTRIES // k)
    for lo in range(0, e.n, step):
        rows = slice(lo, lo + step)
        blk, c_b, r_b = a[rows][:, support], c[rows], r[rows]
        # Restricted H_i has rank <= 2 with eigenvalues (rho^2/n)*{2|c|^2 + r, r},
        # rho^2 = sum_{j in support} |a_ij|^2.
        rho_sq = np.sum(_squared_modulus(blk), axis=1)
        c_sq = _squared_modulus(c_b)
        eig_a = np.abs(2.0 * c_sq + r_b)
        norms[rows] = rho_sq * np.maximum(eig_a, np.abs(r_b)) / e.n
        keep = inliers[rows]
        blk_in, c_in = blk[keep], c_b[keep]
        weighted = np.conjugate(blk_in)
        weighted *= (r_b[keep] + c_sq[keep])[:, None]
        herm += blk_in.T @ weighted
        np.multiply(blk_in, (c_in**2)[:, None], out=weighted)
        sym += blk_in.T @ weighted
    m = np.empty((2 * k, 2 * k))
    np.add(herm.real, sym.real, out=m[:k, :k])
    np.subtract(sym.imag, herm.imag, out=m[:k, k:])
    np.add(herm.imag, sym.imag, out=m[k:, :k])
    np.subtract(herm.real, sym.real, out=m[k:, k:])
    m /= e.n
    return m, norms


def _phase_projected(m: np.ndarray, x_s: np.ndarray):
    """M on the complement of the phase tangent v = realify(i x_s), and v^T M v / ||v||^2.

    The Householder reflector P = I - beta u u^T with P v parallel to e_1
    gives P M P = M - u w^T - w u^T (w = beta M u - (beta^2/2)(u^T M u) u):
    its trailing block is M on v-perp in an orthonormal basis, and its
    corner (P M P)_00 is the Rayleigh quotient of M at v.
    """
    u = np.concatenate([-x_s.imag, x_s.real])
    u /= np.max(np.abs(u))  # v, scaled to keep ||v||^2 clear of underflow
    u[0] += np.copysign(np.linalg.norm(u), u[0])
    beta = 2.0 / (u @ u)
    mu = beta * (m @ u)
    w = mu - (0.5 * beta * (u @ mu)) * u
    pmp = m - np.outer(u, w)
    pmp -= np.outer(w, u)
    return pmp[1:, 1:], float(pmp[0, 0])


def linear_rate_certificate(
    x_star: np.ndarray,
    e: MeasurementEnsemble,
    lam: float,
    alpha: float,
    rho0: float = RHO0,
) -> CertificateReport:
    """Evaluate the linear-rate spectral-gap condition at x_star.

    The residuals |<a_i, x_star>|^2 - y_i are split by ``_masks`` at rho0.
    For a complex x_star the smallest eigenvalue is taken modulo the global
    phase (see ``_phase_projected``).
    """
    lam = _check_positive(lam=lam)
    alpha, rho0, eps1 = _boundary_width(alpha, rho0)
    x, support = _solution(x_star, e)
    real = e.field is FieldTag.REAL
    reg_coef = 0.75 if real else 1.5
    with np.errstate(over="ignore"):  # an overflow is the inf refused below
        rhs_reg = float(reg_coef * lam * np.min(np.abs(x[support])) ** -1.5)
    if not np.isfinite(rhs_reg):
        raise ValueError(
            "regularizer term overflows: the solution's smallest nonzero entry "
            "is too small for this lambda"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        c = correlate(e.sampling_vectors, x)
        r = _squared_modulus(c) - e.observations
        inliers, boundary = _masks(r, alpha, rho0)
        if real:
            m, norms = _real_terms(e.sampling_vectors[:, support], c, inliers, e)
        else:
            m, norms = _complex_terms(e.sampling_vectors, support, c, r, inliers, e)
    # an overflowing residual is dropped from the inliers but not from norms
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(norms))):
        raise ValueError("solution overflows the certificate's curvature terms")
    phase = None
    if not real:
        m, phase = _phase_projected(m, x[support])
    lhs = _min_eig(m)
    rhs_boundary = 3.0 * float(np.sum(norms[boundary]))
    return CertificateReport(
        field=e.field.value,
        support=[int(j) for j in support],
        eps1=eps1,
        lhs_min_eig=lhs,
        phase_direction_curvature=phase,
        rhs_boundary_norms=rhs_boundary,
        rhs_reg_term=rhs_reg,
        n_inliers=int(np.count_nonzero(inliers)),
        n_boundary=int(np.count_nonzero(boundary)),
        passed=bool(lhs >= rhs_boundary + rhs_reg),
    )


@dataclass(frozen=True)
class Remark5Report(_Report):
    eps1: float
    support: list
    n_inliers: int
    n_boundary: int
    inlier_noise_norm: float
    boundary_noise_norm: float
    inlier_quadratic_min_eig: float


def remark5_quantities(
    x: np.ndarray,
    e: MeasurementEnsemble,
    alpha: float,
    rho0: float = RHO0,
) -> Remark5Report:
    """Noise-weighted spectral norms behind the rate certificate (real field).

    Rows are rescaled to equal energy internally (see _normalized); the
    reported quantities are the two noise-weighted restricted covariances
    and the smallest eigenvalue of the inlier quadratic term
    (2/n) sum <a_i,x>^2 a_G a_G^T.
    """
    alpha, rho0, eps1 = _boundary_width(alpha, rho0)
    a_hat, eps_hat = _normalized(e, "the Remark-5 check")
    if eps_hat is None:
        raise DomainError("Remark-5 quantities require a noise record")
    x, support = _solution(x, e)
    inliers, boundary = _masks(eps_hat, alpha, rho0)
    a_g = a_hat[:, support]

    def weighted_norm(mask, w):
        if not np.any(mask):
            return 0.0
        return float(np.linalg.norm(_gram(a_g, w, mask) / e.n, 2))

    with np.errstate(over="ignore", invalid="ignore"):
        c = a_hat @ x
        quad_m = _gram(a_g, 2.0 * _squared_modulus(c), inliers) / e.n
    if not np.all(np.isfinite(quad_m)):
        raise ValueError("solution overflows the inlier quadratic term")
    return Remark5Report(
        eps1=eps1,
        support=[int(j) for j in support],
        n_inliers=int(np.count_nonzero(inliers)),
        n_boundary=int(np.count_nonzero(boundary)),
        inlier_noise_norm=weighted_norm(inliers, eps_hat),
        boundary_noise_norm=weighted_norm(boundary, eps_hat),
        inlier_quadratic_min_eig=_min_eig(quad_m),
    )

