"""Numerical checks of the optimality and rate theory at a computed solution.

Three groups of checks:

* ``estimate_stability`` -- sampled lower-bound estimates of the bilinear
  stability constants of the sampling ensemble (real field only).  The
  sampled infimum can only overestimate the true constant, so the numbers
  are heuristic upper bounds on the true C1/C2.
* ``linear_rate_certificate`` -- evaluates the spectral-gap condition that
  certifies a linear convergence rate at a solution x*: the smallest
  eigenvalue of the inlier generalized-Jacobian sum on the support must
  dominate the boundary-measurement norms plus a regularizer curvature term.
* ``remark5_quantities`` -- the noise-weighted spectral norms that explain
  when the certificate is expected to hold.

Stability and Remark-5 checks follow the unit-vector convention of the
consistency theory: rows are normalized internally to a_i/||a_i|| with
b_i and eps_i rescaled by 1/||a_i||^2.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import MissingDataError, UnsupportedFieldError
from .model import FieldTag, MeasurementEnsemble, correlate
from .rng import TAG_STABILITY, stream

# Inlier fraction of the Huber threshold: measurements with |eps_i| <= rho0 *
# alpha count as inliers, and the certificate's boundary width is
# eps1 = (1 - rho0) * alpha.
RHO0 = 0.5


def _min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue with a residual check on the returned eigenpair."""
    if m.size == 0:
        return 0.0
    vals, vecs = np.linalg.eigh(m)
    lmin = float(vals[0])
    v = vecs[:, 0]
    scale = float(np.max(np.abs(vals)))
    resid = float(np.linalg.norm(m @ v - lmin * v))
    if resid > 1e-8 * max(scale, 1e-300):
        raise RuntimeError("eigensolver residual check failed")
    return lmin


def _masks(r: np.ndarray, alpha: float, eps1: float):
    """Inliers |r_i| <= alpha - eps1 and the boundary band ||r_i| - alpha| < eps1."""
    inliers = np.abs(r) <= alpha - eps1
    boundary = np.abs(np.abs(r) - alpha) < eps1
    return inliers, boundary


def _check_alpha_rho0(alpha: float, rho0: float) -> None:
    # chained comparisons reject NaN and inf as well as out-of-range values
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive")
    if not 0.0 < rho0 < 1.0:
        raise ValueError("rho0 must lie in (0, 1)")


def _normalized(e: MeasurementEnsemble):
    """Equal-energy rows: a_i rescaled to norm sqrt(p), b and eps to match.

    Equalizing row norms is what makes the stability conditions comparable
    across measurements; the sqrt(p) scale keeps the ensemble isotropic
    (E <a,u>^2 = ||u||^2 for Gaussian rows), which is the scale on which
    thresholds like C1 > 1/2 are meaningful.  For standard Gaussian rows
    the rescaled quantities match the raw ones in expectation.
    """
    norms = np.linalg.norm(e.sampling_vectors, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("sampling ensemble contains a zero row")
    scale = np.sqrt(e.p) / norms
    a_hat = e.sampling_vectors * scale[:, None]
    b_hat = e.observations * scale**2
    eps_hat = None if e.noise_record is None else e.noise_record * scale**2
    return a_hat, b_hat, eps_hat


@dataclass(frozen=True)
class StabilityEstimate:
    mu_hat: float
    c2_hat: float
    samples: int
    inlier_threshold: float
    used_noise_record: bool


def _bilinear_means(a_hat: np.ndarray, u: np.ndarray, v: np.ndarray,
                    inliers: np.ndarray):
    prod = (a_hat @ u) * (a_hat @ v)
    mu = float(np.mean(np.abs(prod)))
    sub = prod[inliers]
    c2 = float(np.mean(sub**2)) if sub.size else 0.0
    return mu, c2


def _refine_pair(a_hat, u, v, inliers, pick, rounds=6, step0=0.25):
    """Coordinate descent on the sphere from the worst sampled pair.

    Moves are coordinate nudges of shrinking size plus coordinate zeroing,
    which reaches degenerate directions (null coordinates) exactly.
    """
    best = pick(*_bilinear_means(a_hat, u, v, inliers))
    step = step0
    p = u.shape[0]
    for _ in range(rounds):
        for which in (0, 1):
            for j in range(p):
                for delta in (step, -step, None):
                    # perturb the current pair, so accepted moves compound
                    trial = (u if which == 0 else v).copy()
                    if delta is None:
                        trial[j] = 0.0
                    else:
                        trial[j] += delta
                    norm = np.linalg.norm(trial)
                    if norm == 0.0:
                        continue
                    trial /= norm
                    cand_u, cand_v = (trial, v) if which == 0 else (u, trial)
                    val = pick(*_bilinear_means(a_hat, cand_u, cand_v, inliers))
                    if val < best:
                        best = val
                        if which == 0:
                            u = trial
                        else:
                            v = trial
        step *= 0.5
    return best


def estimate_stability(
    e: MeasurementEnsemble,
    samples: int,
    rho0: float,
    alpha: float,
    seed: int,
) -> StabilityEstimate:
    """Sampled estimates of the stability constants; heuristic upper bounds."""
    if e.field is not FieldTag.REAL:
        raise UnsupportedFieldError(
            "stability estimation is defined for real ensembles only"
        )
    if samples < 1:
        raise ValueError("need at least one sampled direction pair")
    _check_alpha_rho0(alpha, rho0)
    a_hat, _, eps_hat = _normalized(e)
    used_record = eps_hat is not None
    threshold = rho0 * alpha
    inliers = (
        np.abs(eps_hat) <= threshold if used_record else np.ones(e.n, dtype=bool)
    )
    rng = stream(seed, TAG_STABILITY)
    mu_best, c2_best = np.inf, np.inf
    mu_pair = c2_pair = None
    for _ in range(samples):
        u = rng.standard_normal(e.p)
        v = rng.standard_normal(e.p)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        mu, c2 = _bilinear_means(a_hat, u, v, inliers)
        if mu < mu_best:
            mu_best, mu_pair = mu, (u, v)
        if c2 < c2_best:
            c2_best, c2_pair = c2, (u, v)
    mu_best = _refine_pair(a_hat, *mu_pair, inliers, pick=lambda m, c: m)
    c2_best = _refine_pair(a_hat, *c2_pair, inliers, pick=lambda m, c: c)
    return StabilityEstimate(
        mu_hat=mu_best,
        c2_hat=c2_best,
        samples=samples,
        inlier_threshold=threshold,
        used_noise_record=used_record,
    )


@dataclass(frozen=True)
class CertificateReport:
    field: str
    support: list
    support_realified: list | None
    eps1: float
    lhs_min_eig: float
    rhs_boundary_norms: float
    rhs_reg_term: float
    n_inliers: int
    n_boundary: int
    passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _real_terms(a_s, c, r, inliers, e):
    """Restricted curvature M over the inliers and per-row norms, real field."""
    weights = (3.0 * c**2 - e.observations) / e.n
    m = (a_s[inliers].T * weights[inliers]) @ a_s[inliers]
    norms = np.abs(weights) * np.sum(a_s**2, axis=1)
    return m, norms


def _complex_terms(a_s, c, r, inliers, e):
    """Realified curvature M over the inliers and per-row norms, complex field."""
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


def linear_rate_certificate(
    x_star: np.ndarray,
    e: MeasurementEnsemble,
    lam: float,
    alpha: float,
    eps1: float | None = None,
) -> CertificateReport:
    """Evaluate the linear-rate spectral-gap condition at x_star.

    eps1 defaults to (1 - RHO0) * alpha, which is alpha/2.
    """
    if not (0.0 < lam < np.inf and 0.0 < alpha < np.inf):
        raise ValueError("lam and alpha must be positive")
    if eps1 is None:
        eps1 = (1.0 - RHO0) * alpha
    if not 0.0 < eps1 < alpha:
        raise ValueError("eps1 must lie strictly between 0 and alpha")
    x = e.check_signal(x_star)
    support = np.flatnonzero(x)
    if support.size == 0:
        raise ValueError("certificate requires a solution with nonempty support")
    if e.field is FieldTag.REAL:
        terms, reg_coef, support_realified = _real_terms, 0.75, None
    else:
        terms, reg_coef = _complex_terms, 1.5
        support_realified = [int(j) for j in np.concatenate([support, support + e.p])]
    a = e.sampling_vectors
    c = correlate(a, x)
    r = np.abs(c) ** 2 - e.observations
    inliers, boundary = _masks(r, alpha, eps1)
    m, norms = terms(a[:, support], c, r, inliers, e)
    lhs = _min_eig(m)
    rhs_boundary = 3.0 * float(np.sum(norms[boundary]))
    rhs_reg = reg_coef * lam * float(np.min(np.abs(x[support]))) ** (-1.5)
    return CertificateReport(
        field=e.field.value,
        support=[int(j) for j in support],
        support_realified=support_realified,
        eps1=eps1,
        lhs_min_eig=lhs,
        rhs_boundary_norms=rhs_boundary,
        rhs_reg_term=rhs_reg,
        n_inliers=int(np.count_nonzero(inliers)),
        n_boundary=int(np.count_nonzero(boundary)),
        passed=bool(lhs >= rhs_boundary + rhs_reg),
    )


@dataclass(frozen=True)
class Remark5Report:
    eps1: float
    support: list
    n_inliers: int
    n_boundary: int
    inlier_noise_norm: float
    boundary_noise_norm: float
    inlier_quadratic_min_eig: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


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
    if e.field is not FieldTag.REAL:
        raise UnsupportedFieldError("Remark-5 quantities are real-field only")
    if e.noise_record is None:
        raise MissingDataError("Remark-5 quantities require a noise record")
    _check_alpha_rho0(alpha, rho0)
    x = e.check_signal(x)
    support = np.flatnonzero(x)
    if support.size == 0:
        raise ValueError("signal has empty support")
    a_hat, _, eps_hat = _normalized(e)
    eps1 = (1.0 - rho0) * alpha
    inliers, boundary = _masks(eps_hat, alpha, eps1)
    a_g = a_hat[:, support]

    def weighted_norm(mask, w):
        if not np.any(mask):
            return 0.0
        m = (a_g[mask].T * w[mask]) @ a_g[mask] / e.n
        return float(np.linalg.norm(m, 2))

    c = a_hat @ x
    quad_m = (a_g[inliers].T * (2.0 * c[inliers] ** 2)) @ a_g[inliers] / e.n
    return Remark5Report(
        eps1=eps1,
        support=[int(j) for j in support],
        n_inliers=int(np.count_nonzero(inliers)),
        n_boundary=int(np.count_nonzero(boundary)),
        inlier_noise_norm=weighted_norm(inliers, eps_hat),
        boundary_noise_norm=weighted_norm(boundary, eps_hat),
        inlier_quadratic_min_eig=_min_eig(quad_m),
    )


def consistency_conditions(
    e: MeasurementEnsemble,
    alpha: float,
    lam: float,
    c1: float,
    c2: float,
    rho0: float = RHO0,
) -> dict:
    """Report-only check of the parameter conditions behind estimator consistency.

    Evaluates the sample-size quantity t_n, the floor on alpha, the window
    on lambda and the floor on the smallest nonzero signal entry, using the
    normalized ensemble and the empirical mean |eps| as a stand-in for the
    noise's first absolute moment.  Informational; nothing in the solver
    depends on this.
    """
    if e.field is not FieldTag.REAL:
        raise UnsupportedFieldError("consistency conditions are real-field only")
    if e.ground_truth is None or e.noise_record is None:
        raise MissingDataError("needs ground truth and noise record")
    _check_alpha_rho0(alpha, rho0)
    _, _, eps_hat = _normalized(e)
    x = e.ground_truth
    n, p = e.n, e.p
    t_n = float(np.sqrt(2.0 * (2 * p + 1) * np.log(1.0 + 2 * n) / n))
    mean_abs_eps = float(np.mean(np.abs(eps_hat)))
    nnz = np.abs(x) > 0
    s = int(np.count_nonzero(nnz))
    x_min = float(np.min(np.abs(x[nnz])))
    half = float(np.sum(np.sqrt(np.abs(x))))
    norm_sq = float(np.linalg.norm(x) ** 2)
    alpha_floor = 6.0 * mean_abs_eps / (2.0 * (1.0 - rho0) * c1 - 1.0) if (
        2.0 * (1.0 - rho0) * c1 > 1.0
    ) else np.inf
    lam_upper = 0.25 * c2 * t_n ** (2.0 / 3.0) / (np.sqrt(s) + half)
    lam_lower = (np.sqrt(2.0) / 2.0) * c2 * np.sqrt(x_min) * norm_sq * t_n / np.sqrt(s)
    return {
        "t_n": t_n,
        "mean_abs_eps": mean_abs_eps,
        "alpha_floor": float(alpha_floor),
        "alpha_ok": bool(alpha >= alpha_floor),
        "lambda_upper": float(lam_upper),
        "lambda_lower": float(lam_lower),
        "lambda_ok": bool(lam_lower <= lam <= lam_upper),
        "x_min": x_min,
        "x_min_floor": float(2.0 * t_n ** (1.0 / 6.0)),
        "x_min_ok": bool(x_min >= 2.0 * t_n ** (1.0 / 6.0)),
        "p_log_n_over_n": float(p * np.log(n) / n),
    }
