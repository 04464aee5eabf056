"""Spectral initialization: scaled leading eigenvector of (1/n) sum b_i a_i a_i^H.

The matrix is never formed; power iteration uses matrix-free products
Y v = (1/n) sum_i b_i a_i (a_i^H v).  The output direction is scaled by
sqrt(mean b), which estimates ||x|| for standardized sampling vectors.
For complex instances an optional truncation keeps only the largest-modulus
entries of the direction (renormalized) before scaling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import FieldTag, MeasurementEnsemble, correlate
from .rng import TAG_SPECTRAL, stream


@dataclass(frozen=True)
class SpectralConfig:
    power_iterations: int = 200
    power_tol: float = 1e-8
    truncation: int | None = None  # keep-count; None disables truncation

    def __post_init__(self):
        if self.power_iterations < 1:
            raise ValueError("power_iterations must be at least 1")
        if not 0.0 < self.power_tol < np.inf:
            raise ValueError("power_tol must be positive")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("truncation must be a positive keep-count")


def _apply_y(e: MeasurementEnsemble, v: np.ndarray) -> np.ndarray:
    a = e.sampling_vectors
    return a.T @ (e.observations * correlate(a, v)) / e.n


def power_iteration(
    e: MeasurementEnsemble, cfg: SpectralConfig, seed: int
) -> tuple[np.ndarray, list[float]]:
    """Leading eigenvector of Y and the per-step Rayleigh quotients."""
    rng = stream(seed, TAG_SPECTRAL)
    if e.field is FieldTag.COMPLEX:
        v = rng.standard_normal(e.p) + 1j * rng.standard_normal(e.p)
    else:
        v = rng.standard_normal(e.p)
    v = v / np.linalg.norm(v)
    rayleigh: list[float] = []
    for _ in range(cfg.power_iterations):
        yv = _apply_y(e, v)
        rayleigh.append(float(np.real(np.vdot(v, yv))))
        norm = np.linalg.norm(yv)
        if norm == 0.0:
            break
        v_next = yv / norm
        drift = 1.0 - abs(np.vdot(v_next, v))
        v = v_next
        if drift < cfg.power_tol:
            break
    return v, rayleigh


def spectral_init(
    e: MeasurementEnsemble, cfg: SpectralConfig, seed: int
) -> np.ndarray:
    """Spectral starting point; zero signal (with a warning) when mean b <= 0."""
    mean_b = float(np.mean(e.observations))
    if mean_b <= 0.0:
        if np.all(e.observations == 0.0):
            warnings.warn("all observations are zero; returning the zero signal",
                          RuntimeWarning, stacklevel=2)
        else:
            warnings.warn("mean observation is nonpositive; returning the zero "
                          "signal", RuntimeWarning, stacklevel=2)
        return np.zeros(e.p, dtype=e.field.dtype)
    direction, _ = power_iteration(e, cfg, seed)
    if cfg.truncation is not None and cfg.truncation < e.p:
        order = np.argsort(-np.abs(direction), kind="stable")
        keep = order[: cfg.truncation]
        truncated = np.zeros_like(direction)
        truncated[keep] = direction[keep]
        norm = np.linalg.norm(truncated)
        if norm == 0.0:
            warnings.warn("truncation removed every entry; returning the zero "
                          "signal", RuntimeWarning, stacklevel=2)
            return np.zeros(e.p, dtype=e.field.dtype)
        direction = truncated / norm
    return np.sqrt(mean_b) * direction
