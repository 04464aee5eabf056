"""Robust sparse phase retrieval: Huber loss + l_1/2 half-thresholding MM."""

from .diagnostics import (
    CertificateReport,
    Remark5Report,
    StabilityEstimate,
    estimate_stability,
    linear_rate_certificate,
    remark5_quantities,
)
from .gradient import g
from .metrics import (
    ExperimentReport,
    ExperimentSpec,
    align,
    error_vs_iteration,
    lambda_grid_search,
    relative_error,
    run_experiment,
)
from .model import (
    FieldTag,
    MeasurementEnsemble,
    NoiseSpec,
    apply_noise,
    deserialize_instance,
    generate_sampling,
    generate_signal,
    serialize_instance,
    synthesize_instance,
)
from .objective import (
    half_norm,
    huber_deriv,
    loss,
    objective,
)
from .pgm import GrayImage, read_pgm, write_pgm
from .prox import half_threshold, threshold_point
from .solver import (
    SolverConfig,
    SolverResult,
    Termination,
    fixed_point_residual,
    solve,
    write_trace_csv,
)
from .spectral import SpectralConfig, power_iteration, spectral_init

__all__ = [
    "CertificateReport",
    "ExperimentReport",
    "ExperimentSpec",
    "FieldTag",
    "GrayImage",
    "MeasurementEnsemble",
    "NoiseSpec",
    "Remark5Report",
    "SolverConfig",
    "SolverResult",
    "SpectralConfig",
    "StabilityEstimate",
    "Termination",
    "align",
    "apply_noise",
    "deserialize_instance",
    "error_vs_iteration",
    "estimate_stability",
    "fixed_point_residual",
    "g",
    "generate_sampling",
    "generate_signal",
    "half_norm",
    "half_threshold",
    "huber_deriv",
    "lambda_grid_search",
    "linear_rate_certificate",
    "loss",
    "objective",
    "power_iteration",
    "read_pgm",
    "relative_error",
    "remark5_quantities",
    "run_experiment",
    "serialize_instance",
    "solve",
    "spectral_init",
    "synthesize_instance",
    "threshold_point",
    "write_pgm",
    "write_trace_csv",
]
