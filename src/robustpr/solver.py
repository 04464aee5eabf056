"""MM iteration with Armijo backtracking for the regularized Huber objective.

Each iteration applies the thresholded gradient map

    x+ = H_{2 lam tau}(x - 2 tau g(x)),    tau = gamma * beta^j,

with j the smallest nonnegative integer achieving the sufficient decrease
F(x) - F(x+) >= delta ||x+ - x||^2.  The accepted objective value is cached
and carried forward, so the recorded descent inequality is exact in floating
point.  Terminates when the step norm drops below eps * max(1, ||x||).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gradient import g as gradient_map
from .model import MeasurementEnsemble
from .objective import objective
from .prox import half_threshold


class Termination(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    LINE_SEARCH_FAILED = "LineSearchFailed"


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    alpha: float = 1.345
    gamma: float = 1.0  # largest trial step, tau_k in (0, gamma]
    beta: float = 0.5  # backtracking ratio
    delta: float = 1e-4  # sufficient-decrease constant
    eps: float = 1e-6  # stopping tolerance on the relative step
    max_iter: int = 5000
    max_backtracks: int = 60

    def __post_init__(self):
        # chained comparisons reject NaN and inf as well as nonpositive values
        if not (0.0 < self.lam < np.inf and 0.0 < self.alpha < np.inf):
            raise ValueError("lam and alpha must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not (0.0 < self.delta < np.inf and 0.0 < self.eps < np.inf):
            raise ValueError("delta and eps must be positive")
        if self.max_iter < 1 or self.max_backtracks < 1:
            raise ValueError("iteration limits must be positive")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    F_value: float
    tau: float
    j: int
    step_norm: float
    support_size: int
    fixed_point_residual: float


@dataclass
class SolverResult:
    estimate: np.ndarray
    trace: list[IterationRecord]
    termination: Termination
    final_objective: float
    initial_objective: float

    @property
    def iterations(self) -> int:
        return len(self.trace)


def fixed_point_residual(
    x: np.ndarray,
    e: MeasurementEnsemble,
    lam: float,
    alpha: float,
    tau: float,
    gx: np.ndarray | None = None,
) -> float:
    """||x - H_{2 lam tau}(x - 2 tau g(x))|| / max(1, ||x||)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if gx is None:
        gx = gradient_map(x, e, alpha)
    mapped = half_threshold(x - 2.0 * tau * gx, 2.0 * lam * tau)
    return float(np.linalg.norm(x - mapped) / max(1.0, np.linalg.norm(x)))


def solve(
    e: MeasurementEnsemble,
    x0: np.ndarray,
    cfg: SolverConfig,
    callback=None,
) -> SolverResult:
    """Run the MM iteration from x0.

    ``callback(k, x)`` is invoked on the initial point (k=0) and on every
    accepted iterate; it must not mutate x.
    """
    x = e.check_signal(x0).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial point contains non-finite entries")
    F_x = objective(x, e, cfg.lam, cfg.alpha)
    F_initial = F_x
    g_x = gradient_map(x, e, cfg.alpha)
    trace: list[IterationRecord] = []
    termination = Termination.MAX_ITERATIONS
    if callback is not None:
        callback(0, x)

    for k in range(1, cfg.max_iter + 1):
        accepted = False
        for j in range(cfg.max_backtracks + 1):
            tau = cfg.gamma * cfg.beta**j
            cand = half_threshold(x - 2.0 * tau * g_x, 2.0 * cfg.lam * tau)
            F_cand = objective(cand, e, cfg.lam, cfg.alpha)
            step_sq = float(np.vdot(cand - x, cand - x).real)
            if F_x - F_cand >= cfg.delta * step_sq:
                accepted = True
                break
        if not accepted:
            termination = Termination.LINE_SEARCH_FAILED
            break

        step_norm = float(np.linalg.norm(cand - x))
        converged = step_norm <= cfg.eps * max(1.0, float(np.linalg.norm(x)))
        g_new = gradient_map(cand, e, cfg.alpha)
        fp_res = fixed_point_residual(cand, e, cfg.lam, cfg.alpha, tau, gx=g_new)
        trace.append(
            IterationRecord(
                k=k,
                F_value=F_cand,
                tau=tau,
                j=j,
                step_norm=step_norm,
                support_size=int(np.count_nonzero(cand)),
                fixed_point_residual=fp_res,
            )
        )
        x, F_x, g_x = cand, F_cand, g_new
        if callback is not None:
            callback(k, x)
        if converged:
            termination = Termination.CONVERGED
            break

    return SolverResult(
        estimate=x,
        trace=trace,
        termination=termination,
        final_objective=F_x,
        initial_objective=F_initial,
    )


TRACE_COLUMNS = ("k", "F", "tau", "j", "step_norm", "support_size", "fp_residual")


def write_trace_csv(path, result: SolverResult) -> None:
    """Export the iteration trace with one row per accepted step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for r in result.trace:
            writer.writerow(
                [
                    r.k,
                    repr(r.F_value),
                    repr(r.tau),
                    r.j,
                    repr(r.step_norm),
                    r.support_size,
                    repr(r.fixed_point_residual),
                ]
            )
