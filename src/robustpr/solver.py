"""MM iteration with Armijo backtracking for the regularized Huber objective.

Each iteration applies the thresholded gradient map

    x+ = H_{2 lam tau}(x - 2 tau g(x)),    tau = tau0 * beta^j,

with j the smallest nonnegative integer achieving the sufficient decrease
F(x) - F(x+) >= delta ||x+ - x||^2.  The trial step tau0 alternates the
long and short Barzilai-Borwein steps of the last accepted move
s = x_k - x_{k-1}, y = g(x_k) - g(x_{k-1}) (the alternate BB method of
Dai and Fletcher):

    tau0 = ||s||^2 / (2 Re<s, y>)     after an odd k,
    tau0 = Re<s, y> / (2 ||y||^2)     after an even k,

each clipped to [TAU_MIN, 1 / TAU_MIN].  By Cauchy-Schwarz the short step is
never larger than the long one.  The first iteration, and any iteration with
Re<s, y> <= 0, starts at gamma.  Every accepted tau lies in (0, 1 / TAU_MIN]
and passes the same sufficient-decrease test, which is all the convergence
argument needs; no bound sets the scale of the step, which follows the
problem's (tau -> tau / c^2 when x -> c x).  The accepted objective value is
cached and carried forward, so the recorded descent inequality is exact in
floating point.  Terminates when the relative step ||x+ - x|| / ||x|| is at
most eps: the residual the trace records for x, as both read ``_relative_step``.
A zero step (0 >= delta * 0) ends the run Converged only if x's fixed-point
residual at tau = gamma, one more prox, is at most eps; otherwise the run
ends LineSearchFailed and the zero step gets no row.

Work per iteration: each Armijo trial costs one prox and one forward product
A^H x, which yields F and the clamped residuals together; the accepted
trial's products and clamp give g(x+) with one adjoint product.  The trace's
fixed-point residual of x_k is that of the step the run took from it:
x_{k+1} is the map applied to x_k at tau_{k+1}, so the residual is
step_norm_{k+1} / ||x_k|| and costs nothing.  The result's residual
costs one more prox per solve: the last row's at its own tau, or with no
rows the start's at gamma, which a zero step's test may have taken already.
x0 is validated once per solve, and each trial validates its prox weight once.

The trace is one NumPy record array with a row per accepted step, built once
after the loop: trace.F_value is a column, trace[-1] a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gradient import _adjoint
from .gradient import g as gradient_map
from .model import MeasurementEnsemble, _check_positive, write_csv
from .objective import _evaluate
from .objective import objective  # unused here; benchmarks/tracing.py binds it
from .prox import _half_threshold
from .prox import half_threshold  # unused here; benchmarks/tracing.py binds it

TAU_MIN = 1e-8  # the Barzilai-Borwein trial step lies in [TAU_MIN, 1 / TAU_MIN]
MAX_BACKTRACKS = 60  # Armijo trials past the first before LineSearchFailed


class Termination(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    LINE_SEARCH_FAILED = "LineSearchFailed"


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    alpha: float = 1.345
    # The MM constants: class attributes without annotations, so not fields.
    gamma = 1.0  # first trial step, and the trial with no usable BB step
    beta = 0.5  # backtracking ratio
    delta = 1e-4  # sufficient-decrease constant
    eps = 1e-6  # stopping tolerance on the relative step
    max_iter = 5000

    def __post_init__(self):
        lam, alpha = _check_positive(lam=self.lam, alpha=self.alpha)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha", alpha)


TRACE_DTYPE = np.dtype([
    ("k", "i8"), ("F_value", "f8"), ("tau", "f8"), ("j", "i8"),
    ("step_norm", "f8"), ("support_size", "i8"), ("fixed_point_residual", "f8"),
])


@dataclass(eq=False)
class SolverResult:
    estimate: np.ndarray
    trace: np.recarray  # TRACE_DTYPE, one row per accepted step
    termination: Termination
    initial_objective: float
    fixed_point_residual: float  # the last row's, else the start's at tau = gamma
    trials: int  # Armijo trials, one forward product each
    prox_calls: int  # one per trial and per residual taken (see the module doc)

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def final_objective(self) -> float:
        """F at the estimate: the last row's accepted value, else the start's."""
        rows = self.trace.F_value
        return float(rows[-1]) if len(rows) else self.initial_objective


def fixed_point_residual(
    x: np.ndarray,
    e: MeasurementEnsemble,
    lam: float,
    alpha: float,
    tau: float,
) -> float:
    """||x - H_{2 lam tau}(x - 2 tau g(x))|| / ||x||, the step itself at x = 0."""
    lam, alpha, tau = _check_positive(lam=lam, alpha=alpha, tau=tau)
    x = e.check_signal(x)
    return _residual(x, gradient_map(x, e, alpha), lam, tau, _norm(x))


def _mm_map(x, gx, lam, tau) -> np.ndarray:
    """H_{2 lam tau}(x - 2 tau gx) at gx = g(x): each trial's candidate, and
    the point each fixed-point residual measures x against."""
    return _half_threshold(x - 2.0 * tau * gx, 2.0 * lam * tau)


def _residual(x, gx, lam, tau, x_norm) -> float:
    """fixed_point_residual of x, given gx = g(x) and x_norm = ||x||."""
    return _relative_step(_norm(_mm_map(x, gx, lam, tau) - x), x_norm)


def _relative_step(step_norm: float, x_norm: float) -> float:
    """||step|| / ||x||: what the stop test compares with eps and what every
    fixed-point residual records.  At x = 0 it is ||step||, which is 0 there:
    g(0) = 0, so the map's step from 0 is zero."""
    return step_norm / x_norm if x_norm else step_norm


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a 1-D float64 or complex128 v, from the same dot products."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def solve(
    e: MeasurementEnsemble,
    x0: np.ndarray,
    cfg: SolverConfig,
    callback=None,
) -> SolverResult:
    """Run the MM iteration from x0.

    ``callback(k, x)`` is invoked on the initial point (k=0) and on every
    accepted iterate; it must not mutate x, which the next step starts from.

    The result's trace has one row per accepted step, possibly none.
    """
    x = e.check_signal(x0).copy()
    # locals: a read of a class constant through cfg is the slow attribute path
    lam, alpha = cfg.lam, cfg.alpha
    gamma, beta, delta, eps = cfg.gamma, cfg.beta, cfg.delta, cfg.eps
    F_x, c, d = _evaluate(x, e, lam, alpha)
    F_initial = F_x
    g_x = _adjoint(e, c, d)
    x_norm = _norm(x)
    rows, residual, trials = [], None, 0
    termination = Termination.MAX_ITERATIONS
    if callback is not None:
        callback(0, x)

    tau0 = gamma
    for k in range(1, cfg.max_iter + 1):
        accepted = False
        for j in range(MAX_BACKTRACKS + 1):
            tau = tau0 * beta**j
            cand = _mm_map(x, g_x, lam, tau)
            F_cand, c, d = _evaluate(cand, e, lam, alpha)
            step = cand - x
            step_sq = float(np.vdot(step, step).real)
            if F_x - F_cand >= delta * step_sq:
                accepted = True
                break
        trials += j + 1
        # a zero step passes as 0 >= delta * 0: converged only at a fixed point
        if not accepted or not step_sq and (residual := _residual(
                x, g_x, lam, gamma, x_norm)) > eps:
            termination = Termination.LINE_SEARCH_FAILED
            break

        step_norm = _norm(step)
        relative = _relative_step(step_norm, x_norm)
        if rows:  # the residual of x at tau, the step just taken from it
            rows[-1] += (relative,)
        converged = relative <= eps
        g_new = _adjoint(e, c, d)
        y = g_new - g_x
        curvature = float(np.vdot(step, y).real)
        tau0 = gamma
        if curvature > 0.0:
            if k % 2:
                tau0 = step_sq / (2.0 * curvature)
            else:
                # ||y||^2 may underflow to 0 while Re<s, y> > 0: no finite
                # short step, so the trial falls back to gamma
                y_sq = float(np.vdot(y, y).real)
                tau0 = curvature / (2.0 * y_sq) if y_sq > 0.0 else gamma
            tau0 = min(max(tau0, TAU_MIN), 1.0 / TAU_MIN)
        x, F_x, g_x, x_norm = cand, F_cand, g_new, _norm(cand)
        rows.append((k, F_x, tau, j, step_norm, np.count_nonzero(x)))
        if callback is not None:
            callback(k, x)
        if converged:
            termination = Termination.CONVERGED
            break
    prox_calls = trials + 1 + (residual is not None and bool(rows))
    if rows:
        residual = _residual(x, g_x, lam, rows[-1][2], x_norm)
        rows[-1] += (residual,)
    elif residual is None:
        residual = _residual(x, g_x, lam, gamma, x_norm)

    return SolverResult(
        estimate=x,
        trace=np.rec.fromrecords(rows, dtype=TRACE_DTYPE),
        termination=termination,
        initial_objective=F_initial,
        fixed_point_residual=residual,
        trials=trials,
        prox_calls=prox_calls,
    )


TRACE_COLUMNS = ("k", "F", "tau", "j", "step_norm", "support_size", "fp_residual")


def write_trace_csv(path, result: SolverResult) -> None:
    """Export the iteration trace with one row per accepted step."""
    write_csv(path, TRACE_COLUMNS, result.trace.tolist())
