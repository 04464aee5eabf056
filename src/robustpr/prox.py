"""Half-thresholding: the proximal operator of mu * ||.||_{1/2}^{1/2}.

chi(t, mu) minimizes |v - t|^2 + mu |v|^(1/2) over scalars v.  Below the
threshold tbar(mu) = (54^(1/3)/4) mu^(2/3) the minimizer is 0; above it a
closed-form cosine shrinkage applies.  The tie at |t| = tbar is resolved
to 0.  For complex t the output is a real scaling of t (phase preserved),
because the penalty depends on v only through |v|.

In the MM solver the prox weight is mu = 2*lam*tau: minimizing the
surrogate at step tau is equivalent to min ||x - (y - 2 tau g(y))||^2
+ 2 lam tau ||x||_{1/2}^{1/2}.

The body is dense: it evaluates the shrinkage on every entry, in one
scratch array updated in place, and then zeros the dropped entries.  Each
kept entry goes through the float operations a gather of the kept set would
apply, so the output is bit for bit that of a gather and scatter body, with
no copies of the kept set.
"""

from __future__ import annotations

import numpy as np

from .model import _check_positive

_TBAR_COEF = 54.0 ** (1.0 / 3.0) / 4.0


def threshold_point(mu: float) -> float:
    """The hard-thresholding radius tbar(mu) = (54^(1/3)/4) mu^(2/3)."""
    mu = _check_positive(mu=mu)
    return _TBAR_COEF * float(np.cbrt(mu)) ** 2


def half_threshold(xi: np.ndarray, mu: float) -> np.ndarray:
    """Componentwise chi(., mu); global minimizer of ||v-xi||^2 + mu||v||_{1/2}^{1/2}."""
    xi = np.asarray(xi)
    if not np.iscomplexobj(xi):
        xi = xi.astype(np.float64, copy=False)
    # np.abs of a 0-d array is a scalar the body cannot write into, so a
    # 0-d xi runs as a 1-element view and gets its shape back
    return _half_threshold(np.atleast_1d(xi), _check_positive(mu=mu)).reshape(xi.shape)


def _half_threshold(xi: np.ndarray, mu: float) -> np.ndarray:
    """chi(xi, mu) for a float64 or complex128 xi and a Python float mu;
    ValueError unless mu is finite and positive (threshold_point checks it).

    The shrinkage runs on every entry of max(|xi|, tbar), which is |xi| on
    the kept set and tbar on the other non-NaN entries; copyto then writes
    +0.0 over the entries with |xi| <= tbar and the NaN ones (a 0/1 mask
    would give -0.0).  The scale (2/3)(1 + cos(2pi/3 - (2/3) arccos(z))),
    z = (mu/8)(|t|/3)^(-3/2), is computed as (2/3)(1 + cos((2/3)
    arccos(-z))) with z = (w / max(|t|, tbar))^(3/2), w = (3/4) cbrt(mu)^2
    = 2^(-1/3) tbar: z <= 1/sqrt(2), so nothing overflows at subnormal mu,
    and tbar and w share cbrt(mu)^2, whose error is flat in |log mu|.  A
    complex xi is scaled by its real and imaginary parts apart: a complex
    product would meet inf * 0 in its cross terms and turn an entry with an
    infinite part into NaN.  On finite entries the two agree bit for bit,
    except that a zero part keeps its sign here, as under a real scaling.
    """
    tbar = threshold_point(mu)
    mag = np.abs(xi)
    keep = mag > tbar
    s = np.maximum(mag, tbar, out=mag)
    np.divide(0.75 * np.cbrt(mu) ** 2, s, out=s)  # w / max(|t|, tbar)
    s **= 1.5
    np.negative(s, out=s)
    np.arccos(s, out=s)
    s *= 2.0 / 3.0
    np.cos(s, out=s)
    s += 1.0
    s *= 2.0 / 3.0
    if xi.dtype.kind == "c":
        out = np.empty_like(xi)
        np.multiply(xi.real, s, out=out.real)
        np.multiply(xi.imag, s, out=out.imag)
    else:
        out = xi * s
    np.copyto(out, 0.0, where=~keep)
    return out
