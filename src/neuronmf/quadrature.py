"""Composite Simpson quadrature with panel-doubling refinement.

Integrands are vectorized callables f(x: ndarray) -> ndarray. Refinement
doubles the panel count (reusing previous evaluations) until two successive
composite estimates agree within the requested absolute tolerance.
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """An adaptive quadrature did not reach its tolerance."""


def simpson_refine(
    f,
    a: float,
    b: float,
    tol: float,
    n0: int = 8,
    max_doublings: int = 18,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    n0 is the initial (even) panel count. Raises QuadratureError if the
    tolerance is not reached within max_doublings refinements.
    """
    if b <= a:
        return 0.0
    n = max(2, n0 + (n0 % 2))
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / n
    s_prev = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
    for _ in range(max_doublings):
        mids = 0.5 * (xs[:-1] + xs[1:])
        y_mid = np.asarray(f(mids), dtype=float)
        n *= 2
        h *= 0.5
        xs_new = np.empty(n + 1)
        xs_new[0::2] = xs
        xs_new[1::2] = mids
        ys_new = np.empty(n + 1)
        ys_new[0::2] = ys
        ys_new[1::2] = y_mid
        xs, ys = xs_new, ys_new
        s = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
        if abs(s - s_prev) < tol:
            return float(s)
        s_prev = s
    if not np.isfinite(s_prev):
        raise QuadratureError("non-finite quadrature")
    raise QuadratureError(f"quadrature did not reach tol={tol} on [{a}, {b}]")


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples y over grid x, starting at 0."""
    out = np.empty_like(np.asarray(y, dtype=float))
    out[0] = 0.0
    np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x), out=out[1:])
    return out
