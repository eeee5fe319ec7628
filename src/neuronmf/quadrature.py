"""Composite Simpson quadrature with panel doubling, and trapezoid sums.

Integrands are vectorized callables f(x: ndarray) -> ndarray.
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """An adaptive quadrature did not reach its tolerance."""


def simpson_refine(f, a: float, b: float, tol: float, n0: int = 8, max_doublings: int = 18):
    """(S, |S - S_prev|): nested composite Simpson of f over [a, b].

    The first call of f, on the n0 + 1 nodes (n0 a multiple of 4), gives
    the n0/2- and the n0-panel rules; each doubling of the panels calls f
    on the new midpoints only, and keeps running sums of the odd and even
    nodes. It stops once two levels change by less than tol, or after
    max_doublings, and returns the last level with its change: the caller
    decides what a change >= tol means.
    """
    width, n = b - a, n0
    vals = f(a + width * np.linspace(0.0, 1.0, n + 1))
    ends = vals[0] + vals[-1]
    odds, evens = vals[1::2].sum(), vals[2:-1:2].sum()
    prev = width * (ends + 4.0 * vals[2:-1:4].sum() + 2.0 * vals[4:-1:4].sum()) / (1.5 * n)
    est = width * (ends + 4.0 * odds + 2.0 * evens) / (3.0 * n)
    for _ in range(max_doublings):
        if abs(est - prev) < tol:
            break
        evens += odds
        n *= 2
        odds = f(a + width * ((2.0 * np.arange(n // 2) + 1.0) / n)).sum()
        prev, est = est, width * (ends + 4.0 * odds + 2.0 * evens) / (3.0 * n)
    return float(est), float(abs(est - prev))


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """w with w @ y == np.trapezoid(y, x) up to rounding."""
    w = np.zeros(x.size)
    half = 0.5 * np.diff(x)
    w[:-1] += half
    w[1:] += half
    return w


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples y over grid x, starting at 0."""
    out = np.empty_like(np.asarray(y, dtype=float))
    out[0] = 0.0
    np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x), out=out[1:])
    return out
