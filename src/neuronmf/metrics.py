"""Distances between samples and laws and between densities, plus log-log rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import cumulative_trapezoid


def w1_samples_vs_law(samples, law):
    """W1 between an empirical measure and a law with piecewise-linear cdf.

    Each row of 2-d samples is one empirical measure, and the result is the
    array of the rows' W1, computed in quantile form from the law's table
    (_w1_rows): one call for all rows, and row r's value does not depend on
    the other rows. 1-d samples are one such row, and give a float.

    law is an (xs, F) pair, F increasing from 0 to 1.
    """
    xs = np.asarray(law[0], dtype=float)
    F = np.asarray(law[1], dtype=float)
    if abs(F[-1] - 1.0) > 1e-9 or F[0] < -1e-12 or np.any(np.diff(F) < -1e-12):
        raise ValueError("law cdf must increase from 0 to 1")
    s = np.sort(np.asarray(samples, dtype=float))
    if s.shape[-1] == 0:
        raise ValueError("need at least one sample")
    G = cumulative_trapezoid(F, xs)
    if s.ndim == 1:
        return float(_w1_rows(s[None], xs, F, G)[0])
    return _w1_rows(s, xs, F, G)


def _w1_rows(s, xs, F, G):
    """W1 of each sorted row of s against the law (xs, F), G = int F from xs[0].

    W1 = sum_k int_{u0}^{u1} |s_k - Q(u)| du over the levels u0 = (k-1)/n,
    u1 = k/n, with Q the law's quantile. With H(u) = int_0^u Q and u* the
    cdf F(s_k) clipped into [u0, u1], the k-th term is
    s_k (2 u* - u0 - u1) - 2 H(u*) + H(u0) + H(u1), and H(F(c)) = c F(c) - G(c)
    when u* is not clipped. Beyond the grid F is 0 below and 1 above. The
    (R, n) work runs in place, so a call holds a few arrays of s's size.
    """
    n, last = s.shape[1], xs.size - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        # F and G at the samples; an atom's zero-width segment serves only samples off the grid
        slope = np.diff(F) / np.diff(xs)
        j = np.searchsorted(xs, s, side="right")
        j -= 1
        np.clip(j, 0, max(last - 1, 0), out=j)
        dx = s - xs[j]
        fj = F[j]
        fc = slope[j]
        fc *= dx
        fc += fj
        gc = fj
        gc += fc
        gc *= 0.5
        gc *= dx
        gc += G[j]
        below, above = s < xs[0], s >= xs[-1]
        fc[below], gc[below] = 0.0, 0.0
        fc[above], gc[above] = 1.0, G[-1] + (s[above] - xs[-1])
        del j, dx, below, above  # from here on the call holds s, fc, gc and hstar

        # H at the levels k/n through the quantile: F[q-1] < u <= F[q]
        u = np.arange(n + 1) / n
        q = np.searchsorted(F, u, side="left")
        qi = np.clip(q, 1, max(last, 1))
        f0, x0 = F[qi - 1], xs[qi - 1]
        qu = x0 + (u - f0) * (xs[qi] - x0) / (F[qi] - f0)
        h = u * qu - (G[qi - 1] + (qu - x0) * 0.5 * (f0 + u))
        h = np.where(q == 0, u * xs[0], np.where(q > last, u * xs[-1] - G[-1], h))

    u0, u1, h0, h1 = u[:-1], u[1:], h[:-1], h[1:]
    hstar = s * fc
    hstar -= gc
    np.copyto(hstar, h0, where=fc < u0)
    np.copyto(hstar, h1, where=fc > u1)
    ustar = np.clip(fc, u0, u1, out=fc)
    ustar *= 2.0
    ustar -= u0
    ustar -= u1
    ustar *= s
    hstar *= 2.0
    ustar -= hstar
    ustar += h0
    ustar += h1
    return ustar.sum(axis=1)


def tv_densities(d1, d2, grid) -> float:
    """Total variation distance, half the L1 distance between densities."""
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if d1.shape != grid.shape or d2.shape != grid.shape:
        raise ValueError("densities and grid must share a shape")
    return 0.5 * float(np.trapezoid(np.abs(d1 - d2), grid))


def h_distance(x, y, rate):
    """|H(x) - H(y)| with H = f + arctan, the coupling metric; elementwise over arrays."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("potentials are nonnegative")
    hx = rate(x) + np.arctan(x)
    hx -= rate(y) + np.arctan(y)
    return np.abs(hx)


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def fit_rate(points) -> RateFit:
    """Least-squares slope of log(value) against log(N).

    points are (N, value) pairs with positive values; at least 3 needed.
    """
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if any(v <= 0 or n <= 0 for n, v in pts):
        raise ValueError("rate fit needs positive sizes and values")
    ln = np.log([n for n, _ in pts])
    lv = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(ln, lv, 1)
    pred = slope * ln + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
