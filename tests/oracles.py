"""Independent brute-force oracles used only by the test suite.

These deliberately share no code with the package's solvers: the marginal
solver is cross-checked against a first-order upwind finite-difference
discretization of the strong transport equation, and the event-driven
simulator against a naive fixed-step Euler scheme with per-step jump
probabilities.
"""

from __future__ import annotations

import numpy as np


def upwind_marginals(rate, lam, g0_values, xs, horizon, cfl=0.8):
    """March d/dt g = (lam x - a_t) d/dx g + (lam - f(x)) g with g(t,0)=p/a.

    xs is a uniform grid; g0_values the initial density on it. Returns
    (g(T) on xs, times, a-series). First-order upwind in space, forward
    Euler in time, CFL-limited steps.
    """
    xs = np.asarray(xs, dtype=float)
    dx = xs[1] - xs[0]
    g = np.asarray(g0_values, dtype=float).copy()
    fv = np.asarray(rate(xs), dtype=float)
    t = 0.0
    times = [0.0]
    a_hist = []
    while t < horizon - 1e-12:
        p = np.trapezoid(fv * g, xs)
        m = np.trapezoid(xs * g, xs)
        a = lam * m + p
        a_hist.append(a)
        u = a - lam * xs  # transport speed toward larger x where positive
        dt = min(cfl * dx / max(np.max(np.abs(u)), 1e-12), horizon - t)
        gx = np.zeros_like(g)
        gx[1:] = (g[1:] - g[:-1]) / dx
        fwd = np.zeros_like(g)
        fwd[:-1] = (g[1:] - g[:-1]) / dx
        gx = np.where(u >= 0, gx, fwd)
        g = g + dt * (-u * gx + (lam - fv) * g)
        g[0] = p / a if a > 0 else 0.0
        g[-1] = 0.0
        t += dt
        times.append(t)
    a_hist.append(a_hist[-1] if a_hist else 0.0)
    return g, np.asarray(times), np.asarray(a_hist)


def euler_particle_mean(rate, lam, n, horizon, dt, replicates, rng):
    """Mean final empirical mean over replicates of a naive Euler scheme.

    All replicates advance together: per step each neuron jumps with
    probability f(x) dt, jumpers reset to 0, everyone else gains
    (number of jumps)/n, and the drift relaxes toward the replicate mean.
    State is float32 with preallocated buffers: per-step rounding (~1e-7)
    is far below the Monte-Carlo error this oracle is compared at. Jumps
    are rare (f(x) dt ~ 1e-4), so only the rows with a jump are updated;
    a row without one would gain exactly 0. At lam = 0 such a row does not
    move at all, so its jump probabilities f(x) dt are kept from the last
    step and recomputed only for the rows that jumped.
    Returns (mean of final xbar, standard error).
    """
    steps = int(round(horizon / dt))
    x = rng.exponential(1.0, size=(replicates, n)).astype(np.float32)
    u = np.empty_like(x)
    buf = np.empty_like(x)
    jumps = np.empty(x.shape, dtype=bool)
    xbar = np.empty((replicates, 1), dtype=np.float32)
    dt32 = np.float32(dt)
    inv_n = np.float32(1.0 / n)
    lam_dt = np.float32(lam * dt)
    prob = np.multiply(rate(x), dt32)
    for _ in range(steps):
        rng.random(out=u, dtype=np.float32)
        if lam:
            np.multiply(rate(x), dt32, out=prob)
        np.less(u, prob, out=jumps)
        if lam:
            # the row mean in numpy's float32 order, ((x_0 + x_1) + ...) / n, without a reduction
            xbar[:] = x[:, :1]
            for j in range(1, n):
                xbar += x[:, j : j + 1]
            xbar /= n
            np.subtract(xbar, x, out=buf)
            buf *= lam_dt
            x += buf
        flat = np.flatnonzero(jumps)
        if flat.size:
            rows = np.unique(flat // n)
            hit = jumps[rows]
            sub = x[rows]
            sub[hit] = 0.0
            sub += (hit.sum(axis=1, keepdims=True, dtype=np.int64) - hit).astype(np.float32) * inv_n
            x[rows] = sub
            if not lam:
                prob[rows] = rate(sub) * dt32
    final = x.mean(axis=1, dtype=np.float64)
    return float(final.mean()), float(final.std(ddof=1) / np.sqrt(replicates))
