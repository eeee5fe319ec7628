"""Independent brute-force oracles used only by the test suite.

These deliberately share no code with the package's solvers: the marginal
solver is cross-checked against a first-order upwind finite-difference
discretization of the strong transport equation, and the event-driven
simulator against a naive fixed-step Euler scheme with per-step jump
probabilities. reference_pass is the invariant solver's cumulative
quadrature pass as first written, one grid per refinement level, kept as
the bitwise reference of the faster pass.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from neuronmf.quadrature import QuadratureError


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


# the invariant pass's cap constants, as neuronmf.invariant has them
_PANELS = 16
_MAX_GROWTH = 120
_MAX_DOUBLINGS = 14


def _ratio(num, den):
    """num/den, and 1 where den = 0 (the limit of every use below)."""
    return np.divide(num, den, out=np.ones_like(den), where=den > 0)


def _x_of_v(v, s):
    """x(v) = (1 - exp(-s v))/s and x'(v) = exp(-s v), with s = lam/a."""
    z = s * v
    return v * _ratio(-np.expm1(-z), z), np.exp(-z)


def _running_simpson(y, h):
    """Running Simpson integral of samples y on a uniform grid of step h:
    whole panels at even nodes, a 3-point half-panel rule at odd ones."""
    out = np.zeros(y.size)
    np.cumsum(h / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2]), out=out[2::2])
    out[1::2] = out[:-2:2] + h / 12.0 * (5.0 * y[:-2:2] + 8.0 * y[1::2] - y[2::2])
    return out


def reference_pass(a, lam, rate, tol, extra=lambda x, dx, fx, e: []):
    """neuronmf.invariant._pass as it was before its V ladder and fine grids:
    every level, each rung of the V search included, on a grid of its own.

    Integrate at a on one graded grid v = V u^2, refined until converged.

    Simpson's rule in u gives the running inner exponent and the outer
    integrals; the grading makes fractional powers of x smooth at 0. V grows
    1.5x until the tails past it are below tol/10, and the panels double
    until every integral moves by less than tol. extra(x, x', f(x),
    exp(-inner)) may return more integrands in v, whose integrals over
    [0, V] come back in _Pass.extra. dGamma/da is integrated once, on the
    converged grid, and takes no part in the convergence test.
    """
    s = lam / a
    big_v, n, prev = 1.0, _PANELS, None
    while True:
        u = np.linspace(0.0, 1.0, n + 1)
        v = big_v * u * u
        x, dx = _x_of_v(v, s)
        fx = np.asarray(rate(x), dtype=float)
        jac = 2.0 * big_v * u  # dv/du
        h = 1.0 / n
        inner = _running_simpson(fx * jac / a, h)
        with np.errstate(over="ignore"):  # on a coarse grid the half-panel rule can dip far below 0
            e = np.exp(-inner)
        # outer Simpson weights in u times dv/du, which is 0 at node 0
        w = np.where(np.arange(n + 1) % 2, 4.0, 2.0) * jac * (h / 3.0)
        w[-1] *= 0.5
        vals = np.asarray([e * dx, e / a, e * x / a, e * fx / a] + extra(x, dx, fx, e)) @ w
        # tails past V, from inner(v) >= inner(V) + g (v - V) with g = f(x(V))/a
        # and x' <= 1: the int f g tail is exactly exp(-inner(V)). In Python
        # floats, so a rate that underflows gives an infinite tail, not a warning
        g, e_v = float(fx[-1]) / a, float(e[-1])
        vals[3] += e_v
        tail = e_v / g * max(1.0, 1.0 / a, (float(x[-1]) + 1.0 / g) / a) if g > 0.0 else math.inf
        finite = all(map(math.isfinite, vals.tolist()))  # a non-finite pass only doubles the panels
        if not tail < 0.1 * tol:
            if big_v >= 1.5**_MAX_GROWTH:
                raise QuadratureError(f"quadrature tail above {0.1 * tol} at V={big_v:.4g}")
            big_v, prev = 1.5 * big_v, None
        elif finite and prev is not None and np.max(np.abs(vals - prev)) < tol:
            break
        elif n >= _PANELS << _MAX_DOUBLINGS:
            raise QuadratureError(f"quadrature did not reach tol={tol} in {n} panels on [0, {big_v:.4g}]")
        else:
            prev, n = (vals if finite else None), 2 * n
    # at fixed v, dx/da = (x - v x')/a and dx'/da = x' v s/a, so the inner
    # exponent's a-derivative is the running integral of (f'(x) (x - v x') - f(x))/a^2
    d_inner = _running_simpson((rate.deriv(x) * (x - v * dx) - fx) * jac / (a * a), h)
    dgamma = float((e * dx * (v * (s / a) - d_inner)) @ w)
    return SimpleNamespace(
        v=v, inner=inner, slope=fx / a, gamma=vals[0], gamma1=vals[1], gamma2=vals[2], gamma3=vals[3],
        dgamma=dgamma, extra=vals[4:],
    )
