"""Independent brute-force oracles used only by the test suite.

These deliberately share no code with the package's solvers: the marginal
solver is cross-checked against a first-order upwind finite-difference
discretization of the strong transport equation, and the event-driven
simulator against a naive fixed-step Euler scheme with per-step jump
probabilities. reference_pass is the invariant solver's cumulative
quadrature pass as first written, one grid per refinement level, kept as
the bitwise reference of the faster pass; reference_solve_marginals is the
marginal solver as first written, fresh temporaries in every step, and
reference_rate the rate evaluation before its out argument, kept as the
bitwise references of the solver on its workspace and of the rate kernel.
w1_merged is W1 against a law on the merged breakpoints of the two cdfs,
the reference of the package's quantile form, and w1_samples W1 between
two samples; stationarity_residual pairs the invariant law with the
limit's generator through reference_pass's extra integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from neuronmf.limitlaw import MarginalSolution, MassDriftError, TransportedDensity
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
    [0, V] come back in .extra. dGamma/da is integrated once, on the
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


_QUAD_ABS = 1e-10  # the invariant solver's pass tolerance, as neuronmf.invariant has it


@dataclass(frozen=True)
class SmoothFunction:
    """Smooth bounded test function with its derivative, for generator checks."""

    value: object
    deriv: object
    name: str = ""


def stationarity_residual(result, test_functions) -> float:
    """Max |generator pairing| over the test functions, integrated to _QUAD_ABS.

    For each phi, evaluates int [phi(0) - phi(x)] f(x) g(x) dx +
    int phi'(x) (a - lam x) g(x) dx, which vanishes at stationarity. In v,
    g dx = (p/a) exp(-inner) dv and (a - lam x) g dx = p exp(-inner) x' dv.
    result is a neuronmf.invariant.InvariantResult.
    """
    a, p = result.a_star, result.p

    def pairings(x, dx, fx, e):
        rows = []
        for tf in test_functions:
            phi0 = float(np.asarray(tf.value(0.0), float))
            jump = (phi0 - np.asarray(tf.value(x), float)) * fx * (p / a)
            drift = np.asarray(tf.deriv(x), float) * p * dx
            rows.append((jump + drift) * e)
        return rows

    res = reference_pass(a, result.lam, result.rate, _QUAD_ABS, extra=pairings).extra
    return float(np.max(np.abs(res), initial=0.0))


def w1_samples(u, v) -> float:
    """W1 between two equal-length empirical measures.

    In one dimension the optimal coupling matches order statistics, so the
    distance is the mean absolute difference of the sorted samples.
    """
    u = np.sort(np.asarray(u, dtype=float))
    v = np.sort(np.asarray(v, dtype=float))
    if u.size != v.size or u.size == 0:
        raise ValueError("need equal, nonzero sample sizes")
    return float(np.mean(np.abs(u - v)))


def w1_merged(samples, law) -> float:
    """W1 between a 1-d sample and a law with piecewise-linear cdf.

    Computes int |F_n - F| dx exactly on the merged breakpoints of the
    empirical cdf (steps at the sorted samples) and the law's cdf grid,
    splitting cells where the linear cdf crosses the empirical level. law
    is the (xs, F) pair of that cdf's grid and values.
    """
    xs, F = law
    xs = np.asarray(xs, dtype=float)
    F = np.asarray(F, dtype=float)
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size

    # merged breakpoints over the union of both supports
    grid = np.union1d(xs, s)
    lo = min(xs[0], s[0])
    hi = max(xs[-1], s[-1])
    grid = grid[(grid >= lo) & (grid <= hi)]
    f_law = np.interp(grid, xs, F, left=0.0, right=1.0)
    f_emp = np.searchsorted(s, grid, side="right") / n

    # d = F - F_n is linear on each cell except at empirical steps, which
    # sit exactly on breakpoints; integrate |linear| per cell analytically
    d_left = (f_law - f_emp)[:-1]
    # just before the right endpoint the empirical cdf still has its left value
    f_emp_right = np.searchsorted(s, grid[1:], side="left") / n
    d_right = np.interp(grid[1:], xs, F, left=0.0, right=1.0) - f_emp_right
    h = np.diff(grid)
    same = d_left * d_right >= 0
    area = np.where(
        same,
        0.5 * (np.abs(d_left) + np.abs(d_right)) * h,
        0.5 * (d_left**2 + d_right**2) / np.maximum(np.abs(d_right - d_left), 1e-300) * h,
    )
    return float(np.sum(area))


def reference_rate(rate, x):
    """neuronmf.model.RateFunction.__call__ as it was before its out argument."""
    out = None
    for e, c in rate.terms:  # x * x rounds like np.power(x, 2); x * x * x would not round like np.power(x, 3)
        term = c * x if e == 1 else (x * x if c == 1.0 else c * (x * x)) if e == 2 else c * np.power(x, e)
        out = term if out is None else out + term
    return out


# the marginal solver's constants, as neuronmf.limitlaw has them
_INIT_NODES = 2000  # nodes of a continuous initial law
_CORRECTOR_PASSES = 1  # per step, after the predictor
_ADAPT_REL = 0.02  # relative drift change above which a step is bisected


def _slab_geometry(lam: float, abar: float, dt: float):
    """Decay factors and flow offsets at {0, dt/2, dt} for constant drift."""
    if lam == 0.0:
        return (1.0, 1.0, 1.0), (0.0, 0.5 * abar * dt, abar * dt)
    d1 = math.exp(-0.5 * lam * dt)
    d2 = math.exp(-lam * dt)
    return (1.0, d1, d2), (0.0, abar * (1.0 - d1) / lam, abar * (1.0 - d2) / lam)


def _slab_survival(rate, positions, rates, decays, offsets, dt):
    """(end positions, their rates, exp(-int_slab f(phi))) per start; rates = f(positions).

    The survival exponent is 3-point Simpson over the slab.
    """
    end = decays[2] * positions + offsets[2]
    f2 = np.asarray(rate(end), dtype=float)
    f1 = np.asarray(rate(decays[1] * positions + offsets[1]), dtype=float)
    return end, f2, np.exp(-dt / 6.0 * (rates + 4.0 * f1 + f2))


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """w with w @ y == np.trapezoid(y, x) up to rounding."""
    w = np.zeros(x.size)
    half = 0.5 * np.diff(x)
    w[:-1] += half
    w[1:] += half
    return w


class _Nodes:
    """Every transported node of the solver, in arrays grown by doubling.

    The initial-law nodes come first, then the atoms, then from index j0
    the jump nodes in birth order. Each node has a position x, its rate f(x),
    a weight w (quadrature weight times birth density: g0 times the
    trapezoid weight in x, an atom's mass, or p at birth times the
    trapezoid weight in s) and its accumulated survival surv, so the
    represented mass is w @ surv (mass()). Jump nodes also keep their
    density value dens. The newest jump node holds only the left half of
    its s-interval; the right half comes with the next birth, from pb, that
    node's p at birth (no older node's is read, so pb is one float).
    """

    def __init__(self, rate, xs, g0v, atoms, capacity: int):
        self.j0 = xs.size + len(atoms)
        size = max(capacity, self.j0 + 1)
        self.x, self.f, self.w, self.surv, self.dens = np.zeros((5, size))
        self.x[: self.j0] = np.concatenate([xs, [x0 for x0, _ in atoms]])
        self.f[: self.j0] = np.asarray(rate(self.x[: self.j0]), dtype=float)
        self.w[: self.j0] = np.concatenate([g0v * _trapezoid_weights(xs), [mass for _, mass in atoms]])
        self.surv[: self.j0] = 1.0
        self.f0 = float(rate(0.0))  # rate of a newborn node at the reset point
        self.n = self.j0

    def birth(self, pb: float, dens: float, weight: float):
        """Append a jump node at the reset point 0 with survival 1."""
        if self.n == self.x.size:
            for name in ("x", "f", "w", "surv", "dens"):
                old = getattr(self, name)
                new = np.zeros(2 * old.size)
                new[: old.size] = old
                setattr(self, name, new)
        k = self.n
        self.x[k], self.f[k], self.w[k], self.surv[k], self.dens[k] = 0.0, self.f0, weight, 1.0, dens
        self.pb = pb
        self.n += 1

    def mass(self) -> float:
        return float(self.w[: self.n] @ self.surv[: self.n])


def reference_solve_marginals(config, *, snapshot_times=()):
    """neuronmf.limitlaw.solve_marginals as it was before its workspace:
    every step's arrays are fresh temporaries, copied into the nodes at commit.

    March the transported density over [0, horizon] in steps of config.dt.

    Initial-law nodes, atoms and jump nodes share one set of arrays
    (_Nodes), so a predictor or corrector pass is one _slab_survival call
    over all nodes, one position update and two dot products (p and m).
    One new jump node is born per step, so memory is O(horizon/dt). Steps
    over which the drift would change by more than _ADAPT_REL (relatively)
    are bisected, up to 8 levels, which resolves fast initial transients
    without shrinking dt globally. After each step the mass w @ surv is
    recomputed from the node arrays (_Nodes.mass, which a snapshot keeps as
    its mass()); the solve aborts with MassDriftError when it leaves
    [1 - mass_abs, 1 + mass_abs]. snapshot_times may repeat and come in any
    order.
    """
    lam = config.lam
    rate = config.rate
    horizon = config.horizon
    mass_abs = config.tolerances.mass_abs
    dt = config.dt

    snap_req = np.unique(config.check_times(snapshot_times))

    k = max(2, int(round(horizon / dt)))
    grid = np.union1d(np.linspace(0.0, horizon, k + 1), snap_req)
    grid = grid[np.concatenate([[True], np.diff(grid) > 1e-9 * dt])]

    xs, g0v, atoms = config.initial.solver_nodes(_INIT_NODES)
    ni = xs.size

    p0 = float(np.trapezoid(np.asarray(rate(xs), float) * g0v, xs)) if xs.size else 0.0
    m0 = float(np.trapezoid(xs * g0v, xs)) if xs.size else 0.0
    for x0, mass in atoms:
        p0 += float(rate(x0)) * mass
        m0 += x0 * mass
    a0 = lam * m0 + p0

    nodes = _Nodes(rate, xs, g0v, atoms, capacity=ni + len(atoms) + grid.size)
    nodes.birth(p0, p0 / a0 if a0 > 0 else 0.0, 0.0)  # the s=0 node rides at the splice point
    decay0 = 1.0

    times = [0.0]
    a_series = [a0]
    p_series = [p0]
    m_series = [m0]
    snapshots = []

    def freeze(t, a_t, p_t):
        j0, n = nodes.j0, nodes.n
        snapshots.append(
            TransportedDensity(
                t=float(t),
                splice=float(nodes.x[j0]),
                a_t=a_t,
                p_t=p_t,
                node_mass=nodes.mass(),
                jump_pos=nodes.x[j0:n].copy(),
                jump_weight=nodes.surv[j0:n].copy(),
                jump_density=nodes.dens[j0:n].copy(),
                init_x=xs,
                init_pos=nodes.x[:ni].copy(),
                init_g0=g0v,
                init_density=g0v * nodes.surv[:ni] / decay0,
                atoms=[
                    (x0, float(nodes.x[ni + i]), mass, mass * float(nodes.surv[ni + i]))
                    for i, (x0, mass) in enumerate(atoms)
                ],
            )
        )

    # each requested time freezes at the kept grid node at or just before it
    snap_steps = set((np.searchsorted(grid, snap_req, side="right") - 1).tolist())
    if 0 in snap_steps:
        freeze(0.0, a0, p0)

    def attempt(t_lo: float, t_hi: float):
        """Predictor-corrector trial step [t_lo, t_hi]; nothing committed."""
        h = t_hi - t_lo
        n = nodes.n
        x = nodes.x[:n]
        f = nodes.f[:n]
        ws = nodes.w[:n] * nodes.surv[:n]
        # the newest jump node's right half-interval, up to the node born at t_hi
        ws[-1] += 0.5 * h * nodes.pb * nodes.surv[n - 1]
        abar = a_series[-1]
        for _ in range(1 + _CORRECTOR_PASSES):
            decays, offsets = _slab_geometry(lam, abar, h)
            x_new, f_new, fac = _slab_survival(rate, x, f, decays, offsets, h)
            wsf = ws * fac
            p_new = float(wsf @ f_new)
            m_new = float(wsf @ x_new)
            a_new = lam * m_new + p_new
            if not math.isfinite(a_new):
                raise MassDriftError(f"non-finite drift at t={t_hi}")
            abar = 0.5 * (a_series[-1] + a_new)  # trapezoidal average for the redo
        return x_new, f_new, fac, decays[2], p_new, m_new, a_new

    for step in range(grid.size - 1):
        pending = [(float(grid[step]), float(grid[step + 1]))]
        while pending:
            t, t_next = pending.pop()
            x_new, f_new, fac, d2, p_new, m_new, a_new = attempt(t, t_next)

            a_prev = a_series[-1]
            scale = max(abs(a_prev), abs(a_new), 1e-12)
            if (
                abs(a_new - a_prev) > _ADAPT_REL * scale
                and (t_next - t) > (grid[step + 1] - grid[step]) / 256.0
            ):
                mid = 0.5 * (t + t_next)
                pending.append((mid, t_next))
                pending.append((t, mid))
                continue

            # commit the slab
            j0, n = nodes.j0, nodes.n
            nodes.x[:n] = x_new
            nodes.f[:n] = f_new
            nodes.surv[:n] *= fac
            nodes.dens[j0:n] *= fac[j0:]
            nodes.dens[j0:n] *= 1.0 / d2
            nodes.w[n - 1] += 0.5 * (t_next - t) * nodes.pb
            decay0 *= d2
            nodes.birth(p_new, p_new / a_new if a_new > 0 else 0.0, 0.5 * (t_next - t) * p_new)

            times.append(float(t_next))
            a_series.append(a_new)
            p_series.append(p_new)
            m_series.append(m_new)

            mass = nodes.mass()
            if abs(mass - 1.0) > mass_abs:
                raise MassDriftError(f"mass {mass:.8f} drifted beyond {mass_abs} at t={t_next}")

        if step + 1 in snap_steps:
            freeze(grid[step + 1], a_series[-1], p_series[-1])

    return MarginalSolution(
        lam=lam,
        rate=rate,
        times=np.asarray(times),
        a=np.asarray(a_series),
        p=np.asarray(p_series),
        m=np.asarray(m_series),
        snapshots=snapshots,
    )
