"""Time-marginals of the limit dynamics and simulation of the limit process.

The law g(t) of the limit potential is represented in Lagrangian form,
following the structure of the dynamics itself: mass born at the reset
point 0 at past spike times s is transported along the deterministic flow
and damped by the survival kernel, while the surviving initial mass rides
the flow from its original position. Writing phi and kappa for the flow
and survival kernel of the solved drift a_t,

  * jump part, y in [0, phi_{0,t}(0)):   born at s, position phi_{s,t}(0),
    density (p_s / a_s) * exp(lam (t-s)) * kappa_{s,t}(0);
  * initial part, y >= phi_{0,t}(0):     density g0(x) kappa_{0,t}(x) e^{lam t}
    at position phi_{0,t}(x);
  * atoms of the initial law transported the same way.

The splice point phi_{0,t}(0) moves right with time and the jump density
at 0 equals p_t / a_t by construction. Time stepping is one
predictor-corrector pass per dt-slab on the self-consistent drift
a_t = lam * m_t + p_t, with per-slab survival factors accumulated
multiplicatively, so the representation never diffuses numerically.

The limit process itself is simulated by thinning against the same drift
(_LimitPaths: one bound and one position formula, on the drift's cached
flow integral, so every path and batch on one solution shares it). A
single path runs its own short loop, one proposal at a time. The
particle/limit coupling runs R replicates of the N-neuron system in
lockstep on (R, N) arrays (_coupled_loop, on particle's engine rules):
every proposal's mark is logged for its limit path, and the paths take
the logged marks in one vectorized pass at each window end and snapshot,
which all rows share. Every pass covers the whole batch, so its memory
grows with R N and the caller sizes the batch (the chaos command caps it
at cli._BATCH_CELLS cells). Each snapshot's W1 is one call for all rows,
from the law's table (TransportedDensity.w1_table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import h_distance, w1_samples_vs_law
from .model import ConfigError, DriftSeries, FlowIntegral, RateFunction, SystemConfig
from .particle import (
    _EPOCH_DRIFT,
    EventBudgetExceededError,
    EventLog,
    _dominating_rates,
    _first_blocks,
    _initial_state,
)
from .quadrature import cumulative_trapezoid
from .rng import uniform_array
from .rng import substream  # noqa: F401  (benchmark/tracing.py wraps this name)


class MassDriftError(RuntimeError):
    """Representation lost more probability mass than mass_abs allows."""


# ---------------------------------------------------------------------------
# Transported density snapshots
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransportedDensity:
    """Frozen two-part (plus atoms) representation of g(t).

    Jump nodes come in birth order. mass() is the solver's own w @ surv at
    the freeze, the value its MassDriftError check took after that step.
    """

    t: float
    splice: float  # phi_{0,t}(0)
    a_t: float
    p_t: float
    node_mass: float
    jump_pos: np.ndarray  # positions, descending in s
    jump_weight: np.ndarray  # kappa_{s,t}(0)
    jump_density: np.ndarray
    init_x: np.ndarray
    init_pos: np.ndarray
    init_g0: np.ndarray
    init_density: np.ndarray  # g0 kappa_{0,t} e^{lam t} at init_pos
    atoms: list  # (origin, position, original mass, surviving mass)

    def mass(self) -> float:
        return self.node_mass

    def density(self, y):
        """Pointwise density (atoms excluded); zero outside the support."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        yv = np.atleast_1d(y).astype(float)
        if np.any(yv < 0):
            raise ValueError("density evaluated at a negative position")
        out = np.zeros_like(yv)
        below = yv < self.splice
        if np.any(below):
            ys = self.jump_pos[::-1]
            ds = self.jump_density[::-1]
            out[below] = np.interp(yv[below], ys, ds)
        if np.any(~below) and self.init_x.size:
            dens = self.init_density
            out[~below] = np.interp(yv[~below], self.init_pos, dens, left=dens[0], right=0.0)
        return float(out[0]) if scalar else out

    def cdf_grid(self):
        """Piecewise-linear cdf (ys, F), normalized to end at exactly 1."""
        cached = getattr(self, "_cdf_cache", None)
        if cached is not None:
            return cached
        ys = self.jump_pos[::-1]
        ds = self.jump_density[::-1]
        if self.init_x.size:
            ys = np.concatenate([ys, self.init_pos])
            ds = np.concatenate([ds, self.init_density])
        cdf = cumulative_trapezoid(ds, ys)
        for _, pos, _, mass in sorted(self.atoms, key=lambda a: a[1]):
            k = np.searchsorted(ys, pos, side="right")
            ys = np.insert(ys, k, pos)
            cdf = np.insert(cdf, k, cdf[k - 1] if k > 0 else 0.0)
            cdf[k:] += mass
        total = cdf[-1]
        if total <= 0:
            raise MassDriftError("empty transported density")
        cdf = cdf / total
        self._cdf_cache = (ys, cdf)
        return self._cdf_cache

    def w1_table(self):
        """(ys, F, G): cdf_grid() and G = int F from its first node, for the rows form of
        metrics.w1_samples_vs_law."""
        cached = getattr(self, "_w1_cache", None)
        if cached is None:
            ys, cdf = self.cdf_grid()
            cached = self._w1_cache = (ys, cdf, cumulative_trapezoid(cdf, ys))
        return cached

    def support(self):
        hi = self.init_pos[-1] if self.init_x.size else self.splice
        hi = max(hi, max((a[1] for a in self.atoms), default=0.0))
        return 0.0, float(hi)

    def rows(self):
        """(y, density, part) rows for CSV export."""
        out = [(float(y), float(d), "jump") for y, d in zip(self.jump_pos[::-1], self.jump_density[::-1])]
        out += [(float(y), float(d), "initial") for y, d in zip(self.init_pos, self.init_density)]
        out += [(float(pos), float(mass), "atom") for _, pos, _, mass in self.atoms]
        return out


@dataclass(eq=False)
class MarginalSolution:
    """Drift, mean-rate and mean series plus frozen densities at snapshots."""

    lam: float
    rate: RateFunction
    times: np.ndarray
    a: np.ndarray
    p: np.ndarray
    m: np.ndarray
    snapshots: list

    def __post_init__(self):
        # one series per solution, so its flow cache serves every caller
        self._drift = DriftSeries(times=self.times, a=self.a)

    def drift(self) -> DriftSeries:
        return self._drift

    def snapshot_at(self, t: float) -> TransportedDensity:
        for snap in self.snapshots:
            if abs(snap.t - t) <= 1e-9 * max(1.0, abs(t)):
                return snap
        raise KeyError(f"no stored snapshot at t={t}")


# ---------------------------------------------------------------------------
# Marginal solver
# ---------------------------------------------------------------------------


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


def solve_marginals(config: SystemConfig, *, snapshot_times=()) -> MarginalSolution:
    """March the transported density over [0, horizon] in steps of config.dt.

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
    snapshots: list[TransportedDensity] = []

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


# ---------------------------------------------------------------------------
# Nonlinear process: single paths and the particle/limit coupling
# ---------------------------------------------------------------------------


# drift mass per window of the coupled limit paths: a path's bound sits at
# most this far above its anchor, so few proposals are wasted on it
_WINDOW_DRIFT = 1.0 / 16.0


class _LimitPaths:
    """Paths of the limit process on a solved drift, thinned by outside marks.

    A path flows from its anchor and jumps to 0 at a proposal (t, z) iff
    z <= f(y(t)). All paths share one anchor time t0 (with i0 = I(t0)), at
    which path i sits at ya[i]. by[i] dominates its jump rate up to the
    window end w: between jumps y' = a - lam y <= abar - lam y, so by
    comparison y(t) <= ya + (1 - e^{-lam (w - t0)}) (abar/lam - ya)^+ on
    [t0, w] for lam > 0, and y(t) <= ya + I(w) - I(t0) for lam = 0 (f is
    nondecreasing); a path that jumps restarts at 0 below its anchor, so the
    bound stays valid after jumps. I is the drift's cached flow integral fi
    (DriftSeries.integral), shared by every batch on the drift; the bound
    position carries a slack that covers its quadrature. Windows are
    window/abar long (one window up to t_end by default).

    Paths may take (R, N) shape, R replicates of N. advance applies a batch
    of proposals and re-anchors all paths at a later time; next_window
    does so at the window end and bounds the paths up to the next one. A
    single path may instead take its proposals one at a time (propose),
    each re-anchoring and re-bounding it.
    """

    def __init__(self, drift: DriftSeries, rate: RateFunction, lam: float, t_end=None, window=math.inf):
        self.fi = drift.integral(lam)
        self.rate = rate
        self.lam = lam
        self.t_end = self.fi.t_end if t_end is None else float(t_end)
        self.abar = self.fi.a_max
        self.slack = 10.0 * self.fi.tol  # covers the quadrature error of the computed flow
        self.h = window / self.abar if self.abar > 0 else math.inf

    def start(self, y0):
        """Anchor the paths at y0 at time 0 and bound them up to the first window end."""
        self.ya = np.array(y0, dtype=float)
        self.by = np.empty(self.ya.shape)
        self.t0, self.i0 = 0.0, self.fi.at(0.0)
        self.k = 0
        self._bound_window()

    def _bound_window(self):
        self.k += 1
        self.w = min(self.k * self.h, self.t_end)
        self.i_w = self.fi.at(self.w)
        self.by[...] = self._bounds(self.ya, self.t0, self.i0)

    def _bounds(self, ya, ta, ia):
        if self.lam == 0.0:
            x = ya + (self.i_w - ia)
        else:  # ya + (1 - e^{-lam (w - ta)}) (abar/lam - ya)^+, in place
            x = self.abar / self.lam - ya
            np.maximum(x, 0.0, out=x)
            x *= -np.expm1(-self.lam * (self.w - ta))
            x += ya
        x += self.slack
        return np.asarray(self.rate(x), dtype=float)

    def positions(self, t: float) -> np.ndarray:
        """The paths at t, if no proposal came between their anchor and t."""
        return self.fi.at(t) + np.exp(-self.lam * (t - self.t0)) * (self.ya - self.i0)

    def advance(self, t1: float, cells=(), times=(), marks=()):
        """Apply proposals (t, z) to the paths, then re-anchor every path at t1.

        cells are flat path indices, with each path's proposals in time
        order, times their times (none past t1) and marks their z. The
        proposals of all paths are taken in rounds, the k-th of every path
        in round k. Returns each proposal's overshoot flag: the path's rate
        above its bound.
        """
        cells, times, marks = (np.asarray(a) for a in (cells, times, marks))
        lam, i1 = self.lam, self.fi.at(t1)
        ya = self.ya.reshape(-1)
        over = np.zeros(cells.size, dtype=bool)
        if cells.size:
            order = np.argsort(cells, kind="stable")
            c = cells[order]
            first = np.concatenate([[True], c[1:] != c[:-1]])
            group = np.cumsum(first) - 1
            starts = first.nonzero()[0]
            rank = np.arange(c.size) - starts[group]
            path = c[starts]
            ay, at, ai = ya[path], np.full(path.size, self.t0), np.full(path.size, self.i0)
            for k in range(int(rank.max()) + 1):
                sel = (rank == k).nonzero()[0]
                g, rec, t = group[sel], order[sel], times[order[sel]]
                i_t = self.fi.rows(t)
                y = i_t + (ay[g] - ai[g]) if lam == 0.0 else i_t + np.exp(-lam * (t - at[g])) * (ay[g] - ai[g])
                fy = self.rate(y)
                over[rec] = fy > self.by.reshape(-1)[c[sel]]
                y[marks[rec] <= fy] = 0.0  # the jumps
                ay[g], at[g], ai[g] = y, t, i_t
        # every path flows on to t1 from its anchor, in place: I(t1) + e^{-lam (t1 - t0)} (ya - I(t0))
        ya -= self.i0
        if lam != 0.0:
            ya *= math.exp(-lam * (t1 - self.t0))
        if cells.size:
            ya[path] = ay - ai if lam == 0.0 else np.exp(-lam * (t1 - at)) * (ay - ai)
        ya += i1
        self.t0, self.i0 = t1, i1
        return over

    def next_window(self, cells=(), times=(), marks=()):
        """advance to the window end, then bound every path up to the next; returns advance's flags."""
        over = self.advance(self.w, cells, times, marks)
        self._bound_window()
        return over

    def propose(self, t: float, z: float) -> bool:
        """Whether a single path jumps at the proposal (t, z), which re-anchors and re-bounds it."""
        i_t = self.fi.at(t)
        y = i_t + math.exp(-self.lam * (t - self.t0)) * (self.ya.item(0) - self.i0)
        jumped = z <= self.rate(y)
        y = 0.0 if jumped else y
        self.ya[0], self.t0, self.i0 = y, t, i_t
        lam = self.lam
        rise = self.i_w - i_t if lam == 0.0 else -math.expm1(-lam * (self.w - t)) * max(self.abar / lam - y, 0.0)
        self.by[0] = self.rate(y + rise + self.slack)
        return jumped


@dataclass
class NonlinearPath:
    """One realization of the limit process: flow between jumps, resets to 0."""

    y0: float
    jump_times: np.ndarray
    lam: float
    _flow: FlowIntegral

    def value(self, t: float) -> float:
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        s, y = (0.0, self.y0) if k == 0 else (float(self.jump_times[k - 1]), 0.0)
        return self._flow.at(t) + math.exp(-self.lam * (t - s)) * (y - self._flow.at(s))


def simulate_nonlinear_path(
    drift: DriftSeries,
    y0: float,
    rate: RateFunction,
    lam: float,
    rng: np.random.Generator,
    t_end: float | None = None,
) -> NonlinearPath:
    """Exact thinning of one limit path against the solved drift.

    Proposals run at the _LimitPaths bound for the single window [0, t_end],
    re-anchored at every proposal: between jumps y' <= abar - lam y, so
    the flow from (t_i, y_i) stays below the comparison solution at t_end
    (y_i + I(t_end) - I(t_i) when lam = 0). Acceptance needs only
    pointwise flow values.
    """
    paths = _LimitPaths(drift, rate, lam, t_end)
    paths.start([y0])
    jumps = []
    t = 0.0
    while paths.by[0] > 0.0:
        t = t + rng.exponential() / paths.by[0]
        if t >= paths.t_end:
            break
        if paths.propose(t, rng.random() * paths.by[0]):
            jumps.append(t)
    return NonlinearPath(y0=float(y0), jump_times=np.asarray(jumps), lam=lam, _flow=paths.fi)


@dataclass
class CoupledStats:
    """Per-snapshot coupling statistics of one replicate, averaged over its N neurons."""

    n: int
    snapshot_times: np.ndarray
    mean_abs_diff: np.ndarray
    mean_h_diff: np.ndarray
    w1: np.ndarray
    proposals: int = 0  # thinning counters
    bound_overshoots: int = 0


def simulate_coupled(
    config: SystemConfig,
    sol: MarginalSolution,
    snapshot_times,
    event_budget: int = 100_000_000,
    *,
    seeds,
) -> list[CoupledStats]:
    """Replicates of the particle system coupled to N limit processes.

    Runs the coupled engine (_coupled_loop): limit path i starts at the
    same draw as particle i and consumes the same proposal stream: each
    proposal (tau, u) carries the mark z = u * B_i with B_i the larger of
    the two bounds, and each process jumps iff z undercuts its own current
    rate, which realizes one shared driving measure per index. Kicks reach
    only the particles; the limit paths ride the solved drift, bounded per
    window of drift mass 1/16 (_LimitPaths). Any dominating envelope thins
    the same Poisson measure (Lewis-Shedler), so the windows and the
    particles' bound epochs change the proposal sequence, not the
    coupling's law.

    Runs one replicate per seed as one batch in lockstep (config.seed is
    ignored) and returns one CoupledStats per seed, in order. Replicate r
    depends only on seeds[r]: its stats equal, bitwise, those of the batch
    [seeds[r]] alone, whatever else the batch holds. event_budget caps each
    replicate's spike count.
    """
    seeds = [int(seed) for seed in seeds]
    snap_times = np.sort(config.check_times(snapshot_times))
    if not seeds:
        raise ConfigError("coupled run needs at least one seed")
    if snap_times.size == 0:
        raise ConfigError("coupled run needs at least one snapshot time")
    if sol.times[-1] < config.horizon - 1e-9:
        raise ConfigError("marginal solution must cover the run horizon")
    laws = [sol.snapshot_at(ts) for ts in snap_times]

    f = config.rate
    paths = _LimitPaths(sol.drift(), f, config.lam, t_end=config.horizon, window=_WINDOW_DRIFT)
    mean_abs, mean_h, w1s = np.zeros((3, len(seeds), snap_times.size))

    def observe(k, x, y):
        d = x - y
        mean_abs[:, k] = np.abs(d, out=d).mean(axis=1)
        mean_h[:, k] = h_distance(x, y, f).mean(axis=1)
        w1s[:, k] = w1_samples_vs_law(x, laws[k])

    logs, _ = _coupled_loop(config, seeds, paths, snap_times, observe, event_budget, log_events=False)
    return [
        CoupledStats(
            n=config.n,
            snapshot_times=snap_times,
            mean_abs_diff=mean_abs[r],
            mean_h_diff=mean_h[r],
            w1=w1s[r],
            proposals=log.proposals,
            bound_overshoots=log.bound_overshoots,
        )
        for r, log in enumerate(logs)
    ]


# rows of the coupled engine's per-neuron array: the particle's stored value
# y, its bound bx and the number of proposals the neuron made; proposals run
# at max(bx, by), with by the limit path's bound
_Y, _BX, _DRAWN = range(3)
# and of its per-row array: the affine map x = amp * (y + shift), the mean
# xbar and the time of the row's last spike
_AMP, _SHIFT, _XBAR, _LAST = range(4)


def _coupled_loop(config, seeds, paths, snap_times, observe, event_budget, log_events):
    """The coupled engine: R = len(seeds) replicates of config in lockstep on (R, N) arrays.

    Row r is particle's engine on the streams of (seeds[r], "prop"), on
    the rules it shares with particle.simulate, with its own run key,
    affine map, spike count, bound epochs and draws, and with the N limit
    paths of paths (started here, shape (R, N)) as its shadow. Proposals
    run at B = max(bx, by), where by bounds the paths up to the window end
    paths.w, and each proposal's mark z = u * B_i is logged for limit path
    i, which takes it when the paths next advance (_LimitPaths.advance).

    Window ends and snapshot times are common to all rows. Each step takes
    one proposal in every row whose next proposal comes before both (a
    snapshot within 1e-15 of a proposal is observed first); the other rows
    idle. Once every row idles, the earliest common time is handled once
    for the batch: the limit paths advance to it, then a snapshot observes
    every row, and a window end rebounds the paths and rescales all clocks
    in one O(R N) pass over the whole batch. Epoch rebuilds, refills, folds
    and the event budget stay per row, so no row's arithmetic depends on
    another's.

    observe(k, x, y) receives the (R, N) potentials of the particles and
    of the limit paths at the k-th snapshot time. Returns (one EventLog per
    row, the number of window ends); a row's rebuilds count its first bound
    pass and its epoch passes, and its spikes are logged only with
    log_events.
    """
    lam, f, horizon, n = config.lam, config.rate, config.horizon, config.n
    rows = len(seeds)
    m = max(1, int(_EPOCH_DRIFT * n))
    labels = list(range(n))

    # neuron j of the flattened (R, N) state reads its stream as pairs (mark,
    # clock), four to a block: pair 0 is its initial potential and first
    # clock, and its proposal k takes pair k + 1 (its mark and the clock to
    # the next). pairs[j] holds the neuron's current block, refilled in place
    # when proposal k reaches the block's first pair; a clock is kept as its
    # unit exponential -log1p(-u)
    cells = np.zeros((3, rows * n))
    y, bx, drawn = cells.reshape(3, rows, n)  # (R, N) views
    keys, xbar0 = [], np.empty(rows)
    pairs = np.empty((rows, n, 4, 2))
    for r, seed in enumerate(seeds):
        key, block = _first_blocks(seed, labels)
        start = _initial_state(config, block[:, 0])
        keys.append(key)
        y[r], xbar0[r] = start.anchor_x, start.xbar
        pairs[r, :, :, 0], pairs[r, :, :, 1] = block[:, ::2], -np.log1p(-block[:, 1::2])
    next_time = pairs[:, :, 0, 1].copy()  # unit-rate clocks drawn at time 0
    pairs = pairs.reshape(-1, 4, 2)

    x0 = y.copy() if log_events else np.zeros((rows, 0))
    paths.start(y)
    state = np.zeros((4, rows))
    amp, shift, xbar, last = state
    amp[:], xbar[:] = 1.0, xbar0
    bx[:] = _dominating_rates(f, lam, n, y, shift[:, None], amp[:, None], xbar[:, None])
    next_time /= np.maximum(bx, paths.by)
    ntf, row_base = next_time.reshape(-1), np.arange(rows) * n

    def rebuild(e, now):  # bound pass of rows e at their times now
        new_bx = _dominating_rates(f, lam, n, y[e], shift[e, None], amp[e, None], xbar[e, None])
        by = paths.by[e]
        nt = next_time[e]
        nt -= now[:, None]
        nt *= np.maximum(bx[e], by)
        nt /= np.maximum(new_bx, by)
        nt += now[:, None]
        bx[e], next_time[e] = new_bx, nt
        rebuilds[e] += 1

    overshoots, spikes, rebuilds = np.zeros((3, rows), dtype=np.int64)
    rebuilds += 1
    total_spikes = windows = snap_i = 0
    events, pending = [], []  # spikes to log; proposals the limit paths have not taken
    snaps = snap_times.tolist() + [math.inf]

    def catch_up(over):  # limit overshoots of the pending proposals, counted per row
        if np.count_nonzero(over):
            overshoots[:] += np.bincount(np.concatenate([c[0] for c in pending])[over] // n, minlength=rows)
        pending.clear()

    def pending_proposals():
        return [np.concatenate(c) for c in zip(*pending)] if pending else ()

    edge = min(paths.w, math.nextafter(snaps[0] - 1e-15, -math.inf))  # last time a proposal is taken
    while True:
        idx = next_time.argmin(axis=1)
        flat = row_base + idx
        tau = ntf.take(flat)
        act = (tau <= edge).nonzero()[0]
        if act.size == 0:
            w = paths.w
            if snaps[snap_i] <= w + 1e-15 or w >= horizon:
                if snap_i == snap_times.size:
                    catch_up(paths.advance(horizon, *pending_proposals()))
                    break
                ts = snaps[snap_i]
                catch_up(paths.advance(ts, *pending_proposals()))
                x = y + shift[:, None]  # at lam = 0 (amp = 1) the potentials rest at their anchors
                if lam != 0.0:  # xbar + decay * (amp * x - xbar), in place
                    x *= amp[:, None]
                    x -= xbar[:, None]
                    x *= np.exp(-lam * (ts - last))[:, None]
                    x += xbar[:, None]
                observe(snap_i, x, paths.ya)
                snap_i += 1
            else:  # the window end: the paths advance and rebound, all clocks rescale
                next_time -= w
                next_time *= np.maximum(bx, paths.by)
                catch_up(paths.next_window(*pending_proposals()))
                next_time /= np.maximum(bx, paths.by)
                next_time += w
                windows += 1
            edge = min(paths.w, math.nextafter(snaps[snap_i] - 1e-15, -math.inf))
            continue

        # one proposal in each active row: neuron i at time t, cell j
        t, j = tau.take(act), flat.take(act)
        g = cells.take(j, axis=1)
        r = state.take(act, axis=1)
        xi = r[_AMP] * (g[_Y] + r[_SHIFT])
        if lam != 0.0:  # xbar + decay * (xi - xbar); at lam = 0 the potential rests at its anchor
            decay = np.exp(-lam * (t - r[_LAST]))
            xi -= r[_XBAR]
            xi *= decay
            xi += r[_XBAR]
        fx = f(xi)
        q = g[_DRAWN].astype(np.intp) + 1  # the proposal's pair
        refill = (q % 4 == 0).nonzero()[0]  # neurons whose pair q starts a block
        for jj, b in zip(j.take(refill).tolist(), (q.take(refill) // 4).tolist()):
            block = pairs[jj]
            block[:] = uniform_array(keys[jj // n], [jj % n], b, 1).reshape(4, 2)
            block[:, 1] = -np.log1p(-block[:, 1])
        draws = pairs.reshape(-1, 2).take(j * 4 + q % 4, axis=0)
        bound = np.maximum(g[_BX], paths.by.take(j))
        z = draws[:, 0] * bound
        pending.append((j, t, z))
        over = fx > g[_BX]
        if np.count_nonzero(over):
            overshoots[act[over]] += 1
        g[_DRAWN] += 1.0
        hit = (z <= fx).nonzero()[0]
        if hit.size == 0:
            cells[:, j] = g
            ntf[j] = t + draws[:, 1] / bound
            continue

        # the spikes: each spiking row drifts to t and takes the kick 1/N; its spiker resets to 0
        srows, th, xh = act.take(hit), t.take(hit), xi.take(hit)
        rh = r.take(hit, axis=1)
        a_h, s_h, m_h, t_h = rh
        if lam != 0.0:
            d = decay.take(hit)
            # fold the drift into y, long before amp can underflow (amp * d >= e^{-lam horizon})
            for q in (a_h * d < 1e-100).nonzero()[0].tolist() if lam * horizon > 200.0 else ():
                k = srows[q]
                y[k] = m_h[q] + d[q] * (a_h[q] * (y[k] + s_h[q]) - m_h[q])
                a_h[q], s_h[q], d[q] = 1.0, 0.0, 1.0
            a_h *= d
            s_h += ((1.0 - d) * m_h + 1.0 / n) / a_h
            t_h[:] = th
        else:  # amp stays 1
            s_h += 1.0 / n
        m_h += ((n - 1) / n - xh) / n
        state[:, srows] = rh
        g[_Y, hit] = -s_h
        cells[:, j] = g
        count = spikes.take(srows) + 1
        spikes[srows] = count
        total_spikes += hit.size
        if total_spikes > event_budget and count.max() > event_budget:
            raise EventBudgetExceededError(f"more than {event_budget} spikes")
        if log_events:
            events.append((srows, th, idx.take(srows), xh))
        for k in srows[count % 4096 == 0].tolist() if total_spikes >= 4096 else ():
            y[k] = amp[k] * (y[k] + shift[k])  # fold the affine map into y
            amp[k], shift[k] = 1.0, 0.0
            xbar[k] = float(np.sort(y[k]).mean())  # cap float drift of the running mean
        due = (count % m == 0).nonzero()[0]  # rows whose bound epoch ends
        if due.size:
            rebuild(srows.take(due), th.take(due))
        ntf[j] = t + draws[:, 1] / (np.maximum(bx.take(j), paths.by.take(j)) if due.size else bound)

    # each row's spikes, in time order: a stable sort by row keeps the step order
    ev_rows, ev_t, ev_i, ev_x = (np.concatenate(c) for c in zip(*events)) if events else np.zeros((4, 0))
    order = np.argsort(ev_rows, kind="stable")
    cuts = np.cumsum(np.bincount(ev_rows.astype(int), minlength=rows))[:-1]
    per_row = zip(*(np.split(c[order], cuts) for c in (ev_t, ev_i.astype(int), ev_x)))
    proposals = drawn.sum(axis=1).astype(np.int64)  # each proposal moved its neuron one pair on
    logs = [
        EventLog(times, i_r, pre, int(proposals[r]), x0[r], int(overshoots[r]), int(rebuilds[r]))
        for r, (times, i_r, pre) in enumerate(per_row)
    ]
    return logs, windows
