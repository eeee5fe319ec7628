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
(_LimitPaths: one bound, one step and one position formula). A single
path runs its own short loop; the particle/limit coupling hands N paths
to particle's event loop, which drives them with the particles' marks.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .metrics import w1_samples_vs_law
from .model import ConfigError, DriftSeries, RateFunction, SystemConfig
from .particle import _event_loop
from .quadrature import cumulative_trapezoid
from .rng import substream  # noqa: F401  (benchmark/tracing.py wraps this name)


class MassDriftError(RuntimeError):
    """Representation lost more probability mass than mass_abs allows."""


# ---------------------------------------------------------------------------
# Transported density snapshots
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransportedDensity:
    """Frozen two-part (plus atoms) representation of g(t)."""

    t: float
    lam: float
    splice: float  # phi_{0,t}(0)
    decay0: float  # exp(-lam t)
    a_t: float
    p_t: float
    m_t: float
    jump_s: np.ndarray  # birth times, ascending (first entry 0)
    jump_pos: np.ndarray  # positions, descending in s
    jump_weight: np.ndarray  # kappa_{s,t}(0)
    jump_density: np.ndarray
    jump_p_birth: np.ndarray  # p_s at birth
    init_x: np.ndarray
    init_pos: np.ndarray
    init_g0: np.ndarray
    init_surv: np.ndarray
    atoms: list  # (origin, position, original mass, surviving mass)

    def mass(self) -> float:
        jump = float(np.trapezoid(self.jump_p_birth * self.jump_weight, self.jump_s))
        init = float(np.trapezoid(self.init_g0 * self.init_surv, self.init_x)) if self.init_x.size else 0.0
        return jump + init + sum(a[3] for a in self.atoms)

    def survived_initial_mass(self) -> float:
        """E[kappa_{0,t}(Y_0)] under the discretized initial law."""
        init = float(np.trapezoid(self.init_g0 * self.init_surv, self.init_x)) if self.init_x.size else 0.0
        return init + sum(a[3] for a in self.atoms)

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
            dens = self.init_g0 * self.init_surv / self.decay0
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
            ds = np.concatenate([ds, self.init_g0 * self.init_surv / self.decay0])
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

    def support(self):
        hi = self.init_pos[-1] if self.init_x.size else self.splice
        hi = max(hi, max((a[1] for a in self.atoms), default=0.0))
        return 0.0, float(hi)

    def rows(self):
        """(y, density, part) rows for CSV export."""
        out = [(float(y), float(d), "jump") for y, d in zip(self.jump_pos[::-1], self.jump_density[::-1])]
        if self.init_x.size:
            dens = self.init_g0 * self.init_surv / self.decay0
            out += [(float(y), float(d), "initial") for y, d in zip(self.init_pos, dens)]
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

    def consistency_residual(self, t: float, refine: int = 8) -> float:
        """|a_t - lam m - p| with p, m recomputed by fine quadrature in y."""
        snap = self.snapshot_at(t)
        lo, hi = snap.support()
        n = refine * max(64, snap.jump_s.size + snap.init_x.size)
        ys = np.linspace(lo, hi, n)
        dens = snap.density(ys)
        p = float(np.trapezoid(np.asarray(self.rate(ys), float) * dens, ys))
        m = float(np.trapezoid(ys * dens, ys))
        for _, pos, _, mass in snap.atoms:
            p += float(self.rate(pos)) * mass
            m += pos * mass
        return abs(snap.a_t - self.lam * m - p)


# ---------------------------------------------------------------------------
# Marginal solver
# ---------------------------------------------------------------------------


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
    represented mass is w @ surv. Jump nodes also keep their birth time s,
    the rate pb at birth and their density value dens. The newest jump node
    holds only the left half of its s-interval; the right half comes with
    the next birth.
    """

    def __init__(self, rate, xs, g0v, atoms, capacity: int):
        self.j0 = xs.size + len(atoms)
        size = max(capacity, self.j0 + 1)
        self.x, self.f, self.w, self.surv, self.s, self.pb, self.dens = np.zeros((7, size))
        self.x[: self.j0] = np.concatenate([xs, [x0 for x0, _ in atoms]])
        self.f[: self.j0] = np.asarray(rate(self.x[: self.j0]), dtype=float)
        self.w[: self.j0] = np.concatenate([g0v * _trapezoid_weights(xs), [mass for _, mass in atoms]])
        self.surv[: self.j0] = 1.0
        self.f0 = float(rate(0.0))  # rate of a newborn node at the reset point
        self.n = self.j0

    def birth(self, s: float, pb: float, dens: float, weight: float):
        """Append a jump node at the reset point 0 with survival 1."""
        if self.n == self.x.size:
            for name in ("x", "f", "w", "surv", "s", "pb", "dens"):
                old = getattr(self, name)
                new = np.zeros(2 * old.size)
                new[: old.size] = old
                setattr(self, name, new)
        k = self.n
        self.x[k], self.f[k], self.w[k], self.surv[k] = 0.0, self.f0, weight, 1.0
        self.s[k], self.pb[k], self.dens[k] = s, pb, dens
        self.n += 1

    def prune(self, keep):
        """Keep the listed jump nodes (indices from j0) and rebuild their s-weights."""
        j0, n = self.j0, self.n
        idx = j0 + np.asarray(keep)
        for arr in (self.x, self.f, self.surv, self.s, self.pb, self.dens):
            arr[j0 : j0 + idx.size] = arr[idx]
        self.n = n = j0 + idx.size
        self.w[j0:n] = self.pb[j0:n] * _trapezoid_weights(self.s[j0:n])


def solve_marginals(
    config: SystemConfig,
    dt: float | None = None,
    snapshot_times=(),
    init_nodes: int = 2000,
    corrector_passes: int = 1,
    dy_min: float = 0.0,
    adapt_rel: float | None = 0.02,
) -> MarginalSolution:
    """March the transported density over [0, horizon].

    Initial-law nodes, atoms and jump nodes share one set of arrays
    (_Nodes), so a predictor or corrector pass is one _slab_survival call
    over all nodes, one position update and two dot products (p and m).
    One new jump node is born per step, so memory is O(horizon/dt); when
    dy_min > 0, interior nodes closer than dy_min in position are merged
    periodically. Steps over which the drift would change by more than
    adapt_rel (relatively) are bisected, up to 8 levels, which resolves
    fast initial transients without shrinking dt globally; pass
    adapt_rel=None for strictly fixed steps. After each step the mass is
    recomputed from the node arrays; the solve aborts with MassDriftError
    when it leaves [1 - mass_abs, 1 + mass_abs].
    """
    lam = config.lam
    rate = config.rate
    horizon = config.horizon
    mass_abs = config.tolerances.mass_abs
    dt = dt or config.dt

    snap_req = np.asarray(sorted(set(float(t) for t in snapshot_times)), dtype=float)
    if snap_req.size and (snap_req[0] < 0 or snap_req[-1] > horizon + 1e-12):
        raise ConfigError("snapshot times must lie in [0, horizon]")

    k = max(2, int(round(horizon / dt)))
    grid = np.union1d(np.linspace(0.0, horizon, k + 1), snap_req)
    grid = grid[np.concatenate([[True], np.diff(grid) > 1e-9 * dt])]

    xs, g0v, atoms = config.initial.solver_nodes(init_nodes)
    ni = xs.size

    p0 = float(np.trapezoid(np.asarray(rate(xs), float) * g0v, xs)) if xs.size else 0.0
    m0 = float(np.trapezoid(xs * g0v, xs)) if xs.size else 0.0
    for x0, mass in atoms:
        p0 += float(rate(x0)) * mass
        m0 += x0 * mass
    a0 = lam * m0 + p0

    nodes = _Nodes(rate, xs, g0v, atoms, capacity=ni + len(atoms) + grid.size)
    nodes.birth(0.0, p0, p0 / a0 if a0 > 0 else 0.0, 0.0)  # the s=0 node rides at the splice point
    decay0 = 1.0

    times = [0.0]
    a_series = [a0]
    p_series = [p0]
    m_series = [m0]
    snapshots: list[TransportedDensity] = []

    def freeze(t, a_t, p_t, m_t):
        j0, n = nodes.j0, nodes.n
        snapshots.append(
            TransportedDensity(
                t=float(t),
                lam=lam,
                splice=float(nodes.x[j0]),
                decay0=decay0,
                a_t=a_t,
                p_t=p_t,
                m_t=m_t,
                jump_s=nodes.s[j0:n].copy(),
                jump_pos=nodes.x[j0:n].copy(),
                jump_weight=nodes.surv[j0:n].copy(),
                jump_density=nodes.dens[j0:n].copy(),
                jump_p_birth=nodes.pb[j0:n].copy(),
                init_x=xs,
                init_pos=nodes.x[:ni].copy(),
                init_g0=g0v,
                init_surv=nodes.surv[:ni].copy(),
                atoms=[
                    (x0, float(nodes.x[ni + i]), mass, mass * float(nodes.surv[ni + i]))
                    for i, (x0, mass) in enumerate(atoms)
                ],
            )
        )

    # each requested time freezes at the kept grid node at or just before it
    snap_steps = set((np.searchsorted(grid, snap_req, side="right") - 1).tolist())
    if 0 in snap_steps:
        freeze(0.0, a0, p0, m0)

    def attempt(t_lo: float, t_hi: float):
        """Predictor-corrector trial step [t_lo, t_hi]; nothing committed."""
        h = t_hi - t_lo
        n = nodes.n
        x = nodes.x[:n]
        f = nodes.f[:n]
        ws = nodes.w[:n] * nodes.surv[:n]
        # the newest jump node's right half-interval, up to the node born at t_hi
        ws[-1] += 0.5 * h * nodes.pb[n - 1] * nodes.surv[n - 1]
        abar = a_series[-1]
        for _ in range(1 + max(0, corrector_passes)):
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
                adapt_rel is not None
                and abs(a_new - a_prev) > adapt_rel * scale
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
            nodes.w[n - 1] += 0.5 * (t_next - t) * nodes.pb[n - 1]
            decay0 *= d2
            nodes.birth(float(t_next), p_new, p_new / a_new if a_new > 0 else 0.0, 0.5 * (t_next - t) * p_new)

            times.append(float(t_next))
            a_series.append(a_new)
            p_series.append(p_new)
            m_series.append(m_new)

            mass = float(nodes.w[: nodes.n] @ nodes.surv[: nodes.n])
            if abs(mass - 1.0) > mass_abs:
                raise MassDriftError(f"mass {mass:.8f} drifted beyond {mass_abs} at t={t_next}")

        if dy_min > 0 and step % 64 == 63 and nodes.n - nodes.j0 > 8:
            nodes.prune(_prune_nodes(nodes.x[nodes.j0 : nodes.n], dy_min))

        if step + 1 in snap_steps:
            freeze(grid[step + 1], a_series[-1], p_series[-1], m_series[-1])

    return MarginalSolution(
        lam=lam,
        rate=rate,
        times=np.asarray(times),
        a=np.asarray(a_series),
        p=np.asarray(p_series),
        m=np.asarray(m_series),
        snapshots=snapshots,
    )


def _prune_nodes(pos: np.ndarray, dy_min: float) -> list:
    """Indices to keep so adjacent kept positions differ by >= dy_min."""
    keep = [0]
    for k in range(1, pos.size - 1):
        if abs(pos[k] - pos[keep[-1]]) >= dy_min:
            keep.append(k)
    keep.append(pos.size - 1)
    return keep


# ---------------------------------------------------------------------------
# Nonlinear process: single paths and the particle/limit coupling
# ---------------------------------------------------------------------------


class _FlowEval:
    """Fast scalar evaluation of I(t) = int_0^t exp(-lam (t-u)) a_u du."""

    def __init__(self, drift: DriftSeries, lam: float, tol: float = 1e-10):
        ft, fa, nodes = drift._fine_grid(lam, tol)
        self.ft_list = ft.tolist()
        self.fa_list = fa.tolist()
        self.node_list = nodes.tolist()
        self.lam = lam
        self.tol = tol
        self.t_end = float(ft[-1])

    def integral_to(self, t: float) -> float:
        ft = self.ft_list
        j = bisect.bisect_right(ft, t, 1, len(ft) - 1) - 1  # segment index clipped to [0, len - 2]
        h = t - ft[j]
        lam = self.lam
        a_lo = self.fa_list[j]
        a_hi = self.fa_list[j + 1]
        seg = ft[j + 1] - ft[j]
        frac = h / seg
        a_t = a_lo + (a_hi - a_lo) * frac
        a_mid = a_lo + (a_hi - a_lo) * 0.5 * frac
        part = h / 6.0 * (math.exp(-lam * h) * a_lo + 4.0 * math.exp(-lam * 0.5 * h) * a_mid + a_t)
        return self.node_list[j] * math.exp(-lam * h) + part

    def flow(self, s: float, t: float, x: float, i_s: float | None = None) -> float:
        """phi_{s,t}(x) = I(t) + exp(-lam (t-s)) (x - I(s)); i_s = I(s) if already known."""
        if i_s is None:
            i_s = self.integral_to(s)
        return self.integral_to(t) + math.exp(-self.lam * (t - s)) * (x - i_s)


# drift mass per window of the coupled limit paths: a path's bound sits at
# most this far above its anchor, so few proposals are wasted on it
_WINDOW_DRIFT = 1.0 / 16.0


class _LimitPaths:
    """Paths of the limit process on a solved drift, thinned by outside marks.

    Path i flows from its anchor (t_i, y_i) and jumps to 0 at a proposal
    (t, z) iff z <= f(y_i(t)); every proposal re-anchors it. by[i]
    dominates its jump rate up to the window end w: between jumps
    y' = a - lam y <= abar - lam y, so by comparison y(t) <= y_i +
    (1 - e^{-lam (w - t_i)}) (abar/lam - y_i)^+ on [t_i, w] for lam > 0,
    and y(t) <= y_i + I(w) - I(t_i) for lam = 0 (f is nondecreasing);
    the bound position carries a slack that covers the flow's quadrature.
    Windows are window/abar long (one window up to t_end by default);
    next_window re-anchors all paths at w and bounds them up to the next.
    """

    def __init__(self, drift: DriftSeries, rate: RateFunction, lam: float, t_end=None, window=math.inf):
        self.fe = _FlowEval(drift, lam)
        self.rate = rate
        self.lam = lam
        self.t_end = self.fe.t_end if t_end is None else float(t_end)
        self.abar = max(self.fe.fa_list)
        self.slack = 10.0 * self.fe.tol  # covers the quadrature error of the computed flow
        self.h = window / self.abar if self.abar > 0 else math.inf

    def start(self, y0):
        self.ya = np.array(y0, dtype=float)
        self.ta = np.zeros(self.ya.size)
        self.ia = np.full(self.ya.size, self.fe.integral_to(0.0))
        self.k = 0
        self.next_window()

    def next_window(self):
        """Re-anchor every path at the current window end and bound it up to the next."""
        if self.k:
            w = self.w
            self.ya = self.positions(w)
            self.ta = np.full(self.ya.size, w)
            self.ia = np.full(self.ya.size, self.fe.integral_to(w))
        self.k += 1
        self.w = min(self.k * self.h, self.t_end)
        self.i_w = self.fe.integral_to(self.w)
        self.by = self._bounds(self.ya, self.ta, self.ia)

    def _bounds(self, ya, ta, ia):
        if self.lam == 0.0:
            rise = self.i_w - ia
        else:
            rise = -np.expm1(-self.lam * (self.w - ta)) * np.maximum(self.abar / self.lam - ya, 0.0)
        return np.asarray(self.rate(ya + rise + self.slack), dtype=float)

    def positions(self, t: float) -> np.ndarray:
        return self.fe.integral_to(t) + np.exp(-self.lam * (t - self.ta)) * (self.ya - self.ia)

    def propose(self, i: int, t: float, z: float):
        """(jumped, overshoot) of path i at the proposal (t, z), which re-anchors it."""
        i_t = self.fe.integral_to(t)
        y = i_t + math.exp(-self.lam * (t - self.ta.item(i))) * (self.ya.item(i) - self.ia.item(i))
        fy = self.rate(y)
        jumped, overshoot = z <= fy, fy > self.by.item(i)
        y = 0.0 if jumped else y
        self.ya[i], self.ta[i], self.ia[i] = y, t, i_t
        lam = self.lam
        rise = self.i_w - i_t if lam == 0.0 else -math.expm1(-lam * (self.w - t)) * max(self.abar / lam - y, 0.0)
        self.by[i] = self.rate(y + rise + self.slack)
        return jumped, overshoot


@dataclass
class NonlinearPath:
    """One realization of the limit process: flow between jumps, resets to 0."""

    y0: float
    jump_times: np.ndarray
    lam: float
    _flow: _FlowEval

    def value(self, t: float) -> float:
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        if k == 0:
            return self._flow.flow(0.0, t, self.y0)
        return self._flow.flow(float(self.jump_times[k - 1]), t, 0.0)


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
        if paths.propose(0, t, rng.random() * paths.by[0])[0]:
            jumps.append(t)
    return NonlinearPath(y0=float(y0), jump_times=np.asarray(jumps), lam=lam, _flow=paths.fe)


@dataclass
class CoupledStats:
    """Per-snapshot coupling statistics, averaged within each replicate."""

    n: int
    snapshot_times: np.ndarray
    mean_abs_diff: np.ndarray
    mean_h_diff: np.ndarray
    w1: np.ndarray
    replicates: int = 1
    proposals: int = 0  # thinning counters, summed over replicates
    bound_overshoots: int = 0

    @staticmethod
    def combine(parts: list["CoupledStats"]) -> "CoupledStats":
        if not parts:
            raise ValueError("nothing to combine")
        n = parts[0].n
        ts = parts[0].snapshot_times
        reps = sum(p.replicates for p in parts)
        w = np.array([p.replicates for p in parts], dtype=float)[:, None]
        return CoupledStats(
            n=n,
            snapshot_times=ts,
            mean_abs_diff=np.sum(w * [p.mean_abs_diff for p in parts], axis=0) / reps,
            mean_h_diff=np.sum(w * [p.mean_h_diff for p in parts], axis=0) / reps,
            w1=np.sum(w * [p.w1 for p in parts], axis=0) / reps,
            replicates=reps,
            proposals=sum(p.proposals for p in parts),
            bound_overshoots=sum(p.bound_overshoots for p in parts),
        )


def simulate_coupled(
    config: SystemConfig,
    sol: MarginalSolution,
    snapshot_times,
    event_budget: int = 100_000_000,
) -> CoupledStats:
    """One replicate of the particle system coupled to N limit processes.

    Runs particle's event loop with the N limit paths as its shadow. Limit
    path i starts at the same draw as particle i and consumes the same
    proposal stream: each proposal (tau, u) carries the mark z = u * B_i
    with B_i the larger of the two bounds, and each process jumps iff z
    undercuts its own current rate, which realizes one shared driving
    measure per index. Kicks reach only the particles; the limit paths
    ride the solved drift, bounded per window of drift mass 1/16
    (_LimitPaths). Any dominating envelope thins the same Poisson measure
    (Lewis-Shedler), so the windows and the particles' bound epochs change
    the proposal sequence, not the coupling's law.
    """
    snap_times = np.asarray(sorted(float(t) for t in snapshot_times), dtype=float)
    if snap_times.size == 0:
        raise ConfigError("coupled run needs at least one snapshot time")
    if snap_times[-1] > config.horizon + 1e-12 or snap_times[0] < 0:
        raise ConfigError("snapshot times must lie in [0, horizon]")
    if sol.times[-1] < config.horizon - 1e-9:
        raise ConfigError("marginal solution must cover the run horizon")
    laws = [sol.snapshot_at(ts).cdf_grid() for ts in snap_times]

    f = config.rate
    paths = _LimitPaths(sol.drift(), f, config.lam, t_end=config.horizon, window=_WINDOW_DRIFT)
    mean_abs = np.zeros(snap_times.size)
    mean_h = np.zeros(snap_times.size)
    w1s = np.zeros(snap_times.size)

    def observe(k, ts, xv):
        yv = paths.positions(ts)
        mean_abs[k] = float(np.mean(np.abs(xv - yv)))
        hx = np.asarray(f(xv), float) + np.arctan(xv)
        hy = np.asarray(f(yv), float) + np.arctan(yv)
        mean_h[k] = float(np.mean(np.abs(hx - hy)))
        w1s[k] = w1_samples_vs_law(np.sort(xv), laws[k])

    log = _event_loop(config, range(config.n), snap_times, observe, event_budget, log_events=False, shadow=paths)
    return CoupledStats(
        n=config.n,
        snapshot_times=snap_times,
        mean_abs_diff=mean_abs,
        mean_h_diff=mean_h,
        w1=w1s,
        proposals=log.proposals,
        bound_overshoots=log.bound_overshoots,
    )
