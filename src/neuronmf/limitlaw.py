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

The limit process itself is simulated as the particles' shadow, by
thinning against the same drift (_LimitPaths: one bound and one position
formula, on the drift's cached flow integral, so every batch on one
solution shares it). The particle/limit coupling runs R replicates of
any sizes N in lockstep on flat arrays, each group of rows of one N
with (R_g, N) views (_coupled_loop, on particle's engine rules): every
proposal's mark is logged for its limit path, and the paths take the
logged marks in one vectorized pass at each window end and snapshot,
which all rows share. The batch keeps 104 bytes per cell (the neuron's
proposal bound among them), each pass over the whole batch that needs
temporaries works in row blocks of at most _BLOCK_CELLS cells and the
others run in place, so its temporaries stay bounded and the caller
sizes the batch (the chaos command packs sizes into batches of at most
cli._BATCH_CELLS cells). Each snapshot's W1 is one call per row block,
on the law's cdf grid, built once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .metrics import h_distance, w1_samples_vs_law
from .model import ConfigError, DriftSeries, RateFunction, SystemConfig
from .particle import (
    EventBudgetExceededError,
    EventLog,
    _dominating_rates,
    _epoch,
    _first_blocks,
    _initial_state,
)
from .quadrature import cumulative_trapezoid, trapezoid_weights
from .rng import read_blocks
from .rng import substream  # noqa: F401  (benchmark/tracing.py wraps this name)


class MassDriftError(RuntimeError):
    """Representation lost more probability mass than mass_abs allows."""


# ---------------------------------------------------------------------------
# Transported density snapshots
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransportedDensity:
    """Frozen two-part (plus atoms) representation of g(t).

    Jump nodes come in birth order. The jump and initial arrays hold the
    solver's live nodes only: the nodes it retired (solve_marginals) are
    gone, but a sentinel node stays next to each gap, and so do the splice
    node and the largest-x initial node, so density() falls to ~0 across
    each gap and support() is that of the full grid. init_x and init_g0
    stay the initial law's full grid. node_mass is the solver's own w @ surv
    over the live nodes and retired_mass its bound on the retired nodes'
    mass; mass() is the value the solver's MassDriftError check took after
    that step (_checked_mass of the two).
    """

    t: float
    splice: float  # phi_{0,t}(0)
    a_t: float
    p_t: float
    node_mass: float
    jump_pos: np.ndarray  # positions, descending in s
    jump_density: np.ndarray
    init_x: np.ndarray
    init_pos: np.ndarray
    init_g0: np.ndarray
    init_density: np.ndarray  # g0 kappa_{0,t} e^{lam t} at init_pos
    atoms: list  # (origin, position, original mass, surviving mass)
    retired_mass: float = 0.0

    def mass(self) -> float:
        return _checked_mass(self.node_mass, self.retired_mass)

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
        return ys, cdf / total

    def support(self):
        hi = self.init_pos[-1] if self.init_x.size else self.splice
        hi = max(hi, max((a[1] for a in self.atoms), default=0.0))
        return 0.0, float(hi)

    def rows(self):
        """(y, density, part) rows for CSV export."""
        out = [(y, d, "jump") for y, d in zip(self.jump_pos[::-1].tolist(), self.jump_density[::-1].tolist())]
        out += [(y, d, "initial") for y, d in zip(self.init_pos.tolist(), self.init_density.tolist())]
        out += [(float(pos), float(mass), "atom") for _, pos, _, mass in self.atoms]
        return out


@dataclass(eq=False)
class MarginalSolution:
    """Drift, mean-rate and mean series plus frozen densities at snapshots.

    The solver's counters come last: its bisected steps (committed steps
    less the requested grid intervals), the nodes it retired and their
    summed w surv at retirement.
    """

    lam: float
    rate: RateFunction
    times: np.ndarray
    a: np.ndarray
    p: np.ndarray
    m: np.ndarray
    snapshots: list
    bisections: int = 0
    retired_nodes: int = 0
    retired_mass: float = 0.0

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
# node retirement: every _RETIRE_EVERY grid intervals, a run of dead nodes
# whose summed w surv (1 + x + f(x)) is below _RETIRE_BOUND is dropped
_RETIRE_EVERY = 64
_RETIRE_BOUND = 1e-16


def _checked_mass(live: float, retired: float) -> float:
    """The mass the solver checks: live, its nodes' w @ surv, moved away from 1 by retired.

    retired bounds the retired nodes' mass, so |result - 1| is
    |live - 1| + retired (up to rounding) and a check on it can only err
    high. With nothing retired it is live, bit for bit.
    """
    return live - retired if live < 1.0 else live + retired


def _slab_geometry(lam: float, abar: float, dt: float):
    """Decay factors and flow offsets at {0, dt/2, dt} for constant drift."""
    if lam == 0.0:
        return (1.0, 1.0, 1.0), (0.0, 0.5 * abar * dt, abar * dt)
    d1 = math.exp(-0.5 * lam * dt)
    d2 = math.exp(-lam * dt)
    return (1.0, d1, d2), (0.0, abar * (1.0 - d1) / lam, abar * (1.0 - d2) / lam)


def _affine(x, scale, shift, out):
    """scale * x + shift into out; a scale of exactly 1.0 is skipped, as the product is x."""
    if scale == 1.0:
        return np.add(x, shift, out=out)
    np.multiply(scale, x, out=out)
    return np.add(out, shift, out=out)


def _slab_survival(rate, positions, rates, decays, offsets, dt, end, mid, fac):
    """(end positions, their rates, exp(-int_slab f(phi))) per start; rates = f(positions).

    The survival exponent is 3-point Simpson over the slab. The positions
    go into end, the factors into fac; mid takes the midpoint positions.
    """
    _affine(positions, decays[2], offsets[2], end)
    f2 = rate(end)
    f1 = rate(_affine(positions, decays[1], offsets[1], mid))
    # -dt / 6.0 * (rates + 4.0 * f1 + f2), in place
    np.multiply(4.0, f1, out=fac)
    np.add(rates, fac, out=fac)
    np.add(fac, f2, out=fac)
    np.multiply(-dt / 6.0, fac, out=fac)
    return end, f2, np.exp(fac, out=fac)


def _workspace(size: int) -> list:
    """The solver step's arrays, each of the nodes' capacity: end positions,
    midpoint positions (then w surv fac), slab factors, w surv."""
    return [np.empty(size) for _ in range(4)]


def _dead_run(share: np.ndarray) -> int:
    """The number of nodes, from the start of share, whose summed share is below _RETIRE_BOUND."""
    return int(np.searchsorted(np.cumsum(share), _RETIRE_BOUND))


class _Nodes:
    """Every live transported node of the solver, in arrays grown by doubling.

    The ni live initial-law nodes come first, in increasing x, then the
    atoms, then from index j0 the live jump nodes in birth order. Each node
    has a position x, its rate f(x), a weight w (quadrature weight times
    birth density: g0 times the trapezoid weight in x, an atom's mass, or p
    at birth times the trapezoid weight in s), its accumulated survival
    surv, so the represented mass is w @ surv (live_mass()), and a density
    factor dens: g0 for an initial node, the density value for a jump node.
    The newest jump node holds only the left half of its s-interval; the
    right half comes with the next birth, from pb, that node's p at birth
    (no older node's is read, so pb is one float).
    solve_marginals swaps x with an array of its workspace at every
    committed step (for f(x) = x, f is x itself), so only the first n
    entries are kept; past n they hold whatever the workspace left there.
    retire() drops dead nodes in place; retired and retired_nodes count
    them, retired as their summed w surv at retirement.
    """

    def __init__(self, rate, xs, g0v, atoms, capacity: int):
        self.ni = xs.size
        self.j0 = xs.size + len(atoms)
        size = max(capacity, self.j0 + 1)
        self.x, self.f, self.w, self.surv, self.dens = np.zeros((5, size))
        self.x[: self.j0] = np.concatenate([xs, [x0 for x0, _ in atoms]])
        self.f[: self.j0] = np.asarray(rate(self.x[: self.j0]), dtype=float)
        self.w[: self.j0] = np.concatenate([g0v * trapezoid_weights(xs), [mass for _, mass in atoms]])
        self.surv[: self.j0] = 1.0
        self.dens[: self.ni] = g0v
        self.f0 = float(rate(0.0))  # rate of a newborn node at the reset point
        self.n = self.j0
        self.retired = 0.0
        self.retired_nodes = 0

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

    def live_mass(self) -> float:
        return float(self.w[: self.n] @ self.surv[: self.n])

    def mass(self) -> float:
        return _checked_mass(self.live_mass(), self.retired)

    def retire(self):
        """Drop the dead run of largest-x initial nodes and of oldest jump nodes, in place.

        A run is the longest one whose summed w surv (1 + x + f(x)) is below
        _RETIRE_BOUND; the initial run ends before the last initial node,
        the jump run starts after the splice node and ends before the
        newest, and each keeps its node next to the live ones as a sentinel.
        Atoms never retire.
        """
        n, ni, j0 = self.n, self.ni, self.j0
        ws = self.w[:n] * self.surv[:n]
        share = ws * (1.0 + self.x[:n] + self.f[:n])
        cut_i = max(_dead_run(share[: max(ni - 1, 0)][::-1]) - 1, 0)
        cut_j = max(_dead_run(share[j0 + 1 : n - 1]) - 1, 0)
        if cut_i + cut_j == 0:
            return
        last = max(ni - 1, 0)  # the last initial node, or the first atom or the splice node
        lo, hi = last - cut_i, j0 + 1 + cut_j  # initial nodes [lo, last) and jump nodes [j0 + 1, hi) go
        self.retired += float(ws[lo:last].sum() + ws[j0 + 1 : hi].sum())
        keep = np.r_[0:lo, last : j0 + 1, hi:n]
        for arr in [self.x, self.w, self.surv, self.dens] + ([] if self.f is self.x else [self.f]):
            arr[: keep.size] = arr[keep]
        self.ni, self.j0, self.n = ni - cut_i, j0 - cut_i, keep.size
        self.retired_nodes += cut_i + cut_j


def solve_marginals(config: SystemConfig, *, snapshot_times=()) -> MarginalSolution:
    """March the transported density over [0, horizon] in steps of config.dt.

    Initial-law nodes, atoms and jump nodes share one set of arrays
    (_Nodes), so a predictor or corrector pass is one _slab_survival call
    over all live nodes, one position update and two dot products (p and
    m). One new jump node is born per step. Steps over which the drift
    would change by more than _ADAPT_REL (relatively) are bisected, up to 8
    levels, which resolves fast initial transients without shrinking dt
    globally. snapshot_times may repeat and come in any order.

    Dead nodes retire (_Nodes.retire): every _RETIRE_EVERY grid intervals
    (bisected sub-steps do not count) one pass drops the run of
    largest-x initial nodes and the run of oldest jump nodes whose summed
    w surv (1 + x + f(x)) is below _RETIRE_BOUND, which bounds the run's
    share of the mass, m and p. The splice node, the newest jump node (it
    holds the pending half-interval), the last initial node (it sets
    support()) and one sentinel per run stay, and so do atoms. So once old
    mass dies the live nodes stop growing, and with them a step's work. A
    step on the live nodes keeps its exact arithmetic, and a solve that
    retires nothing is bit for bit the solve without retirement.

    The mass check keeps a bound. surv never increases, so the summed w
    surv of the retired nodes at their retirement (retired) bounds their
    mass at every later time: the mass of all nodes lies in [live, live +
    retired], with live the live nodes' w @ surv. After each step the
    solve aborts with MassDriftError when |live - 1| + retired exceeds
    mass_abs (_checked_mass, which a snapshot keeps as its mass()), so the
    check can only err high.

    A step works in place in a workspace of four arrays of the nodes'
    capacity (_workspace), allocated afresh when a birth doubles the
    nodes. A committed step swaps its new positions into the nodes' x and
    copies its new rates into f (for f(x) = x, f is x itself). Factors of
    exactly 1 (the decays at lam = 0, and 1/d2 in the density update) are
    skipped, and every other element sees the operations of the step on
    fresh temporaries, in the same order, so every value is the same bit
    for bit. Overflow in the march (a rate such as x^60 run out of range)
    is not warned about: it makes the drift non-finite, which raises
    MassDriftError.
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

    p0 = float(np.trapezoid(np.asarray(rate(xs), float) * g0v, xs)) if xs.size else 0.0
    m0 = float(np.trapezoid(xs * g0v, xs)) if xs.size else 0.0
    for x0, mass in atoms:
        p0 += float(rate(x0)) * mass
        m0 += x0 * mass
    a0 = lam * m0 + p0

    nodes = _Nodes(rate, xs, g0v, atoms, capacity=xs.size + len(atoms) + grid.size)
    nodes.birth(p0, p0 / a0 if a0 > 0 else 0.0, 0.0)  # the s=0 node rides at the splice point
    decay0 = 1.0

    times = [0.0]
    a_series = [a0]
    p_series = [p0]
    m_series = [m0]
    snapshots: list[TransportedDensity] = []

    def freeze(t, a_t, p_t):
        ni, j0, n = nodes.ni, nodes.j0, nodes.n
        snapshots.append(
            TransportedDensity(
                t=float(t),
                splice=float(nodes.x[j0]),
                a_t=a_t,
                p_t=p_t,
                node_mass=nodes.live_mass(),
                jump_pos=nodes.x[j0:n].copy(),
                jump_density=nodes.dens[j0:n].copy(),
                init_x=xs,
                init_pos=nodes.x[:ni].copy(),
                init_g0=g0v,
                init_density=nodes.dens[:ni] * nodes.surv[:ni] / decay0,
                atoms=[
                    (x0, float(nodes.x[ni + i]), mass, mass * float(nodes.surv[ni + i]))
                    for i, (x0, mass) in enumerate(atoms)
                ],
                retired_mass=nodes.retired,
            )
        )

    # each requested time freezes at the kept grid node at or just before it
    snap_steps = set((np.searchsorted(grid, snap_req, side="right") - 1).tolist())
    if 0 in snap_steps:
        freeze(0.0, a0, p0)

    work = _workspace(nodes.x.size)

    def attempt(t_lo: float, t_hi: float):
        """Predictor-corrector trial step [t_lo, t_hi]; nothing committed.

        The new positions it returns are a view of work[0], and so are the
        new rates for f(x) = x.
        """
        nonlocal work
        if work[0].size != nodes.x.size:  # the nodes doubled at the last birth
            work = None  # freed before its successor is allocated
            work = _workspace(nodes.x.size)
        h = t_hi - t_lo
        n = nodes.n
        x = nodes.x[:n]
        f = nodes.f[:n]
        end, x_mid, fac, ws = (a[:n] for a in work)
        np.multiply(nodes.w[:n], nodes.surv[:n], out=ws)
        # the newest jump node's right half-interval, up to the node born at t_hi
        ws[-1] += 0.5 * h * nodes.pb * nodes.surv[n - 1]
        abar = a_series[-1]
        for _ in range(1 + _CORRECTOR_PASSES):
            decays, offsets = _slab_geometry(lam, abar, h)
            x_new, f_new, fac = _slab_survival(rate, x, f, decays, offsets, h, end, x_mid, fac)
            wsf = np.multiply(ws, fac, out=x_mid)
            p_new = float(wsf @ f_new)
            m_new = float(wsf @ x_new)
            a_new = lam * m_new + p_new
            if not math.isfinite(a_new):
                raise MassDriftError(f"non-finite drift at t={t_hi}")
            abar = 0.5 * (a_series[-1] + a_new)  # trapezoidal average for the redo
        return x_new, f_new, fac, decays[2], p_new, m_new, a_new

    with np.errstate(over="ignore", invalid="ignore"):  # once per solve: a non-finite drift raises
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

                # commit the slab: the new positions swap places with the old
                j0, n = nodes.j0, nodes.n
                nodes.x, work[0] = work[0], nodes.x
                if f_new is x_new:  # f(x) = x: the rates are the positions
                    nodes.f = nodes.x
                else:
                    nodes.f[:n] = f_new
                nodes.surv[:n] *= fac
                nodes.dens[j0:n] *= fac[j0:]
                inv_d2 = 1.0 / d2
                if inv_d2 != 1.0:  # exactly 1 at lam = 0
                    nodes.dens[j0:n] *= inv_d2
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
            if (step + 1) % _RETIRE_EVERY == 0:  # after the freeze, which shows the mass just checked
                nodes.retire()

    return MarginalSolution(
        lam=lam,
        rate=rate,
        times=np.asarray(times),
        a=np.asarray(a_series),
        p=np.asarray(p_series),
        m=np.asarray(m_series),
        snapshots=snapshots,
        bisections=len(times) - grid.size,
        retired_nodes=nodes.retired_nodes,
        retired_mass=nodes.retired,
    )


# ---------------------------------------------------------------------------
# Nonlinear process: the particle/limit coupling
# ---------------------------------------------------------------------------


# drift mass per window of the coupled limit paths: a path's bound sits at
# most this far above its anchor, so few proposals are wasted on it
_WINDOW_DRIFT = 1.0 / 16.0
# cells of one row block: the most a pass over a whole coupled batch (a
# bound pass, a window-end rescale, a snapshot) holds in temporaries at once
_BLOCK_CELLS = 8192


def _row_blocks(sizes, whole=False) -> list[tuple[slice, slice, int]]:
    """(rows, cells, n) per block of a run of rows of size n: slices of the rows and of their flat cells.

    A block holds at most _BLOCK_CELLS cells (one row at least), or, if
    whole, the run's every row.
    """
    blocks, row, cell = [], 0, 0
    for n, run in groupby(sizes):
        stop = row + len(list(run))
        step = stop - row if whole else max(1, _BLOCK_CELLS // n)
        for lo in range(row, stop, step):
            hi = min(lo + step, stop)
            blocks.append((slice(lo, hi), slice(cell, cell + (hi - lo) * n), n))
            cell += (hi - lo) * n
        row = stop
    return blocks


_BOUND_SLACK = 1e-9  # added to a bound position: covers the rounding of the computed flow


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
    position carries _BOUND_SLACK, which covers its rounding. Windows are
    _WINDOW_DRIFT/abar long, the last one ending at t_end (a drift with
    abar = 0 has one window up to t_end).

    Paths sit in rows, R replicates of any sizes N, in one flat array.
    advance applies a batch of proposals and re-anchors all paths at a
    later time; next_window does so at the window end and bounds the paths
    up to the next one.
    """

    def __init__(self, drift: DriftSeries, rate: RateFunction, lam: float, t_end: float):
        self.fi = drift.integral(lam)
        self.rate = rate
        self.lam = lam
        self.t_end = float(t_end)
        self.abar = self.fi.a_max
        self.h = _WINDOW_DRIFT / self.abar if self.abar > 0 else math.inf

    def start(self, y0, sizes):
        """Anchor the paths at y0, rows of sizes[r] paths in turn, and bound them up to the first window end."""
        self.ya = np.array(y0, dtype=float)
        self.blocks = _row_blocks(sizes)
        self.by = np.empty(self.ya.size)
        self.t0, self.i0 = 0.0, self.fi.at(0.0)
        self.k = 0
        self._bound_window()

    def _bound_window(self):
        self.k += 1
        self.w = min(self.k * self.h, self.t_end)
        self.i_w = self.fi.at(self.w)
        for _, cells, _ in self.blocks:
            self.by[cells] = self._bounds(self.ya[cells], self.t0, self.i0)

    def _bounds(self, ya, ta, ia):
        if self.lam == 0.0:
            x = ya + (self.i_w - ia)
        else:  # ya + (1 - e^{-lam (w - ta)}) (abar/lam - ya)^+, in place
            x = self.abar / self.lam - ya
            np.maximum(x, 0.0, out=x)
            x *= -np.expm1(-self.lam * (self.w - ta))
            x += ya
        x += _BOUND_SLACK
        return np.asarray(self.rate(x), dtype=float)

    def advance(self, t1: float, cells=(), times=(), marks=()):
        """Apply proposals (t, z) to the paths, then re-anchor every path at t1.

        cells are flat path indices, with each path's proposals in time
        order, times their times (none past t1) and marks their z. The
        proposals of all paths are taken in rounds, the k-th of every path
        in round k. Returns each proposal's overshoot flag: the path's rate
        above its bound.
        """
        cells, times, marks = (np.asarray(a) for a in (cells, times, marks))
        lam, i1, ya = self.lam, self.fi.at(t1), self.ya
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
                over[rec] = fy > self.by[c[sel]]
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
    sizes=None,
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
    ignored), replicate r of N = sizes[r] (default config.n), and returns
    one CoupledStats per seed, in order. Replicate r depends only on
    seeds[r] and sizes[r]: its stats equal, bitwise, those of the batch
    [seeds[r]] of that size alone, whatever else the batch holds. Equal
    sizes should be adjacent: each run of them is one group of the batch.
    event_budget caps each replicate's spike count.
    """
    seeds = [int(seed) for seed in seeds]
    sizes = [config.n] * len(seeds) if sizes is None else [int(n) for n in sizes]
    snap_times = np.sort(config.check_times(snapshot_times))
    if not seeds:
        raise ConfigError("coupled run needs at least one seed")
    if len(sizes) != len(seeds) or min(sizes) < 1:
        raise ConfigError("coupled run needs one size >= 1 per seed")
    if snap_times.size == 0:
        raise ConfigError("coupled run needs at least one snapshot time")
    if sol.times[-1] < config.horizon - 1e-9:
        raise ConfigError("marginal solution must cover the run horizon")
    laws = [sol.snapshot_at(ts).cdf_grid() for ts in snap_times]

    f = config.rate
    paths = _LimitPaths(sol.drift(), f, config.lam, config.horizon)
    mean_abs, mean_h, w1s = np.zeros((3, len(seeds), snap_times.size))

    def observe(k, rows, x, y):  # the W1 pass first: it holds the most temporaries
        w1s[rows, k] = w1_samples_vs_law(x, laws[k])
        mean_h[rows, k] = h_distance(x, y, f).mean(axis=1)
        d = x - y
        mean_abs[rows, k] = np.abs(d, out=d).mean(axis=1)

    logs, _ = _coupled_loop(config, seeds, paths, snap_times, observe, event_budget, False, sizes)
    return [
        CoupledStats(
            n=n,
            snapshot_times=snap_times,
            mean_abs_diff=mean_abs[r],
            mean_h_diff=mean_h[r],
            w1=w1s[r],
            proposals=log.proposals,
            bound_overshoots=log.bound_overshoots,
        )
        for r, (n, log) in enumerate(zip(sizes, logs))
    ]


# rows of the coupled engine's per-neuron array: the particle's stored value
# y, its bound bx, the number of proposals the neuron made, and the bound
# B = max(bx, by) its proposals run at, with by the limit path's bound
_Y, _BX, _DRAWN, _B = range(4)
# and of its per-row array: the affine map x = amp * (y + shift), the mean
# xbar and the time of the row's last spike
_AMP, _SHIFT, _XBAR, _LAST = range(4)


def _rebuild(rows, times, bounds, arrays, base, sizes, first):
    """Epoch rebuild of each row k of rows (ascending) at its time, in place.

    Row k holds cells [base[k], base[k] + sizes[k]) of the flat arrays (y,
    bx, bmax, by, clocks), and its group starts at row first[k]. bounds(k,
    y) gives the new particle bounds of stored values y, with the per-row
    values indexed by k broadcast to them. The clocks go back to unit rate
    under the old bmax, then forward under the new bmax = max(bx, by). Up
    to two rows go one at a time on their row views; more share gathered
    passes, one over (e, N) rows of their group's view or, across groups,
    over their cells whatever their sizes, at most _BLOCK_CELLS cells (one
    row at least) a pass, which costs less than e row passes. All take the
    same IEEE operations per cell.
    """
    if rows.size <= 2:
        for k, lo, n, now in zip(rows.tolist(), base[rows].tolist(), sizes[rows].tolist(), times.tolist()):
            y, bx, bmax, by, next_time = [a[lo : lo + n] for a in arrays]
            next_time -= now
            next_time *= bmax
            bx[:] = new = bounds(k, y)
            np.maximum(new, by, out=bmax)
            next_time /= bmax
            next_time += now
        return
    k0, k1 = first[rows[0]], rows[-1]
    if k0 == first[k1]:  # the group's (R_g, N) view, up to the last row
        views = [a[base[k0] : base[k1] + sizes[k1]].reshape(-1, sizes[k1]) for a in arrays]
        _gathered((rows, None), rows - k0, times[:, None], bounds, *views)
        return
    lens = sizes[rows]
    ends = lens.cumsum()
    lo = 0
    while lo < rows.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - lens[lo] + _BLOCK_CELLS, side="right")))
        k, n = rows[lo:hi], lens[lo:hi]
        index = (base[k] - n.cumsum() + n).repeat(n)  # each cell's flat index
        index += np.arange(index.size)
        _gathered(k.repeat(n), index, times[lo:hi].repeat(n), bounds, *arrays)
        lo = hi


def _gathered(k, index, at, bounds, y, bx, bmax, by, next_time):
    """_rebuild's pass over the gathered entries index of the arrays: those of rows k at times at."""
    bx[index] = new = bounds(k, y[index])
    nt = next_time[index]
    nt -= at
    nt *= bmax[index]
    bm = np.maximum(new, by[index], out=new)
    nt /= bm
    nt += at
    bmax[index], next_time[index] = bm, nt


def _fold(k, y, amp, shift, xbar):
    """Fold row k's affine map into its stored values y (the row's view), and re-mean xbar[k] from them."""
    y[:] = amp[k] * (y + shift[k])
    amp[k], shift[k] = 1.0, 0.0
    xbar[k] = float(np.sort(y).mean())  # caps the float drift of the running mean


def _coupled_loop(config, seeds, paths, snap_times, observe, event_budget, log_events, sizes):
    """The coupled engine: R = len(seeds) replicates of config in lockstep on flat arrays.

    Row r holds N = sizes[r] cells of each per-neuron array, and each run
    of rows of one N is a group, with (R_g, N) views. Row r is particle's
    engine on the streams of (seeds[r], "prop"), on the rules it shares
    with particle.simulate, with its own run key, affine map, spike count,
    bound epochs, draws and constants of N (1/N, (N-1)/N, _epoch's), and
    with the N limit paths of paths (started here) as its shadow.
    Proposals run at B = max(bx, by), where by bounds the paths up to the
    window end paths.w, and each proposal's mark z = u * B_i is logged for
    limit path i, which takes it when the paths next advance
    (_LimitPaths.advance). B is stored with each neuron, set at the first
    bound pass, at each of its row's epoch rebuilds and at each window end,
    so a step reads it with the neuron's other state and the clock
    rescales multiply by it.

    Window ends and snapshot times are common to all rows. Each step takes
    one proposal in every row whose next proposal comes before both (a
    snapshot within 1e-15 of a proposal is observed first); the other rows
    idle. Once every row idles, the earliest common time is handled once
    for the batch: the limit paths advance to it, then a snapshot observes
    every row, and a window end rebounds the paths and rescales all clocks
    in place. The first bound pass and the snapshots are O(R N) with
    temporaries and run block by block (_row_blocks). Epoch rebuilds
    (_rebuild: up to two due rows one at a time on their row views, more in
    gathered passes), refills (one read_blocks call per step), folds
    (_fold) and the event budget stay per row, so no row's arithmetic
    depends on another's, nor on the blocks.

    observe(k, rows, x, y) receives, for each row block rows (a slice), the
    potentials of its particles and of its limit paths at the k-th snapshot
    time, as (len(rows), N) arrays. Returns (one EventLog per row, the
    number of window ends); a row's rebuilds count its first bound pass and
    its epoch passes, and its spikes are logged only with log_events.
    """
    lam, f, horizon = config.lam, config.rate, config.horizon
    rows = len(seeds)
    n_row = np.array(sizes)
    base = np.cumsum(n_row) - n_row  # each row's first cell
    m_row, slack, rounding = np.array([_epoch(n) for n in sizes]).T  # per row, m as a float
    kicks = np.array([(n, 1.0 / n, (n - 1) / n) for n in sizes]).T  # N, the kick 1/N and (N-1)/N, per row

    # neuron j of the flat state reads its stream as pairs (mark, clock),
    # four to a block: pair 0 is its initial potential and first clock, and
    # its proposal k takes pair k + 1 (its mark and the clock to the next). A
    # block's pair 0 is used as soon as the block is read, at set-up or by
    # the proposal that reads it, so pairs[j] holds pairs 1-3 of the
    # neuron's current block; a clock is kept as its unit exponential
    # -log1p(-u)
    cells = np.zeros((4, int(n_row.sum())))
    y, bx, drawn, bmax = cells
    keys, xbar0 = [], np.empty(rows)
    pairs = np.empty((cells.shape[1], 3, 2))
    next_time = np.empty(cells.shape[1])  # unit-rate clocks drawn at time 0
    for r, (seed, n, lo) in enumerate(zip(seeds, sizes, base.tolist())):
        key, block = _first_blocks(seed, range(n))
        row = slice(lo, lo + n)
        keys.append(key)
        y[row], xbar0[r] = _initial_state(config, block[:, 0])
        next_time[row] = -np.log1p(-block[:, 1])
        pairs[row, :, 0], pairs[row, :, 1] = block[:, 2::2], -np.log1p(-block[:, 3::2])
    flat_pairs = pairs.reshape(-1, 2)

    x0 = np.split(y.copy(), base[1:]) if log_events else [np.zeros(0)] * rows
    paths.start(y, sizes)
    state = np.zeros((4, rows))
    amp, shift, xbar, last = state
    amp[:], xbar[:] = 1.0, xbar0

    def bounds(k, values):  # the particle bounds of stored values, with the per-row values a[k] broadcast to them
        return _dominating_rates(f, lam, values, *(a[k] for a in (shift, amp, xbar, slack, rounding)))

    blocks = _row_blocks(sizes)  # the passes with temporaries run block by block
    for b, cb, n in blocks:
        bx[cb] = bounds((b, None), y[cb].reshape(-1, n)).reshape(-1)
    np.maximum(bx, paths.by, out=bmax)
    next_time /= bmax

    groups = _row_blocks(sizes, whole=True)
    first = np.concatenate([np.full(b.stop - b.start, b.start) for b, _, _ in groups])  # each row's group's first row
    per_cell = (y, bx, bmax, paths.by, next_time)
    idx = np.empty(rows, dtype=np.intp)  # each row's earliest clock, by the argmin of its group's view
    argmins = [(next_time[cb].reshape(-1, n), idx[b]) for b, cb, n in groups]
    overshoots, spikes = np.zeros((2, rows), dtype=np.int64)
    spike_steps = windows = snap_i = 0  # spike_steps bounds every row's spike count
    events, pending = [], []  # spikes to log; proposals the limit paths have not taken
    snaps = snap_times.tolist() + [math.inf]

    def catch_up(over):  # limit overshoots of the pending proposals, counted per row
        if np.count_nonzero(over):
            hit = np.concatenate([c[0] for c in pending])[over]
            overshoots[:] += np.bincount(np.searchsorted(base, hit, side="right") - 1, minlength=rows)
        pending.clear()

    def pending_proposals():
        return [np.concatenate(c) for c in zip(*pending)] if pending else ()

    edge = min(paths.w, math.nextafter(snaps[0] - 1e-15, -math.inf))  # last time a proposal is taken
    while True:
        for view, out in argmins:
            view.argmin(axis=1, out=out)
        flat = base + idx
        tau = next_time.take(flat)
        act = (tau <= edge).nonzero()[0]
        if act.size == 0:
            w = paths.w
            if snaps[snap_i] <= w + 1e-15 or w >= horizon:
                if snap_i == snap_times.size:
                    catch_up(paths.advance(horizon, *pending_proposals()))
                    break
                ts = snaps[snap_i]
                catch_up(paths.advance(ts, *pending_proposals()))
                for b, cb, n in blocks:
                    x = y[cb].reshape(-1, n) + shift[b, None]  # at lam = 0 (amp = 1) the potentials rest
                    if lam != 0.0:  # xbar + decay * (amp * x - xbar), in place
                        x *= amp[b, None]
                        x -= xbar[b, None]
                        x *= np.exp(-lam * (ts - last[b]))[:, None]
                        x += xbar[b, None]
                    observe(snap_i, b, x, paths.ya[cb].reshape(-1, n))
                snap_i += 1
            else:  # the window end: all clocks go to unit rate, the paths advance and rebound
                next_time -= w
                next_time *= bmax
                catch_up(paths.next_window(*pending_proposals()))
                np.maximum(bx, paths.by, out=bmax)
                next_time /= bmax
                next_time += w
                windows += 1
            edge = min(paths.w, math.nextafter(snaps[snap_i] - 1e-15, -math.inf))
            continue

        # one proposal in each active row: neuron i at time t, cell j
        t, j = tau.take(act), flat.take(act)
        g = cells.take(j, axis=1)
        r = state.take(act, axis=1)
        if lam != 0.0:  # xbar + decay * (amp * (y + shift) - xbar)
            xi = r[_AMP] * (g[_Y] + r[_SHIFT])
            decay = np.exp(-lam * (t - r[_LAST]))
            xi -= r[_XBAR]
            xi *= decay
            xi += r[_XBAR]
        else:  # the potential rests at its anchor, and amp = 1
            xi = g[_Y] + r[_SHIFT]
        fx = f(xi)
        g[_DRAWN] += 1.0
        q = g[_DRAWN].astype(np.intp)  # the proposal's pair
        slot = q % 4
        draws = flat_pairs.take(j * 3 + slot - 1, axis=0)  # a refilling neuron's row is replaced below
        refill = (slot == 0).nonzero()[0]  # neurons whose pair q starts a block
        if refill.size:  # their next blocks, all read at once
            rr = act.take(refill)
            triples = zip([keys[k] for k in rr.tolist()], idx.take(rr).tolist(), (q.take(refill) // 4).tolist())
            block = read_blocks(triples).reshape(-1, 4, 2)
            block[:, :, 1] = -np.log1p(-block[:, :, 1])
            draws[refill] = block[:, 0]
            pairs[j.take(refill)] = block[:, 1:]
        bound = g[_B]
        z = draws[:, 0] * bound
        pending.append((j, t, z))
        over = fx > g[_BX]
        if np.count_nonzero(over):
            overshoots[act[over]] += 1
        hit = (z <= fx).nonzero()[0]
        if hit.size == 0:
            cells[:, j] = g
            next_time[j] = t + draws[:, 1] / bound
            continue

        # the spikes: each spiking row drifts to t and takes the kick 1/N; its spiker resets to 0
        srows, th, xh = act.take(hit), t.take(hit), xi.take(hit)
        rh = r.take(hit, axis=1)
        a_h, s_h, m_h, t_h = rh
        n_h, kick, stay = kicks.take(srows, axis=1)
        if lam != 0.0:
            d = decay.take(hit)
            # fold the drift into y, long before amp can underflow (amp * d >= e^{-lam horizon})
            for q in (a_h * d < 1e-100).nonzero()[0].tolist() if lam * horizon > 200.0 else ():
                k = srows[q]
                row = y[base[k] : base[k] + sizes[k]]
                row[:] = m_h[q] + d[q] * (a_h[q] * (row + s_h[q]) - m_h[q])
                a_h[q], s_h[q], d[q] = 1.0, 0.0, 1.0
            a_h *= d
            s_h += ((1.0 - d) * m_h + kick) / a_h
            t_h[:] = th
        else:  # amp stays 1
            s_h += kick
        m_h += (stay - xh) / n_h
        state[:, srows] = rh
        g[_Y, hit] = -s_h
        cells[:, j] = g
        count = spikes.take(srows) + 1
        spikes[srows] = count
        spike_steps += 1
        if spike_steps > event_budget and count.max() > event_budget:
            raise EventBudgetExceededError(f"more than {event_budget} spikes")
        if log_events:
            events.append((srows, th, idx.take(srows), xh))
        for k in srows[count % 4096 == 0].tolist() if spike_steps >= 4096 else ():
            _fold(k, y[base[k] : base[k] + sizes[k]], amp, shift, xbar)
        due = count % m_row.take(srows) == 0  # rows whose bound epoch ends
        e = srows[due]
        if e.size:
            _rebuild(e, th[due], bounds, per_cell, base, n_row, first)
            bound = bmax.take(j)
        next_time[j] = t + draws[:, 1] / bound

    # each row's spikes, in time order: a stable sort by row keeps the step order
    ev_rows, ev_t, ev_i, ev_x = (np.concatenate(c) for c in zip(*events)) if events else np.zeros((4, 0))
    order = np.argsort(ev_rows, kind="stable")
    cuts = np.cumsum(np.bincount(ev_rows.astype(int), minlength=rows))[:-1]
    per_row = zip(*(np.split(c[order], cuts) for c in (ev_t, ev_i.astype(int), ev_x)))
    proposals = np.add.reduceat(drawn, base).astype(np.int64)  # each proposal moved its neuron one pair on
    rebuilds = spikes // m_row + 1  # the first bound pass, then one per epoch of m spikes
    logs = [
        EventLog(times, i_r, pre, int(proposals[r]), x0[r], int(overshoots[r]), int(rebuilds[r]))
        for r, (times, i_r, pre) in enumerate(per_row)
    ]
    return logs, windows
