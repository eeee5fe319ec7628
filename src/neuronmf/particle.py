"""Exact event-driven simulation of the interacting spiking-neuron system.

Each of the N neurons carries a membrane potential x_i >= 0, spikes at rate
f(x_i), resets to 0 at its own spike, gains 1/N at every other spike, and
drifts toward the instantaneous empirical mean at speed lam. Between spikes
the mean is constant and every potential moves monotonically toward it,

    x_i(t) = xbar + exp(-lam (t - t_anchor)) (x_i(t_anchor) - xbar),

one affine map shared by all neurons, as is a kick, so the engine keeps
x_j = amp * (y_j + shift) and a spike costs O(1). max(x_i, xbar) never
rises between spikes and rises by at most 1/N at one, so at lam > 0
f(max(x_i, xbar) + (m-1)/N) dominates neuron i's rate up to the m-th spike
after it was taken. At lam = 0 there is no drift and only kicks raise a
potential, so f(x_i + (m-1)/N) does the same. At every lam the bounds are
rebuilt once per epoch of m = max(1, floor(N/64)) spikes, so at every
spike below N = 128. Simulation is by thinning against them, with one
proposal clock per neuron. Neuron i reads its own counter-based uniform
stream (rng.uniform_array, keyed by the seed and its integer label):
uniform 0 is its initial potential, uniform 1 its first clock, and each
proposal takes the next pair (mark, next clock), so that permuting neuron
stream labels exactly permutes trajectories.
Pending proposal times are rescaled in place when the bounds change,
which keeps them exact by memorylessness.

simulate is the package's plain exact event engine, one scalar loop.
The coupled engine, limitlaw._coupled_loop, runs replicates in lockstep
with their limit paths on the same rules: _first_blocks, _initial_state,
_epoch, _dominating_rates and the constants below are shared by both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .model import ConfigError, SystemConfig
from .rng import BLOCK_UNIFORMS, read_blocks, stream_key, uniform_array
from .rng import substream  # noqa: F401  (benchmark/tracing.py wraps this name)


_EPOCH_DRIFT = 1.0 / 64.0  # bound epoch in spikes per neuron: the most a bound sits above x
_RATE_FLOOR = 1e-300  # floor of every bound: clocks stay finite, rescales stay ratios
# scale of a lam = 0 epoch bound's position x + (m-1)/N: the m - 1 kicks
# summed into shift can land (m-1)/2 ulps of shift above it, and shift stays
# below 4096/N, so that is under 5e-13 of the position
_KICK_ROUNDING = 1.0 + 1e-12


class EventBudgetExceededError(RuntimeError):
    """Spike-count budget exhausted; guards runaway configurations."""


@dataclass
class ParticleState:
    """Positions of the N neurons plus the closed-form inter-spike anchors."""

    t: float
    lam: float
    xbar: float
    anchor_time: float
    anchor_x: np.ndarray

    @property
    def n(self) -> int:
        return self.anchor_x.size

    def positions(self, t: float | None = None) -> np.ndarray:
        """Potentials at time t (default: current time), via the closed form."""
        t = self.t if t is None else t
        if t < self.anchor_time - 1e-12:
            raise ValueError("cannot evaluate before the anchor time")
        if self.lam == 0.0:  # no leak: the potentials rest at their anchors
            return self.anchor_x.copy()
        decay = math.exp(-self.lam * (t - self.anchor_time))
        return self.xbar + decay * (self.anchor_x - self.xbar)


@dataclass
class Snapshot:
    time: float
    sorted_values: np.ndarray
    mean: float


@dataclass
class EventLog:
    """Realized spikes in time order, plus thinning counters."""

    times: np.ndarray
    indices: np.ndarray
    pre_potentials: np.ndarray
    proposals: int
    initial_values: np.ndarray
    bound_overshoots: int = 0  # proposals whose rate exceeded its bound; > 0 means inexact thinning
    rebuilds: int = 0  # O(N) passes over bounds and clocks: the first and one per epoch

    @property
    def spikes(self) -> int:
        return self.times.size

    @property
    def acceptance_ratio(self) -> float:
        return self.spikes / self.proposals if self.proposals else 1.0


MEAN_RESIDUAL_ABS = 1e-9  # bound on a snapshot mean's distance to the recorded running mean


@dataclass
class BoundReport:
    """Path-wise a priori checks on a finished run."""

    envelope_violations: list = field(default_factory=list)
    mean_residual: float = 0.0
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.envelope_violations and self.mean_residual <= MEAN_RESIDUAL_ABS


def init_system(config: SystemConfig, stream_labels=None) -> ParticleState:
    """The state simulate(config, ..., stream_labels) starts from.

    Neuron i starts at the initial law's quantile of uniform 0 of its
    label's stream, so N i.i.d. potentials.
    """
    labels = _stream_labels(config, stream_labels)
    _, first = _first_blocks(config.seed, labels)
    return _initial_state(config, first[:, 0])


def _stream_labels(config: SystemConfig, stream_labels) -> list:
    """The neurons' stream labels: N distinct ints, by default the neuron indices."""
    if stream_labels is None:
        return list(range(config.n))
    labels = list(stream_labels)
    if len(labels) != config.n:
        raise ConfigError("need one stream label per neuron")
    if not all(isinstance(lab, (int, np.integer)) and not isinstance(lab, bool) for lab in labels):
        raise ConfigError("stream labels must be ints")
    labels = [int(lab) for lab in labels]
    if not all(-(2**63) <= lab < 2**63 for lab in labels):
        raise ConfigError("stream labels must lie in [-2^63, 2^63)")
    if len(set(labels)) != len(labels):
        raise ConfigError("stream labels must be distinct")
    return labels


def _first_blocks(seed: int, labels):
    """(run key, each label's first block of uniforms as one row) of the engine's streams under seed."""
    key = stream_key(seed, "prop")
    return key, read_blocks(zip(repeat(key), labels, repeat(0))).reshape(-1, BLOCK_UNIFORMS)


def _initial_state(config: SystemConfig, u) -> ParticleState:
    """The state at time 0, neuron i starting at the initial law's quantile of u[i]."""
    x = config.initial.quantile(u)
    # summing in sorted order makes the mean independent of the labeling,
    # so permuting stream labels permutes trajectories bitwise
    return ParticleState(t=0.0, lam=config.lam, xbar=float(np.sort(x).sum()) / x.size, anchor_time=0.0, anchor_x=x)


def _epoch(n: int):
    """(m, slack, rounding) at N = n: spikes per bound epoch, the bound position's slack (m-1)/N, its lam = 0 factor."""
    m = max(1, int(_EPOCH_DRIFT * n))
    return m, (m - 1) / n, _KICK_ROUNDING if m > 1 else 1.0


def _dominating_rates(f, lam: float, y, shift, amp, xbar, slack, rounding):
    """Rate bounds that hold for an epoch of m spikes from x = amp * (y + shift), mean xbar.

    slack and rounding are _epoch's. The other arguments broadcast against
    y: y is (N,) with scalars, (R, N) with (R, 1) columns, or any rows'
    cells with per-cell values. A float slack of 0.0 (m = 1) is skipped:
    adding it would only turn -0.0 into 0.0, which the floor hides, and it
    costs ~1.7 us a call at the scalar engine's N <= 3, a rebuild per spike.
    """
    x = y + shift
    if lam != 0.0:
        x *= amp
        np.maximum(x, xbar, out=x)
    if not isinstance(slack, float) or slack:
        x += slack
        if lam == 0.0:
            x *= rounding
    b = f(x)
    return np.maximum(b, _RATE_FLOOR, out=b)


def apply_spike(state: ParticleState, i: int) -> ParticleState:
    """Spike of neuron i at the current time: reset, kick others by 1/N.

    The mean moves by ((N-1)/N - x_i) / N; anchors are reset at the spike
    time. Returns a new state.
    """
    n = state.n
    if not 0 <= i < n:
        raise ValueError("spiking index out of range")
    x = state.positions()
    pre = x[i]
    x = x + 1.0 / n
    x[i] = 0.0
    xbar = state.xbar + ((n - 1) / n - pre) / n
    return ParticleState(t=state.t, lam=state.lam, xbar=xbar, anchor_time=state.t, anchor_x=x)


def simulate(
    config: SystemConfig,
    snapshot_times,
    stream_labels=None,
    event_budget: int = 100_000_000,
):
    """Exact simulation up to the horizon; returns (EventLog, snapshots).

    snapshot_times, any iterable of numbers, must be sorted within [0,
    horizon]; it may be empty or repeat a time. stream_labels are N
    distinct ints (default: the neuron indices): neuron i runs on the
    stream of stream_labels[i], so the run is deterministic given
    config.seed and the labels, and permuting the labels permutes the
    neurons' trajectories.

    Potentials are x_j = amp * (y_j + shift) at the last spike time ta; a
    spike moves amp, shift, xbar and y_i. At the end of each epoch of m =
    max(1, floor(_EPOCH_DRIFT N)) spikes, at every lam, one O(N) pass
    rebuilds the bounds and rescales the pending clocks to them; in between,
    the spiker keeps its bound (its reset potential lies below it).
    """
    snaps = config.check_times(snapshot_times).tolist()
    if snaps != sorted(snaps):
        raise ConfigError("snapshot times must be sorted")
    labels = _stream_labels(config, stream_labels)
    lam, f, horizon, n = config.lam, config.rate, config.horizon, config.n
    m, slack, rounding = _epoch(n)

    # one uniform stream per neuron: its initial potential, its first clock,
    # then (mark, next clock) per proposal; each neuron's first block is read
    # here and the rest on demand; used[i] counts what neuron i read
    key, first = _first_blocks(config.seed, labels)
    draws = first.tolist()
    used = [2] * n
    state = _initial_state(config, first[:, 0])
    x0, xbar = state.anchor_x, state.xbar
    y, amp, shift, ta = x0.copy(), 1.0, 0.0, 0.0

    # unit-rate clocks drawn at time 0, scaled to the first bounds
    bounds = _dominating_rates(f, lam, y, shift, amp, xbar, slack, rounding)
    next_time = np.array([-math.log1p(-row[1]) for row in draws]) / bounds
    rebuilds = 1

    ev_times, ev_idx, ev_pre = [], [], []
    proposals = overshoots = spikes = 0
    snapshots: list[Snapshot] = []
    n_snaps, snaps = len(snaps), snaps + [math.inf]

    def emit_until(limit: float):  # the snapshots at times up to limit
        while len(snapshots) < n_snaps and snaps[len(snapshots)] <= limit + 1e-15:
            ts = snaps[len(snapshots)]
            x = y + shift  # at lam = 0 (amp = 1) the potentials rest at their anchors
            if lam != 0.0:
                x = xbar + math.exp(-lam * (ts - ta)) * (amp * x - xbar)
            x.sort()
            snapshots.append(Snapshot(time=ts, sorted_values=x, mean=float(x.sum()) / n))

    while True:
        i = int(next_time.argmin())
        tau = next_time.item(i)
        if not tau <= horizon:
            emit_until(math.inf)  # snapshot times may pass the horizon by rounding
            break
        if snaps[len(snapshots)] <= tau + 1e-15:
            emit_until(tau)
        proposals += 1
        xi = amp * (y.item(i) + shift)
        decay = math.exp(-lam * (tau - ta))
        if lam != 0.0:  # at lam = 0 the potential rests at its anchor
            xi = xbar + decay * (xi - xbar)
        fx = f(xi)
        overshoots += bool(fx > bounds.item(i))
        k, row = used[i], draws[i]
        if k == len(row):  # doubles the neuron's blocks; other rows are untouched
            row += uniform_array(key, labels[i : i + 1], k // BLOCK_UNIFORMS, k // BLOCK_UNIFORMS)[0].tolist()
        used[i] = k + 2
        if row[k] * bounds.item(i) <= fx:
            spikes += 1
            if spikes > event_budget:
                raise EventBudgetExceededError(f"more than {event_budget} spikes")
            ev_times.append(tau)
            ev_idx.append(i)
            ev_pre.append(xi)
            # all drift to tau (decay = 1 at lam = 0) and take the kick 1/N; i resets to 0
            if amp * decay < 1e-100:  # fold the drift into y, long before amp can underflow
                y, amp, shift, decay = xbar + decay * (amp * (y + shift) - xbar), 1.0, 0.0, 1.0
            amp *= decay
            shift += ((1.0 - decay) * xbar + 1.0 / n) / amp
            y[i] = -shift
            xbar += ((n - 1) / n - xi) / n
            ta = tau
            if spikes % 4096 == 0:
                y, amp, shift = amp * (y + shift), 1.0, 0.0  # fold the affine map into y
                xbar = float(np.sort(y).sum()) / n  # cap float drift of the running mean
            if spikes % m == 0:  # pending clocks rescaled to the new bounds, exact by memorylessness
                bx = _dominating_rates(f, lam, y, shift, amp, xbar, slack, rounding)
                next_time -= tau
                next_time *= bounds
                next_time /= bx
                next_time += tau
                bounds = bx
                rebuilds += 1
        next_time[i] = tau - math.log1p(-row[k + 1]) / bounds.item(i)

    ev = (np.asarray(ev_times), np.asarray(ev_idx, dtype=int), np.asarray(ev_pre))
    return EventLog(*ev, proposals, x0, bound_overshoots=overshoots, rebuilds=rebuilds), snapshots


def check_apriori(log: EventLog, snapshots, config: SystemConfig) -> BoundReport:
    """Verify the path-wise a priori bounds on a finished run.

    (a) Envelope: x_i(t) <= x_i(0) + (4 lam t + 4)(xbar_0 + Z~_t) with the
        conservative event count Z~_t = (#spikes before t)/N, checked at
        every spike (the spiker's pre-spike potential) and at every
        snapshot (all neurons, via the sorted comparison).
    (b) Mean reconstruction: xbar(t) = xbar(0) + (1/N) sum over spikes of
        ((N-1)/N - x_pre), compared with the snapshot means.
    """
    n = config.n
    lam = config.lam
    report = BoundReport()
    x0 = log.initial_values
    xbar0 = float(x0.mean())
    sorted_x0 = np.sort(x0)

    # spike k has k spikes strictly before it
    t, i, pre = log.times, log.indices, log.pre_potentials
    bound = x0[i] + (4 * lam * t + 4) * (xbar0 + np.arange(log.spikes) / n)
    report.checked += log.spikes
    bad = (pre > bound + 1e-9).nonzero()[0]
    report.envelope_violations += zip(t[bad].tolist(), i[bad].tolist(), pre[bad].tolist(), bound[bad].tolist())

    increments = (n - 1) / n - pre
    for snap in snapshots:
        k = int(np.searchsorted(log.times, snap.time, side="right"))
        z = k / n
        envelope = sorted_x0 + (4 * lam * snap.time + 4) * (xbar0 + z)
        report.checked += n
        if np.any(snap.sorted_values > envelope + 1e-9):
            j = int(np.argmax(snap.sorted_values - envelope))
            report.envelope_violations.append(
                (float(snap.time), -1, float(snap.sorted_values[j]), float(envelope[j]))
            )
        xbar_rec = xbar0 + increments[:k].sum() / n
        report.mean_residual = max(report.mean_residual, abs(snap.mean - xbar_rec))
    return report
