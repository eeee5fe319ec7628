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
stream (rng.uniform_blocks, keyed by the seed and its integer label):
uniform 0 is its initial potential, uniform 1 its first clock, and each
proposal takes the next pair (mark, next clock), so that permuting neuron
stream labels exactly permutes trajectories.
Pending proposal times are rescaled in place when the bounds change,
which keeps them exact by memorylessness.

_event_loop is the package's one exact event engine: simulate runs it
alone, and limitlaw.simulate_coupled runs it with the N coupled limit
paths as a shadow that shares every proposal's mark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError, SystemConfig
from .rng import BLOCK_UNIFORMS, stream_key, uniform_blocks
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
    mean_rate: float


@dataclass
class EventLog:
    """Realized spikes in time order, plus thinning counters."""

    times: np.ndarray
    indices: np.ndarray
    pre_potentials: np.ndarray
    proposals: int
    initial_values: np.ndarray
    bound_overshoots: int = 0  # proposals whose rate exceeded its bound; > 0 means inexact thinning
    rebuilds: int = 0  # O(N) passes over bounds and clocks: the first, one per epoch, one per shadow window

    @property
    def spikes(self) -> int:
        return self.times.size

    @property
    def acceptance_ratio(self) -> float:
        return self.spikes / self.proposals if self.proposals else 1.0


@dataclass
class BoundReport:
    """Path-wise a priori checks on a finished run."""

    envelope_violations: list = field(default_factory=list)
    mean_residual: float = 0.0
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.envelope_violations and self.mean_residual <= 1e-9


def init_system(config: SystemConfig, stream_labels=None) -> ParticleState:
    """The state simulate(config, ..., stream_labels) starts from.

    Neuron i starts at the initial law's quantile of uniform 0 of its
    label's stream, so N i.i.d. potentials.
    """
    labels = _stream_labels(config, stream_labels)
    _, draws = _first_blocks(config, labels)
    return _initial_state(config, [row[0] for row in draws])


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


def _first_blocks(config: SystemConfig, labels):
    """(run key, each label's first block of uniforms) of the engine's streams."""
    key = stream_key(config.seed, "prop")
    return key, uniform_blocks(key, labels, 0, 1)


def _initial_state(config: SystemConfig, u) -> ParticleState:
    """The state at time 0, neuron i starting at the initial law's quantile of u[i]."""
    x = config.initial.quantile(u)
    # summing in sorted order makes the mean independent of the labeling,
    # so permuting stream labels permutes trajectories bitwise
    return ParticleState(t=0.0, lam=config.lam, xbar=float(np.sort(x).mean()), anchor_time=0.0, anchor_x=x)


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
    log_events: bool = True,
):
    """Exact simulation up to the horizon; returns (EventLog, snapshots).

    snapshot_times must be sorted within [0, horizon]. stream_labels are N
    distinct ints (default: the neuron indices): neuron i runs on the
    stream of stream_labels[i], so the run is deterministic given
    config.seed and the labels, and permuting the labels permutes the
    neurons' trajectories.
    """
    snap_times = np.asarray(list(snapshot_times), dtype=float)
    if snap_times.size and (snap_times[0] < 0 or snap_times[-1] > config.horizon + 1e-12):
        raise ConfigError("snapshot times must lie in [0, horizon]")
    if np.any(np.diff(snap_times) < 0):
        raise ConfigError("snapshot times must be sorted")
    labels = _stream_labels(config, stream_labels)

    f = config.rate
    snapshots: list[Snapshot] = []

    def observe(k, ts, x):
        vals = np.sort(x)
        snapshots.append(
            Snapshot(time=float(ts), sorted_values=vals, mean=float(vals.mean()), mean_rate=float(np.mean(f(vals))))
        )

    return _event_loop(config, labels, snap_times, observe, event_budget, log_events), snapshots


def _event_loop(config, labels, snap_times, observe, event_budget, log_events, shadow=None):
    """The thinning loop behind simulate and limitlaw.simulate_coupled.

    Potentials are x_j = amp * (y_j + shift) at the last spike time ta; a
    spike moves amp, shift, xbar and y_i. Bounds are rebuilt, and clocks
    rescaled, in one O(N) pass per epoch of m = max(1, floor(_EPOCH_DRIFT
    N)) spikes, at every lam; in between, the spiker keeps its bound (its
    reset potential lies below it).

    observe(k, t, x) receives the (unsorted) potentials at the k-th
    snapshot time. A shadow -- the coupling's N limit paths, started on
    the initial draws -- sees the mark z = u * B_i of every proposal
    through shadow.propose(i, tau, z) and keeps bounds shadow.by valid up
    to its window end shadow.w; proposals run at max(bx, by), and past
    shadow.w the shadow moves to its next window and the bounds are
    rebuilt. Returns the EventLog.
    """
    lam, f, horizon, n = config.lam, config.rate, config.horizon, config.n
    m = max(1, int(_EPOCH_DRIFT * n))
    slack = (m - 1) / n

    # one uniform stream per neuron: its initial potential, its first clock,
    # then (mark, next clock) per proposal; each neuron's first block is read
    # here and the rest on demand; used[i] counts what neuron i read
    key, draws = _first_blocks(config, labels)
    used = [2] * n
    state = _initial_state(config, [row[0] for row in draws])
    x0, xbar = state.anchor_x, state.xbar
    y, amp, shift, ta = x0.copy(), 1.0, 0.0, 0.0
    if shadow is not None:
        shadow.start(x0)

    def dominating_rates():
        x = y + shift
        if lam != 0.0:
            x *= amp
            np.maximum(x, xbar, out=x)
        x += slack
        if lam == 0.0 and m > 1:
            x *= _KICK_ROUNDING
        b = f(x)
        return np.maximum(b, _RATE_FLOOR, out=b)

    def rebound(now):  # bounds from bx (and by), pending clocks rescaled to them
        nonlocal bounds, next_time, rebuilds
        old = bounds
        bounds = bx if shadow is None else np.maximum(bx, shadow.by)
        next_time -= now
        next_time *= old
        next_time /= bounds
        next_time += now
        rebuilds += 1

    bx = dominating_rates()
    bounds, next_time, rebuilds = 1.0, np.array([-math.log1p(-row[1]) for row in draws]), 0
    rebound(0.0)  # unit-rate clocks drawn at time 0

    ev_times, ev_idx, ev_pre = [], [], []
    proposals = overshoots = spikes = 0
    snaps = snap_times.tolist() + [math.inf]
    snap_i = 0

    def emit_until(limit: float):
        nonlocal snap_i
        while snap_i < snap_times.size and snaps[snap_i] <= limit + 1e-15:
            x = y + shift  # at lam = 0 (amp = 1) the potentials rest at their anchors
            if lam != 0.0:
                x = xbar + math.exp(-lam * (snaps[snap_i] - ta)) * (amp * x - xbar)
            observe(snap_i, snap_times[snap_i], x)
            snap_i += 1

    while True:
        i = int(next_time.argmin())
        tau = next_time.item(i)
        if shadow is not None and tau > shadow.w and shadow.w < horizon:
            w = shadow.w
            emit_until(w)
            shadow.next_window()
            rebound(w)
            continue
        if not tau <= horizon:
            emit_until(math.inf)  # snapshot times may pass the horizon by rounding
            break
        if snaps[snap_i] <= tau + 1e-15:
            emit_until(tau)
        proposals += 1
        xi = amp * (y.item(i) + shift)
        decay = math.exp(-lam * (tau - ta))
        if lam != 0.0:  # at lam = 0 the potential rests at its anchor
            xi = xbar + decay * (xi - xbar)
        fx = f(xi)
        overshoot = fx > bx.item(i)
        k, row = used[i], draws[i]
        if k == len(row):  # doubles the neuron's blocks; other rows are untouched
            row += uniform_blocks(key, labels[i : i + 1], k // BLOCK_UNIFORMS, k // BLOCK_UNIFORMS)[0]
        used[i] = k + 2
        z = row[k] * bounds.item(i)
        if shadow is not None and shadow.propose(i, tau, z)[1]:
            overshoot = True
        overshoots += bool(overshoot)
        if z <= fx:
            spikes += 1
            if spikes > event_budget:
                raise EventBudgetExceededError(f"more than {event_budget} spikes")
            if log_events:
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
                xbar = float(np.sort(y).mean())  # cap float drift of the running mean
            if spikes % m == 0:
                bx = dominating_rates()
                rebound(tau)
        if shadow is not None:
            bounds[i] = max(bx.item(i), shadow.by.item(i))  # the proposal re-anchored limit path i
        next_time[i] = tau - math.log1p(-row[k + 1]) / bounds.item(i)

    ev = (np.asarray(ev_times), np.asarray(ev_idx, dtype=int), np.asarray(ev_pre))
    return EventLog(*ev, proposals, x0, bound_overshoots=overshoots, rebuilds=rebuilds)


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

    for k in range(log.spikes):
        t = log.times[k]
        i = log.indices[k]
        z = k / n  # spikes strictly before t
        bound = x0[i] + (4 * lam * t + 4) * (xbar0 + z)
        report.checked += 1
        if log.pre_potentials[k] > bound + 1e-9:
            report.envelope_violations.append((float(t), int(i), float(log.pre_potentials[k]), float(bound)))

    increments = (n - 1) / n - log.pre_potentials
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
