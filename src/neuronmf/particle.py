"""Exact event-driven simulation of the interacting spiking-neuron system.

Each of the N neurons carries a membrane potential x_i >= 0, spikes at rate
f(x_i), resets to 0 at its own spike, gains 1/N at every other spike, and
drifts toward the instantaneous empirical mean at speed lam. Between spikes
the mean is constant and every potential moves monotonically toward it, so

    x_i(t) = xbar + exp(-lam (t - t_anchor)) (x_i(t_anchor) - xbar),

which makes f(max(x_i(t_anchor), xbar)) a valid dominating rate until the
next spike. Simulation is by thinning against these per-neuron dominating
rates, realized as one proposal clock per neuron (its own substream) so
that permuting neuron stream labels exactly permutes trajectories. Pending
proposal times are rescaled in place when a bound changes, which preserves
the exponential law without consuming extra randomness.

_event_loop is the package's one exact event engine: simulate runs it
alone, and limitlaw.simulate_coupled runs it with the N coupled limit
paths as a shadow that shares every proposal's mark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError, SystemConfig
from .rng import substream


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
    """Draw N i.i.d. initial potentials, one substream per neuron."""
    n = config.n
    labels = range(n) if stream_labels is None else stream_labels
    x = np.empty(n)
    for i, lab in enumerate(labels):
        x[i] = config.initial.sample(substream(config.seed, "init", lab), 1)[0]
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

    snapshot_times must be sorted within [0, horizon]. Deterministic given
    config.seed and the stream labels (default: neuron index).
    """
    snap_times = np.asarray(list(snapshot_times), dtype=float)
    if snap_times.size and (snap_times[0] < 0 or snap_times[-1] > config.horizon + 1e-12):
        raise ConfigError("snapshot times must lie in [0, horizon]")
    if np.any(np.diff(snap_times) < 0):
        raise ConfigError("snapshot times must be sorted")
    labels = list(range(config.n)) if stream_labels is None else list(stream_labels)
    if len(labels) != config.n:
        raise ConfigError("need one stream label per neuron")

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

    observe(k, t, x) receives the (unsorted) potentials at the k-th
    snapshot time. A shadow -- the coupling's N limit paths -- is started
    on the initial draws, sees the mark z = u * B_i of every proposal
    through shadow.propose(i, tau, z), and keeps its own bound array
    shadow.by; proposals then run at max(bx, by) instead of the particle
    bounds bx alone. Returns the EventLog.
    """
    lam = config.lam
    f = config.rate
    horizon = config.horizon

    state = init_system(config, labels)
    rngs = [substream(config.seed, "prop", lab) for lab in labels]
    x0 = state.anchor_x.copy()
    propose = None
    if shadow is not None:
        shadow.start(x0)
        propose = shadow.propose

    bx = _dominating_rates(f, lam, state.anchor_x, state.xbar)
    bounds = bx if shadow is None else np.maximum(bx, shadow.by)
    next_time = np.array([_fresh_clock(rng, 0.0, b) for rng, b in zip(rngs, bounds)])

    ev_times, ev_idx, ev_pre = [], [], []
    proposals = 0
    spikes = 0
    snap_i = 0

    def emit_until(limit: float):
        nonlocal snap_i
        while snap_i < snap_times.size and snap_times[snap_i] <= limit + 1e-15:
            observe(snap_i, snap_times[snap_i], state.positions(snap_times[snap_i]))
            snap_i += 1

    while True:
        i = int(next_time.argmin())
        tau = float(next_time[i])
        if tau > horizon or not math.isfinite(tau):
            emit_until(horizon)
            break
        emit_until(tau)
        proposals += 1
        xbar = state.xbar
        xi = xbar + math.exp(-lam * (tau - state.anchor_time)) * (state.anchor_x[i] - xbar)
        z = rngs[i].random() * bounds[i]
        if propose is not None:
            propose(i, tau, z)
        if z <= f(xi):
            spikes += 1
            if spikes > event_budget:
                raise EventBudgetExceededError(f"more than {event_budget} spikes")
            if log_events:
                ev_times.append(tau)
                ev_idx.append(i)
                ev_pre.append(xi)
            state.t = tau
            state = apply_spike(state, i)
            if spikes % 4096 == 0:
                state.xbar = float(np.sort(state.anchor_x).mean())  # cap float drift of the running mean
            old = bounds
            bx = _dominating_rates(f, lam, state.anchor_x, state.xbar)
            bounds = bx if shadow is None else np.maximum(bx, shadow.by)
            # rescale pending exponential clocks to the new rates; clocks
            # that were dormant (zero bound) get a fresh draw instead
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(bounds > 0, old / bounds, np.inf)
                next_time = tau + (next_time - tau) * ratio
            for j in np.nonzero((old <= 0) & (bounds > 0))[0]:
                next_time[j] = _fresh_clock(rngs[j], tau, bounds[j])
        elif shadow is not None:
            bounds[i] = max(bx[i], shadow.by[i])  # a jump of limit path i moved by[i]
        next_time[i] = _fresh_clock(rngs[i], tau, bounds[i])

    return EventLog(
        times=np.asarray(ev_times),
        indices=np.asarray(ev_idx, dtype=int),
        pre_potentials=np.asarray(ev_pre),
        proposals=proposals,
        initial_values=x0,
    )


def _dominating_rates(f, lam: float, anchor_x: np.ndarray, xbar: float) -> np.ndarray:
    # lam = 0: no motion between spikes, so the bound is tight and every
    # proposal is accepted; lam > 0: monotone motion toward the mean.
    if lam == 0.0:
        return np.asarray(f(anchor_x), dtype=float)
    return np.asarray(f(np.maximum(anchor_x, xbar)), dtype=float)


def _fresh_clock(rng: np.random.Generator, now: float, bound: float) -> float:
    if bound <= 0.0:
        return math.inf
    return now + rng.exponential() / bound


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
