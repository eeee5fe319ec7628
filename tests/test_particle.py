import math

import numpy as np
import pytest
from scipy import stats

from neuronmf import (
    ConfigError,
    EventLog,
    InitialLaw,
    ParticleState,
    RateFunction,
    Snapshot,
    SystemConfig,
    apply_spike,
    check_apriori,
    derive_seed,
    init_system,
    simulate,
)
from neuronmf.particle import _EPOCH_DRIFT
from neuronmf.rng import BLOCK_UNIFORMS

FX = RateFunction.power(1, 1)
FX2 = RateFunction.power(1, 2)


def make_config(n=100, lam=1.0, rate=FX2, initial=None, horizon=2.0, seed=7):
    return SystemConfig(
        n=n, lam=lam, rate=rate, initial=initial or InitialLaw.exponential(1.0), horizon=horizon, seed=seed
    )


# eight neurons at f = x + x^2 keep kicking each other into firing, so some
# neuron reads past 16 uniforms of its stream: its row is refilled at least twice
REFILL_CONFIG = make_config(n=8, lam=1.0, rate=RateFunction.polynomial([1.0, 1.0]), horizon=8.0)


def assert_refills(log):
    # neuron i reads 2 uniforms up front and 2 per proposal, and spikes <= proposals
    assert 2 + 2 * np.bincount(log.indices).max() > 2 * BLOCK_UNIFORMS


class TestInitSystem:
    def test_point_mass(self):
        state = init_system(make_config(n=4, initial=InitialLaw.point_mass(1.0)))
        assert np.all(state.anchor_x == 1.0)
        assert state.xbar == 1.0

    def test_clt_band(self):
        state = init_system(make_config(n=10_000))
        assert abs(state.xbar - 1.0) < 4 / math.sqrt(10_000)

    def test_zero_particles_rejected(self):
        with pytest.raises(ConfigError):
            make_config(n=0)

    @pytest.mark.parametrize("n", [1, 3, 8, 9, 1000])
    def test_mean_is_the_sorted_numpy_mean(self, n):
        # the mean is taken as a sum over the sorted potentials divided by N,
        # which must round exactly like np.mean does on them
        state = init_system(make_config(n=n, seed=n))
        assert state.xbar == float(np.sort(state.anchor_x).mean())

    @pytest.mark.parametrize("labels", [None, [3, 0, 4, 1, 2]], ids=["default", "permuted"])
    def test_is_the_state_simulate_starts_from(self, labels):
        cfg = make_config(n=5)
        state = init_system(cfg, labels)
        log, _ = simulate(cfg, [], stream_labels=labels)
        assert np.array_equal(state.anchor_x, log.initial_values)


class TestParticleState:
    def test_positions_at_lam0_are_the_anchors(self):
        # without leak the closed form xbar + 1.0 * (x - xbar) is off the anchors by an ulp
        x = np.array([0.1, 0.7, 2.3, 1e-3, 5.0 / 3.0])
        st = ParticleState(t=1.5, lam=0.0, xbar=float(x.mean()), anchor_time=0.25, anchor_x=x)
        assert st.positions().tobytes() == x.tobytes()
        assert st.positions(2.0).tobytes() == x.tobytes()
        assert st.positions() is not st.anchor_x


class TestApplySpike:
    def test_two_particle_update(self):
        st = ParticleState(t=0.0, lam=1.0, xbar=2.0, anchor_time=0.0, anchor_x=np.array([3.0, 1.0]))
        out = apply_spike(st, 0)
        assert out.anchor_x == pytest.approx([0.0, 1.5])
        # mean moves by ((N-1)/N - x_pre)/N = (1/2 - 3)/2
        assert out.xbar == pytest.approx(0.75)
        assert out.xbar == pytest.approx(out.anchor_x.mean())

    def test_single_particle(self):
        st = ParticleState(t=0.0, lam=0.0, xbar=2.0, anchor_time=0.0, anchor_x=np.array([2.0]))
        out = apply_spike(st, 0)
        assert out.anchor_x[0] == 0.0 and out.xbar == 0.0

    def test_spike_at_zero(self):
        st = ParticleState(t=0.0, lam=0.0, xbar=0.5, anchor_time=0.0, anchor_x=np.array([0.0, 1.0]))
        out = apply_spike(st, 0)
        assert out.anchor_x == pytest.approx([0.0, 1.5])


class TestSimulate:
    def test_point_mass_zero_never_spikes(self):
        cfg = make_config(n=5, initial=InitialLaw.point_mass(0.0))
        log, snaps = simulate(cfg, [0.0, 1.0, 2.0])
        assert log.spikes == 0
        assert all(np.all(s.sorted_values == 0.0) for s in snaps)

    def test_single_neuron_absorbs(self):
        cfg = make_config(n=1, lam=3.0, initial=InitialLaw.point_mass(1.5), horizon=100.0)
        log, snaps = simulate(cfg, [100.0])
        assert log.spikes == 1
        assert snaps[0].sorted_values[0] == 0.0

    def test_absorption_time_ks(self):
        # N=1: drift vanishes, rate constant, absorption time ~ Exp(f(x0))
        x0 = 1.5
        times = np.empty(2000)
        for rep in range(times.size):
            cfg = make_config(
                n=1, lam=2.0, initial=InitialLaw.point_mass(x0), horizon=200.0, seed=derive_seed(11, "ks", rep)
            )
            log, _ = simulate(cfg, [])
            times[rep] = log.times[0]
        res = stats.kstest(times, "expon", args=(0.0, 1.0 / FX2(x0)))
        assert res.pvalue >= 0.01

    def test_acceptance_is_one_without_drift(self):
        log, _ = simulate(make_config(n=50, lam=0.0, horizon=3.0), [3.0])
        assert log.proposals == log.spikes and log.acceptance_ratio == 1.0

    def test_mean_constant_between_spikes(self):
        cfg = make_config(n=20, lam=1.5)
        log, snaps = simulate(cfg, np.linspace(0, 2, 41))
        increments = (cfg.n - 1) / cfg.n - log.pre_potentials
        for s in snaps:
            k = np.searchsorted(log.times, s.time, side="right")
            xbar_rec = snaps[0].mean + increments[:k].sum() / cfg.n
            assert s.mean == pytest.approx(xbar_rec, abs=1e-11)

    def test_deterministic(self):
        for cfg in [make_config(), REFILL_CONFIG]:
            snap_times = [cfg.horizon / 2, cfg.horizon]
            log1, snaps1 = simulate(cfg, snap_times)
            log2, snaps2 = simulate(cfg, snap_times)
            assert np.array_equal(log1.times, log2.times)
            assert all(np.array_equal(a.sorted_values, b.sorted_values) for a, b in zip(snaps1, snaps2))
        assert_refills(log1)

    @pytest.mark.parametrize(
        "cfg", [make_config(n=60, lam=0.0), make_config(n=60, lam=1.0), REFILL_CONFIG], ids=["0.0", "1.0", "refill"]
    )
    def test_exchangeability(self, cfg):
        snap_times = np.linspace(0, cfg.horizon, 5)
        perm = np.random.default_rng(0).permutation(cfg.n).tolist()
        log1, snaps1 = simulate(cfg, snap_times)
        log2, snaps2 = simulate(cfg, snap_times, stream_labels=perm)
        assert np.array_equal(log1.times, log2.times)
        for a, b in zip(snaps1, snaps2):
            assert np.array_equal(a.sorted_values, b.sorted_values)
            assert a.mean == b.mean
        if cfg is REFILL_CONFIG:
            assert_refills(log1)

    @pytest.mark.parametrize("labels", [[0.5, 0.9, 2], [0, 1.0, 2], [True, False, 2], ["0", 1, 2]])
    def test_non_int_stream_labels_rejected(self, labels):
        # float labels would be truncated into colliding streams (0.5 and 0.9 both to 0)
        with pytest.raises(ConfigError, match="ints"):
            simulate(make_config(n=3), [1.0], stream_labels=labels)

    def test_duplicate_stream_labels_rejected(self):
        # a shared label would give two neurons the same potential and clocks
        with pytest.raises(ConfigError, match="distinct"):
            simulate(make_config(n=3), [1.0], stream_labels=[5, 5, 6])

    def test_numpy_int_stream_labels_accepted(self):
        labels = np.arange(3, dtype=np.int64)[::-1]
        log1, _ = simulate(make_config(n=3), [1.0], stream_labels=labels)
        log2, _ = simulate(make_config(n=3), [1.0], stream_labels=[2, 1, 0])
        assert np.array_equal(log1.times, log2.times)

    def test_snapshot_sorted_and_nonnegative(self):
        _, snaps = simulate(make_config(), np.linspace(0, 2, 9))
        for s in snaps:
            assert np.all(np.diff(s.sorted_values) >= 0)
            assert np.all(s.sorted_values >= 0)

    def test_event_log_invariants(self):
        log, _ = simulate(make_config(n=80, lam=1.0), [2.0])
        assert np.all(np.diff(log.times) > 0)
        assert np.all(log.pre_potentials >= 0)
        assert log.proposals >= log.spikes

    def test_bad_snapshots_rejected(self):
        with pytest.raises(ConfigError):
            simulate(make_config(horizon=1.0), [0.5, 2.0])

    def test_snapshot_past_horizon_by_rounding_is_kept(self):
        log, snaps = simulate(make_config(n=3, lam=1.0, horizon=1.0), [0.5, 1.0 + 5e-13])
        assert [s.time for s in snaps] == [0.5, 1.0 + 5e-13]

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("rate", [FX2, RateFunction.polynomial([0.0, 1.0, 1.0]), RateFunction.power(2, 1.5)])
    def test_no_bound_overshoots(self, lam, rate):
        proposals = 0
        for n in [1, 2, 50, 400]:
            log, _ = simulate(make_config(n=n, lam=lam, rate=rate, seed=101), [1.0])
            proposals += log.proposals
            assert log.bound_overshoots == 0, f"n={n}"
        assert proposals > 0


class TestTimeChange:
    """Rate c f at lam over [0, T] is rate f at lam/c over [0, cT], time scaled by c.

    Spike rates and decay rates both scale by c, so with c a power of two
    every clock, bound and decay exponent scales exactly, and the two runs
    agree bit for bit: a time constant in absolute units would break it.
    """

    RATES = {"x^2": lambda c: RateFunction.power(c, 2), "x+x^2": lambda c: RateFunction.polynomial([c, c])}
    SNAPS = [0.25, 0.5, 1.0, 1.5]

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("c", [2.0, 4.0, 0.5])
    def test_runs_equal_bitwise(self, c, lam):
        spikes = 0
        for n in [1, 3, 50, 400]:
            for name, rate in self.RATES.items():
                for seed in [1, 2]:
                    fast, fast_snaps = simulate(make_config(n=n, lam=lam, rate=rate(c), seed=seed), self.SNAPS)
                    slow_cfg = make_config(n=n, lam=lam / c, rate=rate(1.0), horizon=2.0 * c, seed=seed)
                    slow, slow_snaps = simulate(slow_cfg, [c * t for t in self.SNAPS])
                    case = (n, name, seed)
                    spikes += fast.spikes
                    assert np.array_equal(slow.times, c * fast.times), case
                    for field in ("indices", "pre_potentials", "initial_values"):
                        assert np.array_equal(getattr(slow, field), getattr(fast, field)), (field, *case)
                    assert (slow.proposals, slow.bound_overshoots, slow.rebuilds) == (
                        fast.proposals, fast.bound_overshoots, fast.rebuilds), case
                    for a, b in zip(fast_snaps, slow_snaps, strict=True):
                        assert b.time == c * a.time and b.mean == a.mean, case
                        assert np.array_equal(b.sorted_values, a.sorted_values), case
        assert spikes > 0


class TestSnapshotTimes:
    CFG = make_config(n=3, lam=1.0, horizon=1.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigError, match="sorted"):
            simulate(self.CFG, [0.5, 0.25, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, -0.1, -math.inf, math.inf, 1.0 + 2e-12], ids=repr)
    def test_outside_horizon_rejected(self, bad):
        with pytest.raises(ConfigError, match=r"\[0, horizon\]"):
            simulate(self.CFG, [0.0, bad])

    def test_any_iterable_gives_the_same_run(self):
        times = [0.0, 0.25, 0.25, 1.0]
        want_log, want = simulate(self.CFG, times)
        for given in (tuple(times), (t for t in times), np.array(times)):
            log, got = simulate(self.CFG, given)
            assert log.times.tobytes() == want_log.times.tobytes()
            assert [(s.time, s.mean, s.sorted_values.tobytes()) for s in got] == [
                (s.time, s.mean, s.sorted_values.tobytes()) for s in want
            ]

    def test_empty_accepted(self):
        log, snaps = simulate(self.CFG, [])
        assert snaps == [] and log.proposals > 0

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 400])
    def test_mean_is_the_numpy_mean(self, lam, n):
        # a snapshot's mean is the sum of its sorted values over N, which
        # rounds exactly like np.mean
        _, snaps = simulate(make_config(n=n, lam=lam, seed=n), [0.0, 0.5, 1.0, 2.0])
        for snap in snaps:
            assert snap.mean == float(np.mean(snap.sorted_values))


class TestEngineAgainstReference:
    """The engine's O(1) affine spike update against the one-spike definition."""

    @staticmethod
    def replay(log, snaps, lam):
        # apply_spike and ParticleState.positions, replayed over the logged
        # spikes, give the logged pre-spike potentials and the snapshots
        x0 = log.initial_values
        state = ParticleState(t=0.0, lam=lam, xbar=float(np.sort(x0).mean()), anchor_time=0.0, anchor_x=x0.copy())
        k = 0
        for snap in snaps:
            while k < log.spikes and log.times[k] <= snap.time:
                state.t = log.times[k]
                pre = state.positions()[log.indices[k]]
                assert abs(pre - log.pre_potentials[k]) <= 1e-12, f"spike {k}"
                state = apply_spike(state, int(log.indices[k]))
                k += 1
            replayed = np.sort(state.positions(snap.time))
            assert np.max(np.abs(replayed - snap.sorted_values)) <= 1e-12, f"t={snap.time}"
        assert k == log.spikes

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("rate", [FX2, RateFunction.polynomial([1.0, 1.0])])
    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_replay_through_apply_spike(self, lam, rate, n):
        log, snaps = simulate(make_config(n=n, lam=lam, rate=rate, seed=101), [0.5, 1.0, 2.0])
        self.replay(log, snaps, lam)

    def test_replay_across_long_quiet_gaps(self):
        # decays below 1e-100 between spikes: the affine scale is folded into y
        # instead of underflowing
        cfg = make_config(n=3, lam=40.0, rate=RateFunction.power(0.05, 1), horizon=200.0, seed=3)
        log, snaps = simulate(cfg, [50.0, 100.0, 200.0])
        gaps = np.diff(np.concatenate([[0.0], log.times]))
        assert np.max(gaps) * cfg.lam > 745  # exp(-lam * gap) underflows to 0
        self.replay(log, snaps, cfg.lam)

    def test_reset_neuron_alone_never_proposes(self):
        # N=1: an epoch is one spike with slack (M-1)/N = 0, so after its spike
        # the neuron rests at rate 0 (a slack of 1/N proposes at rate f(1))
        cfg = make_config(n=1, lam=2.0, initial=InitialLaw.point_mass(1.5), horizon=400.0)
        log, _ = simulate(cfg, [])
        assert (log.proposals, log.spikes) == (1, 1)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_bounds_rebuilt_once_per_epoch(self, lam):
        n = 400
        m = max(1, int(_EPOCH_DRIFT * n))
        log, _ = simulate(make_config(n=n, lam=lam), [2.0])
        assert m > 1 and log.spikes > 10 * m
        assert log.rebuilds <= log.spikes / m + 1

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 3, 127, 128, 400])
    def test_rebuilds_are_the_first_and_one_per_epoch(self, lam, n):
        # m = 1 below N = 128 and 2 at N = 128: the first pass at time 0, then
        # one at the end of every full epoch of m spikes
        m = max(1, int(_EPOCH_DRIFT * n))
        log, _ = simulate(make_config(n=n, lam=lam, horizon=4.0 if n <= 3 else 2.0), [])
        assert log.spikes >= m  # N = 1 spikes once, then rests at 0
        assert log.rebuilds == log.spikes // m + 1


class TestCheckApriori:
    def test_empty_log_constant_mean(self):
        cfg = make_config(n=5, initial=InitialLaw.point_mass(0.0))
        log, snaps = simulate(cfg, [0.0, 1.0, 2.0])
        report = check_apriori(log, snaps, cfg)
        assert report.ok and report.mean_residual == 0.0

    def test_single_spike_reconstruction(self):
        cfg = make_config(n=2, lam=0.0, rate=FX, initial=InitialLaw.point_mass(1.0), horizon=0.05, seed=3)
        # short horizon: usually 0 or 1 spikes; find a seed with exactly one
        for seed in range(40):
            cfg = make_config(n=2, lam=0.0, rate=FX, initial=InitialLaw.point_mass(1.0), horizon=0.05, seed=seed)
            log, snaps = simulate(cfg, [0.05])
            if log.spikes == 1:
                report = check_apriori(log, snaps, cfg)
                assert report.ok
                expected = 1.0 + (0.5 - log.pre_potentials[0]) / 2
                assert snaps[0].mean == pytest.approx(expected, abs=1e-12)
                return
        pytest.fail("no single-spike run found")

    def test_doctored_run_reports_its_violations(self):
        # N = 2 at lambda 1 from x0 = (1, 3), so xbar0 = 2: spike k at t of
        # neuron i has the envelope x0[i] + (4t + 4)(2 + k/2), 13 and 23 here,
        # and the snapshot at 2 (two spikes before it) x0 + 12 * 3 = (37, 39);
        # the second spike and the snapshot's top value are raised above them
        cfg = make_config(n=2, lam=1.0)
        log = EventLog(np.array([0.5, 1.0]), np.array([0, 1]), np.array([0.5, 24.0]), 2, np.array([1.0, 3.0]))
        xbar = 2.0 + (0.0 - 23.5) / 2  # the mean the two spikes leave
        snaps = [Snapshot(0.0, np.array([1.0, 3.0]), 2.0), Snapshot(2.0, np.array([0.25, 40.0]), xbar)]
        report = check_apriori(log, snaps, cfg)
        assert report.envelope_violations == [(1.0, 1, 24.0, 23.0), (2.0, -1, 40.0, 39.0)]
        assert report.checked == 2 + 2 * 2
        assert report.mean_residual == 0.0 and not report.ok

    def test_full_run_no_violations(self):
        cfg = make_config(n=100, lam=1.0)
        log, snaps = simulate(cfg, np.linspace(0, 2, 9))
        report = check_apriori(log, snaps, cfg)
        assert report.ok
        assert report.checked > 0
        assert log.spikes > 0


class TestSmallInstanceOracle:
    """Event-driven means vs the naive Euler scheme on tiny systems.

    The full-scale (1e5 replicate) comparison lives in the acceptance
    suite; this sweep covers the whole (n, lam) grid at reduced replicate
    count, which keeps the 3-combined-standard-error contract meaningful.
    """

    @pytest.mark.parametrize("n,lam", [(2, 0.0), (2, 1.0), (3, 0.0), (3, 1.0)])
    def test_mean_matches_euler(self, n, lam):
        from neuronmf import substream
        from oracles import euler_particle_mean

        reps = 8000
        means = np.empty(reps)
        for rep in range(reps):
            cfg = make_config(
                n=n, lam=lam, rate=FX, horizon=1.0, seed=derive_seed(123, "oracle", n, int(lam), rep)
            )
            _, snaps = simulate(cfg, [1.0])
            means[rep] = snaps[0].mean
        ed_mean = means.mean()
        ed_se = means.std(ddof=1) / math.sqrt(reps)
        eu_mean, eu_se = euler_particle_mean(
            FX, lam, n, 1.0, 1e-4, reps, substream(123, "euler", n, int(lam))
        )
        assert abs(ed_mean - eu_mean) <= 3 * math.hypot(ed_se, eu_se)
