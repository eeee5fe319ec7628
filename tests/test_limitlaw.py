import math
from dataclasses import replace

import numpy as np
import pytest

from neuronmf import (
    ConfigError,
    DriftSeries,
    InitialLaw,
    MassDriftError,
    RateFunction,
    SystemConfig,
    Tolerances,
    simulate,
    simulate_coupled,
    simulate_nonlinear_path,
    solve_marginals,
    substream,
    survival,
)
from neuronmf import limitlaw
from neuronmf.limitlaw import _WINDOW_DRIFT, _coupled_loop, _LimitPaths
from neuronmf.particle import _EPOCH_DRIFT, ParticleState, apply_spike
from neuronmf.rng import stream_key
from oracles import upwind_marginals

FX = RateFunction.power(1, 1)
FX2 = RateFunction.power(1, 2)


def exp_config(lam=0.0, rate=FX2, horizon=2.0, dt=0.0, n=1):
    return SystemConfig(
        n=n,
        lam=lam,
        rate=rate,
        initial=InitialLaw.exponential(1.0),
        horizon=horizon,
        seed=1,
        tolerances=Tolerances(dt=dt),
    )


class TestSolveMarginals:
    def test_time_zero_density_is_initial(self):
        sol = solve_marginals(exp_config(), snapshot_times=[0.0])
        snap = sol.snapshots[0]
        xs = np.linspace(0, 10, 500)
        assert snap.density(xs) == pytest.approx(np.exp(-xs), abs=2e-3)
        assert sol.p[0] == pytest.approx(2.0, abs=1e-3)  # int x^2 e^{-x} = 2

    def test_delta_zero_stays_trivial(self):
        cfg = SystemConfig(n=1, lam=0.5, rate=FX2, initial=InitialLaw.point_mass(0.0), horizon=1.0, seed=1)
        sol = solve_marginals(cfg, snapshot_times=[1.0])
        assert np.all(sol.p == 0.0) and np.all(sol.a == 0.0) and np.all(sol.m == 0.0)
        assert sol.snapshots[-1].mass() == pytest.approx(1.0)

    def test_mass_conserved_and_boundary_identity(self):
        sol = solve_marginals(exp_config(lam=1.0), snapshot_times=[0.5, 1.0, 2.0])
        for snap in sol.snapshots:
            assert abs(snap.mass() - 1.0) <= 1e-4
            assert snap.density(0.0) == pytest.approx(snap.p_t / snap.a_t, rel=1e-9)
            assert np.all(snap.jump_weight > 0) and np.all(snap.jump_weight <= 1.0)

    def test_positive_p_and_a(self):
        sol = solve_marginals(exp_config(), snapshot_times=[2.0])
        assert np.all(sol.p > 0) and np.all(sol.a > 0)
        assert np.all(sol.a == pytest.approx(sol.p))  # lam = 0

    def test_splice_continuity_when_g0_at_zero_is_one(self):
        # Exp(1) has g0(0) = 1, so the density is continuous at the splice
        sol = solve_marginals(exp_config(rate=FX), snapshot_times=[1.0])
        snap = sol.snapshots[-1]
        eps = 1e-9
        left = snap.density(snap.splice - eps)
        right = snap.density(snap.splice + eps)
        assert left == pytest.approx(right, rel=1e-3)

    def test_total_density_integrates_to_one(self):
        sol = solve_marginals(exp_config(), snapshot_times=[2.0])
        snap = sol.snapshots[-1]
        ys = np.linspace(0.0, snap.support()[1], 20001)
        assert np.trapezoid(snap.density(ys), ys) == pytest.approx(1.0, abs=1e-4)

    def test_density_rejects_negative(self):
        sol = solve_marginals(exp_config(), snapshot_times=[1.0])
        with pytest.raises(ValueError):
            sol.snapshot_at(1.0).density(-0.5)

    def test_one_drift_per_solution(self):
        # every caller shares the series, and with it the cached fine flow grid
        sol = solve_marginals(exp_config(), snapshot_times=[1.0])
        assert sol.drift() is sol.drift()

    def test_missing_snapshot(self):
        sol = solve_marginals(exp_config(), snapshot_times=[1.0])
        with pytest.raises(KeyError):
            sol.snapshot_at(0.7)

    def test_snapshot_off_grid_by_rounding_is_kept(self):
        # 0.1 + 6e-13 lies within the grid's dedup distance of the node 0.1
        t = 0.1 + 6e-13
        sol = solve_marginals(exp_config(horizon=0.2, dt=1e-3), snapshot_times=[t])
        assert len(sol.snapshots) == 1
        assert sol.snapshot_at(t).mass() == pytest.approx(1.0, abs=1e-4)

    def test_last_jump_identity_independent_quadrature(self):
        sol = solve_marginals(exp_config(rate=FX2), snapshot_times=[0.5, 2.0])
        drift = sol.drift()
        for snap in sol.snapshots:
            t = snap.t
            s_grid = np.linspace(0.0, t, 129)
            sv = np.array([survival(float(s), t, 0.0, FX2, 0.0, drift) for s in s_grid[:-1]] + [1.0])
            jump = np.trapezoid(np.interp(s_grid, sol.times, sol.p) * sv, s_grid)
            init = np.trapezoid(snap.init_g0 * survival(0.0, t, snap.init_x, FX2, 0.0, drift), snap.init_x)
            assert abs(init + jump - 1.0) <= 1e-4

    def test_mass_guard_triggers(self):
        cfg = exp_config()
        with pytest.raises(MassDriftError):
            # absurdly tight budget: even the initial discretization fails it
            solve_marginals(
                SystemConfig(
                    n=1, lam=0.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=2.0, seed=1,
                    tolerances=Tolerances(mass_abs=1e-12),
                ),
                snapshot_times=[2.0],
            )

    def test_reported_mass_is_the_gated_mass(self):
        # f = x at lambda 0 bisects no step at dt 0.02, so a snapshot at every
        # grid node sees every mass the solver checks against mass_abs
        cfg = exp_config(rate=FX, dt=0.02)
        times = np.linspace(0.0, 2.0, 101)
        sol = solve_marginals(cfg, snapshot_times=times)
        assert len(sol.snapshots) == sol.times.size == 101
        worst = max(abs(snap.mass() - 1.0) for snap in sol.snapshots)
        at, below = (replace(cfg, tolerances=Tolerances(mass_abs=m, dt=0.02)) for m in (worst, math.nextafter(worst, 0.0)))
        solve_marginals(at, snapshot_times=times)
        with pytest.raises(MassDriftError):
            solve_marginals(below, snapshot_times=times)

    def test_dt_convergence_of_consistency_residual(self):
        # |a_t - p_t| at lambda 0, with p_t by trapezoids in y on 8 points per
        # solver node of the snapshot's density; f = x bisects no step here,
        # so the steps are fixed and the ratio is clean
        res = []
        for dt in [0.02, 0.01]:
            snap = solve_marginals(exp_config(rate=FX, dt=dt), snapshot_times=[2.0]).snapshot_at(2.0)
            ys = np.linspace(*snap.support(), 8 * max(64, snap.jump_pos.size + snap.init_x.size))
            res.append(abs(snap.a_t - np.trapezoid(FX(ys) * snap.density(ys), ys)))
        assert res[0] / res[1] >= 1.8

    def test_upwind_oracle_agreement_lam1(self):
        cfg = exp_config(lam=1.0, rate=FX, horizon=1.0)
        sol = solve_marginals(cfg, snapshot_times=[1.0])
        xs = np.linspace(0, 30, 4001)
        g_pde, _, _ = upwind_marginals(FX, 1.0, np.exp(-xs), xs, 1.0)
        l1 = np.trapezoid(np.abs(g_pde - sol.snapshots[-1].density(xs)), xs)
        assert l1 <= max(1e-3, 5 * (xs[1] - xs[0]))

    def test_apriori_moment_bound(self):
        # int_0^t  E[Y_s f(Y_s)] ds <= 2 E[Y_0] + 2 f(2) t
        snaps_t = [0.0, 0.5, 1.0, 1.5, 2.0]
        sol = solve_marginals(exp_config(rate=FX2), snapshot_times=snaps_t)
        q = []
        for snap in sol.snapshots:
            ys = np.linspace(0.0, snap.support()[1], 4001)
            dens = snap.density(ys)
            q.append(float(np.trapezoid(ys * np.asarray(FX2(ys)) * dens, ys)))
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (np.array(q)[1:] + np.array(q)[:-1]) * np.diff(snaps_t))])
        for t, integral in zip(snaps_t, cum):
            assert integral <= 2 * 1.0 + 2 * FX2(2.0) * t + 1e-9


class TestNonlinearPath:
    def test_zero_start_zero_drift(self):
        from neuronmf import DriftSeries

        drift = DriftSeries.constant(0.0, 2.0)
        path = simulate_nonlinear_path(drift, 0.0, FX2, 0.0, substream(3, "p"))
        assert path.jump_times.size == 0
        assert path.value(1.7) == 0.0

    def test_no_jump_probability_matches_survival(self):
        sol = solve_marginals(exp_config(rate=FX2), snapshot_times=[2.0])
        drift = sol.drift()
        y0, t, reps = 1.3, 1.0, 4000
        kappa = survival(0.0, t, y0, FX2, 0.0, drift)
        hits = sum(
            1
            for r in range(reps)
            if not np.any(simulate_nonlinear_path(drift, y0, FX2, 0.0, substream(9, "nj", r), t_end=t).jump_times <= t)
        )
        se = math.sqrt(kappa * (1 - kappa) / reps)
        assert abs(hits / reps - kappa) <= 3 * se

    def test_mean_rate_matches_solver(self):
        sol = solve_marginals(exp_config(rate=FX2), snapshot_times=[2.0])
        drift = sol.drift()
        reps = 4000
        rng0 = substream(11, "y0")
        vals = np.empty(reps)
        for r in range(reps):
            y0 = rng0.exponential(1.0)
            path = simulate_nonlinear_path(drift, y0, FX2, 0.0, substream(11, "sc", r), t_end=2.0)
            vals[r] = FX2(path.value(2.0))
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - sol.p[-1]) <= 3 * se

    def test_path_envelope(self):
        # Y_t <= Y_0 + int_0^t a_s ds path-wise
        sol = solve_marginals(exp_config(rate=FX2, lam=1.0), snapshot_times=[2.0])
        drift = sol.drift()
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (drift.a[1:] + drift.a[:-1]) * np.diff(drift.times))])
        for r in range(50):
            y0 = 0.5 + 0.1 * r
            path = simulate_nonlinear_path(drift, y0, FX2, 1.0, substream(13, "env", r), t_end=2.0)
            for t in [0.5, 1.0, 1.7, 2.0]:
                bound = y0 + np.interp(t, drift.times, cum)
                assert path.value(t) <= bound + 1e-9


class TestWindowBound:
    @pytest.mark.parametrize("lam,constant", [(0.0, False), (1.0, False), (2.0, False), (1.0, True)])
    def test_flow_below_window_bound(self, lam, constant):
        # f(flow(s, u, y)) <= the bound taken at (s, y) for every s <= u <= w;
        # a drift that stays at its maximum makes the lam > 0 bound tight
        drift = solve_marginals(exp_config(lam=lam), snapshot_times=[2.0]).drift()
        if constant:
            drift = DriftSeries.constant(float(np.max(drift.a)), 2.0)
        paths = _LimitPaths(drift, FX2, lam, t_end=2.0, window=_WINDOW_DRIFT)
        y0 = np.linspace(0.0, 2.0 * paths.abar / max(lam, 1.0), 9)
        if lam > 0:
            y0 = np.append(y0, paths.abar / lam)
        paths.start(np.stack([y0, y0[::-1]]))  # two replicates, as the coupled engine holds them
        fi = paths.fi
        for _ in range(4):
            t0, w = paths.t0, paths.w
            assert np.all(FX2(paths.positions(w)) <= paths.by)
            for s in np.linspace(t0, w, 5):
                i_s = fi.at(s)
                ys = paths.positions(s)
                by = paths._bounds(ys, s, i_s)
                for u in np.linspace(s, w, 7):
                    flow_u = fi.at(u) + math.exp(-lam * (u - s)) * (ys - i_s)  # phi_{s,u}(ys)
                    assert np.all(FX2(flow_u) <= by), f"s={s} u={u}"
            paths.next_window()
            assert paths.w > w

    def test_single_window_without_drift(self):
        paths = _LimitPaths(DriftSeries.constant(0.0, 2.0), FX2, 1.0, t_end=2.0, window=_WINDOW_DRIFT)
        paths.start([0.5])
        assert paths.w == 2.0


class TestSimulateCoupled:
    def test_point_mass_zero_trivial(self):
        cfg = SystemConfig(n=8, lam=0.0, rate=FX2, initial=InitialLaw.point_mass(0.0), horizon=1.0, seed=5)
        sol = solve_marginals(cfg, snapshot_times=[0.5, 1.0])
        (stats,) = simulate_coupled(cfg, sol, [0.5, 1.0], seeds=[cfg.seed])
        assert np.all(stats.mean_abs_diff == 0.0)
        assert np.all(stats.mean_h_diff == 0.0)
        assert np.all(stats.w1 == 0.0)

    def test_batches_share_the_drift_flow_integral(self, monkeypatch):
        # each batch on one solution reads the evaluator cached on the solution's drift
        seen = []
        loop = limitlaw._coupled_loop

        def recording(config, seeds, paths, *args, **kwargs):
            seen.append(paths.fi)
            return loop(config, seeds, paths, *args, **kwargs)

        monkeypatch.setattr(limitlaw, "_coupled_loop", recording)
        cfg = exp_config(n=20, lam=1.0)
        sol = solve_marginals(cfg, snapshot_times=[1.0, 2.0])
        simulate_coupled(cfg, sol, [1.0, 2.0], seeds=[1, 2])
        simulate_coupled(replace(cfg, n=40), sol, [1.0, 2.0], seeds=[3])
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0] is sol.drift().integral(1.0)

    def test_deterministic_per_seed(self):
        cfg = exp_config(n=40, lam=1.0)
        sol = solve_marginals(cfg, snapshot_times=[1.0, 2.0])
        (s1,) = simulate_coupled(cfg, sol, [1.0, 2.0], seeds=[cfg.seed])
        (s2,) = simulate_coupled(cfg, sol, [1.0, 2.0], seeds=[cfg.seed])
        assert np.array_equal(s1.mean_abs_diff, s2.mean_abs_diff)
        assert np.array_equal(s1.w1, s2.w1)

    def test_difference_shrinks_with_n(self):
        sol = solve_marginals(exp_config(), snapshot_times=[1.0, 2.0])
        sup = {}
        for n in [25, 400]:
            cfg = SystemConfig(n=n, lam=0.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=2.0, seed=1000)
            stats = simulate_coupled(cfg, sol, [1.0, 2.0], seeds=range(1000, 1008))
            sup[n] = float(np.max(np.mean([s.mean_abs_diff for s in stats], axis=0)))
        assert sup[400] < sup[25]

    def test_snapshot_past_horizon_by_rounding_is_kept(self):
        cfg = exp_config(n=3, lam=1.0, horizon=1.0)
        snaps = [0.5, 1.0 + 5e-13]
        (stats,) = simulate_coupled(cfg, solve_marginals(cfg, snapshot_times=snaps), snaps, seeds=[cfg.seed])
        assert np.all(stats.w1 > 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("rate", [FX2, RateFunction.polynomial([0.0, 1.0, 1.0]), RateFunction.power(2, 1.5)])
    def test_no_bound_overshoots(self, lam, rate):
        sol = solve_marginals(exp_config(lam=lam, rate=rate), snapshot_times=[1.0, 2.0])
        proposals = 0
        for n in [1, 2, 50, 400]:
            cfg = exp_config(lam=lam, rate=rate, n=n)
            (stats,) = simulate_coupled(cfg, sol, [1.0, 2.0], seeds=[cfg.seed])
            proposals += stats.proposals
            assert stats.bound_overshoots == 0, f"n={n}"
        assert proposals > 0

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_coupled_proposals_close_to_plain(self, lam):
        # the limit-path bounds add few proposals to the particle system's own
        sol = solve_marginals(exp_config(lam=lam), snapshot_times=[1.0, 2.0])
        coupled = plain = 0
        for seed in range(3):
            cfg = SystemConfig(n=400, lam=lam, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=2.0, seed=seed)
            coupled += simulate_coupled(cfg, sol, [1.0, 2.0], seeds=[seed])[0].proposals
            plain += simulate(cfg, [1.0, 2.0])[0].proposals
        assert coupled <= 1.25 * plain

    def test_rebuilds_per_epoch_and_window(self):
        # the coupled engine's O(N) passes: per row, one per particle bound epoch
        # plus the first; per batch, one per limit-path window end, not one per row
        n = 400
        cfg = SystemConfig(n=n, lam=1.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=2.0, seed=101)
        sol = solve_marginals(exp_config(lam=1.0), snapshot_times=[2.0])
        m = max(1, int(_EPOCH_DRIFT * n))
        windows = []
        for seeds in ([101, 102, 103], [101]):
            paths = _LimitPaths(sol.drift(), FX2, 1.0, t_end=2.0, window=_WINDOW_DRIFT)
            logs, passes = _coupled_loop(cfg, seeds, paths, np.array([2.0]), lambda *seen: None, 10**8, True)
            assert passes == paths.k - 1 > 0
            windows.append(passes)
            for log in logs:
                assert m > 1 and log.bound_overshoots == 0
                assert log.rebuilds <= log.spikes / m + 1
        assert windows[0] == windows[1]


class TestCoupledBatch:
    """Replicates run in lockstep: each row is its own replicate, whatever else the batch holds."""

    @staticmethod
    def run(cfg, sol, seeds, snaps):
        """(EventLogs, particle potentials per snapshot) of one batch, spikes logged."""
        paths = _LimitPaths(sol.drift(), cfg.rate, cfg.lam, t_end=cfg.horizon, window=_WINDOW_DRIFT)
        seen = np.zeros((len(snaps), len(seeds), cfg.n))

        def observe(k, x, y):
            seen[k] = x

        logs, _ = _coupled_loop(cfg, seeds, paths, np.asarray(snaps), observe, 10**8, True)
        return logs, seen

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 50, 130])
    def test_row_equals_its_batch_of_one(self, lam, n):
        # n = 130 makes the particle bound epochs longer than one spike
        cfg = exp_config(lam=lam, n=n)
        snaps = [0.5, 2.0]
        sol = solve_marginals(cfg, snapshot_times=snaps)
        a, b, c = 11, 12, 13

        def batch(*seeds):
            return dict(zip(seeds, simulate_coupled(cfg, sol, snaps, seeds=list(seeds))))

        runs = [batch(a, b, c), batch(c, a), batch(a), batch(b), batch(c)]
        for seed in (a, b, c):
            rows = [run[seed] for run in runs if seed in run]
            for stats in rows[1:]:
                for name in ("mean_abs_diff", "mean_h_diff", "w1"):
                    assert getattr(stats, name).tobytes() == getattr(rows[0], name).tobytes(), name
                assert (stats.proposals, stats.bound_overshoots) == (rows[0].proposals, rows[0].bound_overshoots)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("rate", [FX2, RateFunction.polynomial([1.0, 1.0])])
    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_rows_replay_through_apply_spike(self, lam, rate, n):
        # apply_spike and ParticleState.positions, replayed over each row's
        # logged spikes, give its pre-spike potentials and its snapshots
        cfg = exp_config(lam=lam, rate=rate, n=n)
        snaps = [0.5, 1.0, 2.0]
        logs, seen = self.run(cfg, solve_marginals(cfg, snapshot_times=snaps), [101, 102, 103], snaps)
        for r, log in enumerate(logs):
            x0 = log.initial_values
            state = ParticleState(t=0.0, lam=lam, xbar=float(np.sort(x0).mean()), anchor_time=0.0, anchor_x=x0.copy())
            k = 0
            for ts, x in zip(snaps, seen):
                while k < log.spikes and log.times[k] <= ts:
                    state.t = log.times[k]
                    pre = state.positions()[log.indices[k]]
                    assert abs(pre - log.pre_potentials[k]) <= 1e-12, f"row {r} spike {k}"
                    state = apply_spike(state, int(log.indices[k]))
                    k += 1
                assert np.max(np.abs(state.positions(ts) - x[r])) <= 1e-12, f"row {r} t={ts}"
            assert k == log.spikes

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_no_bound_overshoots_in_a_batch(self, lam, n):
        cfg = exp_config(lam=lam, n=n)
        stats = simulate_coupled(cfg, solve_marginals(cfg, snapshot_times=[1.0, 2.0]), [1.0, 2.0], seeds=[7, 8, 9])
        assert sum(s.proposals for s in stats) > 0
        assert [s.bound_overshoots for s in stats] == [0, 0, 0]

    def test_one_row_refills_and_rebuilds_alone(self, monkeypatch):
        # at N = 2 from near 0 most rows never spike, while a row that does
        # keeps kicking its pair into spiking: it rebuilds its bounds at every
        # spike (one spike per epoch below N = 128) and reads past its first
        # block; the quiet rows in its batch do neither, and no row changes
        refilled = []
        refill = limitlaw.uniform_array
        monkeypatch.setattr(limitlaw, "uniform_array", lambda key, *args: refilled.append(key) or refill(key, *args))
        cfg = SystemConfig(n=2, lam=0.0, rate=RateFunction.polynomial([1.0, 1.0]),
                           initial=InitialLaw.exponential(50.0), horizon=4.0, seed=0)
        sol = solve_marginals(cfg, snapshot_times=[4.0])
        busy, quiet = None, []
        for seed in range(32):
            refilled.clear()
            (log,), _ = self.run(cfg, sol, [seed], [4.0])
            if log.rebuilds > 1 and refilled and busy is None:
                busy = (seed, log)
            elif log.rebuilds == 1 and not refilled and len(quiet) < 2:
                quiet.append((seed, log))
        assert busy is not None and len(quiet) == 2
        refilled.clear()
        (seed_q0, solo_q0), (seed_b, solo_b), (seed_q1, solo_q1) = quiet[0], busy, quiet[1]
        logs, _ = self.run(cfg, sol, [seed_q0, seed_b, seed_q1], [4.0])
        assert set(refilled) == {stream_key(seed_b, "prop")}
        assert [log.rebuilds for log in logs] == [1, solo_b.rebuilds, 1]
        for log, solo in zip(logs, (solo_q0, solo_b, solo_q1)):
            for name in ("times", "indices", "pre_potentials", "initial_values"):
                assert getattr(log, name).tobytes() == getattr(solo, name).tobytes(), name
            assert (log.proposals, log.bound_overshoots) == (solo.proposals, solo.bound_overshoots)

    def test_seeds_give_one_stats_each(self):
        cfg = exp_config(lam=1.0, n=5)
        sol = solve_marginals(cfg, snapshot_times=[1.0])
        assert [s.n for s in simulate_coupled(cfg, sol, [1.0], seeds=[1, 2])] == [5, 5]
        with pytest.raises(ConfigError):
            simulate_coupled(cfg, sol, [1.0], seeds=[])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_snapshot_times_outside_the_horizon_rejected(self, bad):
        cfg = exp_config(lam=1.0, n=5)
        sol = solve_marginals(cfg, snapshot_times=[1.0])
        with pytest.raises(ConfigError, match="finite"):
            simulate_coupled(cfg, sol, [1.0, bad], seeds=[cfg.seed])
        with pytest.raises(ConfigError, match="finite"):
            solve_marginals(cfg, snapshot_times=[bad])
