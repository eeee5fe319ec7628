import math

import numpy as np
import pytest

from neuronmf import (
    CoupledStats,
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
from neuronmf.limitlaw import _WINDOW_DRIFT, _LimitPaths
from neuronmf.particle import _EPOCH_DRIFT, _event_loop
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

    def test_dt_convergence_of_consistency_residual(self):
        # fixed steps (no adaptive splitting) so the ratio is clean
        res = []
        for dt in [0.02, 0.01]:
            sol = solve_marginals(exp_config(rate=FX, dt=dt), snapshot_times=[2.0], adapt_rel=None)
            res.append(sol.consistency_residual(2.0))
        assert res[0] / res[1] >= 1.8

    def test_upwind_oracle_agreement_lam1(self):
        cfg = exp_config(lam=1.0, rate=FX, horizon=1.0)
        sol = solve_marginals(cfg, snapshot_times=[1.0])
        xs = np.linspace(0, 30, 4001)
        g_pde, _, _ = upwind_marginals(FX, 1.0, np.exp(-xs), xs, 1.0)
        l1 = np.trapezoid(np.abs(g_pde - sol.snapshots[-1].density(xs)), xs)
        assert l1 <= max(1e-3, 5 * (xs[1] - xs[0]))

    def test_node_merging_keeps_mass(self):
        merged = solve_marginals(exp_config(rate=FX), snapshot_times=[2.0], dy_min=2e-3)
        full = solve_marginals(exp_config(rate=FX), snapshot_times=[2.0])
        assert merged.snapshots[-1].jump_s.size < full.snapshots[-1].jump_s.size
        assert abs(merged.snapshots[-1].mass() - 1.0) <= 1e-4
        assert merged.p[-1] == pytest.approx(full.p[-1], abs=1e-4)

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
        paths.start(y0)
        fe = paths.fe
        for _ in range(4):
            t0, w = float(paths.ta[0]), paths.w
            assert np.all(FX2(paths.positions(w)) <= paths.by)
            for s in np.linspace(t0, w, 5):
                i_s = fe.integral_to(s)
                ys = paths.positions(s)
                by = paths._bounds(ys, s, i_s)
                for u in np.linspace(s, w, 7):
                    fy = FX2(np.array([fe.flow(s, u, y, i_s) for y in ys]))
                    assert np.all(fy <= by), f"s={s} u={u}"
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
        stats = simulate_coupled(cfg, sol, [0.5, 1.0])
        assert np.all(stats.mean_abs_diff == 0.0)
        assert np.all(stats.mean_h_diff == 0.0)
        assert np.all(stats.w1 == 0.0)

    def test_deterministic_per_seed(self):
        cfg = exp_config(n=40, lam=1.0)
        sol = solve_marginals(cfg, snapshot_times=[1.0, 2.0])
        s1 = simulate_coupled(cfg, sol, [1.0, 2.0])
        s2 = simulate_coupled(cfg, sol, [1.0, 2.0])
        assert np.array_equal(s1.mean_abs_diff, s2.mean_abs_diff)
        assert np.array_equal(s1.w1, s2.w1)

    def test_difference_shrinks_with_n(self):
        sol = solve_marginals(exp_config(), snapshot_times=[1.0, 2.0])
        sup = {}
        for n in [25, 400]:
            parts = []
            for rep in range(8):
                cfg = SystemConfig(
                    n=n, lam=0.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=2.0,
                    seed=1000 + rep,
                )
                parts.append(simulate_coupled(cfg, sol, [1.0, 2.0]))
            agg = CoupledStats.combine(parts)
            sup[n] = float(np.max(agg.mean_abs_diff))
        assert sup[400] < sup[25]

    def test_snapshot_past_horizon_by_rounding_is_kept(self):
        cfg = exp_config(n=3, lam=1.0, horizon=1.0)
        snaps = [0.5, 1.0 + 5e-13]
        stats = simulate_coupled(cfg, solve_marginals(cfg, snapshot_times=snaps), snaps)
        assert np.all(stats.w1 > 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("rate", [FX2, RateFunction.polynomial([0.0, 1.0, 1.0]), RateFunction.power(2, 1.5)])
    def test_no_bound_overshoots(self, lam, rate):
        sol = solve_marginals(exp_config(lam=lam, rate=rate), snapshot_times=[1.0, 2.0])
        proposals = 0
        for n in [1, 2, 50, 400]:
            stats = simulate_coupled(exp_config(lam=lam, rate=rate, n=n), sol, [1.0, 2.0])
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
            coupled += simulate_coupled(cfg, sol, [1.0, 2.0]).proposals
            plain += simulate(cfg, [1.0, 2.0], log_events=False)[0].proposals
        assert coupled <= 1.25 * plain

    def test_rebuilds_per_epoch_and_window(self):
        # the coupled engine's O(N) passes: one per particle bound epoch and
        # one per limit-path window end, plus the first
        n = 400
        cfg = SystemConfig(n=n, lam=1.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=2.0, seed=101)
        sol = solve_marginals(exp_config(lam=1.0), snapshot_times=[2.0])
        paths = _LimitPaths(sol.drift(), FX2, 1.0, t_end=2.0, window=_WINDOW_DRIFT)
        log = _event_loop(cfg, range(n), np.array([2.0]), lambda k, t, x: None, 10**8, True, shadow=paths)
        m = max(1, int(_EPOCH_DRIFT * n))
        windows = paths.k - 1
        assert m > 1 and windows > 0 and log.bound_overshoots == 0
        assert log.rebuilds <= log.spikes / m + windows + 1

    def test_combine_weighting(self):
        a = CoupledStats(n=2, snapshot_times=np.array([1.0]), mean_abs_diff=np.array([1.0]),
                         mean_h_diff=np.array([2.0]), w1=np.array([3.0]), replicates=1, proposals=5)
        b = CoupledStats(n=2, snapshot_times=np.array([1.0]), mean_abs_diff=np.array([4.0]),
                         mean_h_diff=np.array([5.0]), w1=np.array([6.0]), replicates=3, proposals=7,
                         bound_overshoots=1)
        c = CoupledStats.combine([a, b])
        assert c.replicates == 4
        assert (c.proposals, c.bound_overshoots) == (12, 1)  # counters are summed, not weighted
        assert c.mean_abs_diff[0] == pytest.approx((1 * 1 + 3 * 4) / 4)
        assert c.w1[0] == pytest.approx((1 * 3 + 3 * 6) / 4)
