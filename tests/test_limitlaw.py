import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import kstest

from neuronmf import (
    ConfigError,
    InitialLaw,
    MassDriftError,
    RateFunction,
    SystemConfig,
    Tolerances,
    derive_seed,
    simulate,
    simulate_coupled,
    solve_marginals,
    survival,
)
from neuronmf import limitlaw
from neuronmf.limitlaw import _coupled_loop, _LimitPaths
from neuronmf.particle import _EPOCH_DRIFT
from neuronmf.rng import stream_key
from oracles import constant_drift, flow, reference_solve_marginals, replay, upwind_marginals

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


def coupled_batch(cfg, sol, seeds, snaps):
    """One coupled batch on sol's drift, spikes logged: (EventLogs, particle and limit-path potentials per snapshot).

    The potentials come as (len(snaps), len(seeds), N) arrays.
    """
    paths = _LimitPaths(sol.drift(), cfg.rate, cfg.lam, cfg.horizon)
    xs, ys = np.zeros((2, len(snaps), len(seeds), cfg.n))

    def observe(k, rows, x, y):
        xs[k, rows], ys[k, rows] = x, y

    logs, _ = _coupled_loop(cfg, list(seeds), paths, np.asarray(snaps), observe, 10**8, True, [cfg.n] * len(seeds))
    return logs, xs, ys


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


def _assert_bitwise_equal(sol, ref):
    """times, a, p, m and every field of every snapshot, atoms included, byte for byte."""

    def raw(value):
        return np.asarray(value, dtype=float).tobytes()

    for name in ("times", "a", "p", "m"):
        assert raw(getattr(sol, name)) == raw(getattr(ref, name)), name
    assert len(sol.snapshots) == len(ref.snapshots)
    for snap, ref_snap in zip(sol.snapshots, ref.snapshots):
        for field in fields(snap):
            assert raw(getattr(snap, field.name)) == raw(getattr(ref_snap, field.name)), (snap.t, field.name)


class TestSolverMatchesReference:
    """solve_marginals on its workspace against the solver as first written, bit for bit."""

    RATES = [
        FX,
        RateFunction.power(2, 1),
        FX2,
        RateFunction.power(0.5, 2),
        RateFunction.power(1, 1.5),
        RateFunction.power(1.5, 3),
        RateFunction.polynomial([0.5, 0, 1]),
    ]
    _xs = np.linspace(0.0, 3.0, 31)
    INITIAL = [InitialLaw.exponential(1.0), InitialLaw.from_grid(_xs, _xs * (3.0 - _xs)), InitialLaw.point_mass(1.0)]

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
    def test_every_rate_and_initial_law(self, lam):
        # coarse steps, so mass_abs is widened: the solve is compared, not its accuracy
        tol = Tolerances(dt=0.02, mass_abs=1e-2)
        for rate in self.RATES:
            for initial in self.INITIAL:
                cfg = SystemConfig(n=1, lam=lam, rate=rate, initial=initial, horizon=1.0, seed=0, tolerances=tol)
                snaps = [1.0, 0.0, 0.37, 0.5]
                sol = solve_marginals(cfg, snapshot_times=snaps)
                assert sol.retired_nodes == 0
                _assert_bitwise_equal(sol, reference_solve_marginals(cfg, snapshot_times=snaps))

    def test_bisection_past_the_node_capacity(self):
        # from 3.0 at lam 0, x^2 makes 1,070 births and 0.5x + x^3 1,236, and the atom, against
        # 1,002 slots (1 atom + 1,001 grid nodes), so the arrays double; a rate of two terms
        # commits its rates by copy across the doubling
        for rate in (FX2, RateFunction.polynomial([0.5, 0, 1])):
            cfg = SystemConfig(n=1, lam=0.0, rate=rate, initial=InitialLaw.point_mass(3.0), horizon=2.0, seed=0)
            sol = solve_marginals(cfg, snapshot_times=[0.5, 2.0])
            nodes = 1 + len(sol.times)  # the atom and one birth per time
            assert nodes > 1 + 1001
            assert sol.retired_nodes == 0
            _assert_bitwise_equal(sol, reference_solve_marginals(cfg, snapshot_times=[0.5, 2.0]))


class TestNodeRetirement:
    """Dead nodes retire from the solve, and it still agrees with the solver that keeps every node."""

    RATES = [
        RateFunction.power(1, 1),
        RateFunction.power(1, 2),
        RateFunction.power(1, 1.5),
        RateFunction.power(1.5, 3),
        RateFunction.polynomial([0.5, 0, 1]),
    ]
    _xs = np.linspace(0.0, 3.0, 31)
    INITIAL = [InitialLaw.exponential(1.0), InitialLaw.from_grid(_xs, _xs * (3.0 - _xs)), InitialLaw.point_mass(1.0)]

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
    def test_matches_the_solver_that_keeps_every_node(self, lam):
        # 300 grid steps, so four retirement checks; coarse steps, so mass_abs is widened
        tol = Tolerances(dt=0.02, mass_abs=1e-2)
        snaps = [1.5, 3.0, 6.0]
        for rate in self.RATES:
            for initial in self.INITIAL:
                cfg = SystemConfig(n=1, lam=lam, rate=rate, initial=initial, horizon=6.0, seed=0, tolerances=tol)
                sol = solve_marginals(cfg, snapshot_times=snaps)
                ref = reference_solve_marginals(cfg, snapshot_times=snaps)
                if initial.kind == "exponential":
                    assert sol.retired_nodes > 0
                np.testing.assert_array_equal(sol.times, ref.times)
                for name in ("a", "p", "m"):
                    np.testing.assert_allclose(getattr(sol, name), getattr(ref, name), rtol=1e-12, atol=0)
                for snap, ref_snap in zip(sol.snapshots, ref.snapshots, strict=True):
                    assert abs(snap.node_mass - ref_snap.mass()) <= snap.retired_mass + 1e-15
                    assert snap.support() == pytest.approx(ref_snap.support(), abs=1e-12)
                    ys = np.linspace(0.0, min(snap.support()[1], ref_snap.support()[1]), 4001)
                    # relative as well: at lam 2.5 the oldest jump nodes crowd within ~1e-10 of
                    # a/lam, where the interpolant of a density of ~30 moves by ~1e-12 of its value
                    np.testing.assert_allclose(snap.density(ys), ref_snap.density(ys), rtol=1e-11, atol=1e-12)
        if lam == 0.0:  # a point mass has no initial nodes: its retired nodes are jump nodes
            cfg = SystemConfig(n=1, lam=0.0, rate=self.RATES[3], initial=self.INITIAL[2], horizon=6.0, seed=0,
                               tolerances=tol)
            assert solve_marginals(cfg).retired_nodes > 0

    def test_live_nodes_stop_growing(self):
        cfg = exp_config(rate=FX, horizon=30.0, dt=0.01)
        sol = solve_marginals(cfg, snapshot_times=[10.0, 30.0])
        early, late = (snap.init_pos.size + snap.jump_pos.size for snap in sol.snapshots)  # no atoms
        assert late <= 1.2 * early  # 1.67x when every node is kept
        # every node the solve ever held: the initial grid and one birth per time
        assert sol.retired_nodes == limitlaw._INIT_NODES + sol.times.size - late

    def test_bisections_counted(self):
        # x^2 from a point mass at 3 bisects its first steps; the snapshots sit on the grid
        cfg = SystemConfig(n=1, lam=0.0, rate=FX2, initial=InitialLaw.point_mass(3.0), horizon=2.0, seed=0)
        sol = solve_marginals(cfg, snapshot_times=[0.5, 2.0])
        assert sol.bisections > 0
        assert sol.bisections == sol.times.size - 1 - 1000

    def test_mass_check_adds_the_retired_bound(self, monkeypatch):
        # a bound far above 1e-16 retires enough mass that the worst checked |mass - 1| comes
        # after a retirement; f = x at lambda 0 bisects no step, so a snapshot at every grid
        # node sees every mass the solver checks
        monkeypatch.setattr(limitlaw, "_RETIRE_BOUND", 1e-4)
        cfg = exp_config(rate=FX, horizon=4.0, dt=0.02)
        times = np.linspace(0.0, 4.0, 201)
        sol = solve_marginals(cfg, snapshot_times=times)
        assert sol.snapshots[-1].retired_mass == sol.retired_mass > 1e-5
        for snap in sol.snapshots:
            assert abs(snap.mass() - 1.0) == pytest.approx(abs(snap.node_mass - 1.0) + snap.retired_mass, rel=1e-12)
        worst = max(abs(snap.mass() - 1.0) for snap in sol.snapshots)
        assert max(abs(snap.node_mass - 1.0) for snap in sol.snapshots) < worst
        below = replace(cfg, tolerances=Tolerances(mass_abs=math.nextafter(worst, 0.0), dt=0.02))
        with pytest.raises(MassDriftError):
            solve_marginals(below, snapshot_times=times)

    def test_retire_keeps_its_fixed_nodes(self):
        # initial nodes at x = 0..9 and g0 = 1, one atom, and jump nodes marked by their
        # positions 100, 99, ...; surv 1e-30 marks a dead node
        nodes = limitlaw._Nodes(FX, np.arange(10.0), np.ones(10), [(0.5, 0.25)], capacity=24)
        for _ in range(8):
            nodes.birth(0.0, 1.0, 1.0)
        j0, n = nodes.j0, nodes.n
        nodes.x[j0:n] = nodes.f[j0:n] = 100.0 - np.arange(n - j0)
        dead = np.r_[5:10, j0 : j0 + 4]  # the splice node and the three oldest jump nodes
        nodes.surv[dead] = 1e-30
        # node 5: w surv 4e-17 alone, but 4.4e-16 with (1 + x + f(x)) = 11, so it stays live
        nodes.surv[5] = 4e-17
        w_dead = nodes.w[[7, 8, j0 + 1, j0 + 2]] * 1e-30
        nodes.retire()
        # the initial run 6-8 keeps its sentinel 6 and the last node 9, the jump run 1-3 its sentinel 3
        assert nodes.x[: nodes.n].tolist() == [0, 1, 2, 3, 4, 5, 6, 9, 0.5, 100, 97, 96, 95, 94, 93]
        assert (nodes.ni, nodes.j0, nodes.retired_nodes) == (8, 9, 4)
        assert nodes.retired == pytest.approx(w_dead.sum(), rel=1e-15)
        assert nodes.dens[: nodes.ni].tolist() == [1.0] * 8  # the kept initial nodes' g0

    def test_retire_without_initial_nodes(self):
        # a point mass: the atom, then the jump nodes
        nodes = limitlaw._Nodes(FX, np.empty(0), np.empty(0), [(0.5, 1.0)], capacity=8)
        for _ in range(6):
            nodes.birth(0.0, 1.0, 1.0)
        nodes.x[1:7] = 100.0 - np.arange(6)
        nodes.surv[1:5] = 1e-30
        nodes.retire()
        assert nodes.x[: nodes.n].tolist() == [0.5, 100, 97, 96, 95]
        assert (nodes.ni, nodes.j0, nodes.retired_nodes) == (0, 1, 2)


class TestNonlinearPath:
    """The law of the limit paths the coupled engine runs, 4000 paths per check, each within 3 standard errors.

    Path i of a row takes only neuron i's proposal marks, thinned under
    f(y_i) <= by_i <= B_i, and any dominating envelope thins the same
    Poisson measure (Lewis-Shedler), so the N paths of the R rows are
    i.i.d. copies of the limit process.
    """

    def test_no_jump_probability_matches_survival(self):
        # from a point mass at 1.3 on the Exp(1) solution's drift at lambda 0, a
        # path that never jumped sits at 1.3 + I(1) and one that jumped below I(1)
        sol = solve_marginals(exp_config(rate=FX2), snapshot_times=[2.0])
        drift = sol.drift()
        y0, t = 1.3, 1.0
        cfg = SystemConfig(n=1000, lam=0.0, rate=FX2, initial=InitialLaw.point_mass(y0), horizon=t, seed=9)
        _, _, (y,) = coupled_batch(cfg, sol, range(9, 13), [t])
        kappa = survival(0.0, t, y0, FX2, 0.0, drift)
        frequency = np.mean(y > drift.integral(0.0).at(t))
        assert abs(frequency - kappa) <= 3 * math.sqrt(kappa * (1 - kappa) / y.size)

    def test_mean_rate_matches_solver(self):
        for lam in (0.0, 1.0):
            cfg = exp_config(lam=lam, n=1000)
            sol = solve_marginals(cfg, snapshot_times=[2.0])
            _, _, (y,) = coupled_batch(cfg, sol, range(11, 15), [2.0])
            vals = FX2(y)
            assert abs(vals.mean() - sol.p[-1]) <= 3 * vals.std(ddof=1) / math.sqrt(vals.size), f"lam={lam}"

    def test_path_envelope(self):
        # Y_t <= Y_0 + int_0^t a_s ds path-wise
        cfg = exp_config(lam=1.0, n=1000)
        sol = solve_marginals(cfg, snapshot_times=[2.0])
        drift = sol.drift()
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (drift.a[1:] + drift.a[:-1]) * np.diff(drift.times))])
        snaps = [0.5, 1.0, 1.7, 2.0]
        logs, _, ys = coupled_batch(cfg, sol, range(13, 17), snaps)
        y0 = np.stack([log.initial_values for log in logs])
        for t, y in zip(snaps, ys):
            assert np.all(y <= y0 + np.interp(t, drift.times, cum) + 1e-9), f"t={t}"


class TestWindowBound:
    @pytest.mark.parametrize("lam,constant", [(0.0, False), (1.0, False), (2.0, False), (1.0, True)])
    def test_flow_below_window_bound(self, lam, constant):
        # f(flow(s, u, y)) <= the bound taken at (s, y) for every s <= u <= w;
        # a drift that stays at its maximum makes the lam > 0 bound tight
        drift = solve_marginals(exp_config(lam=lam), snapshot_times=[2.0]).drift()
        if constant:
            drift = constant_drift(float(np.max(drift.a)), 2.0)
        paths = _LimitPaths(drift, FX2, lam, 2.0)
        y0 = np.linspace(0.0, 2.0 * paths.abar / max(lam, 1.0), 9)
        if lam > 0:
            y0 = np.append(y0, paths.abar / lam)
        paths.start(np.concatenate([y0, y0[::-1]]), [y0.size] * 2)  # two replicates, as the coupled engine holds them
        fi = paths.fi
        for _ in range(4):
            t0, w = paths.t0, paths.w
            assert np.all(FX2(flow(t0, w, paths.ya, lam, drift)) <= paths.by)
            for s in np.linspace(t0, w, 5):
                i_s = fi.at(s)
                ys = flow(t0, s, paths.ya, lam, drift)
                by = paths._bounds(ys, s, i_s)
                for u in np.linspace(s, w, 7):
                    flow_u = fi.at(u) + math.exp(-lam * (u - s)) * (ys - i_s)  # phi_{s,u}(ys)
                    assert np.all(FX2(flow_u) <= by), f"s={s} u={u}"
            paths.next_window()
            assert paths.w > w

    def test_single_window_without_drift(self):
        paths = _LimitPaths(constant_drift(0.0, 2.0), FX2, 1.0, 2.0)
        paths.start([0.5], [1])
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

    def test_particle_absorption_time_ks(self):
        # N=1: the particle's drift vanishes, so its first spike time is Exp(f(x0)),
        # whatever bounds and windows the coupled engine thins it under
        x0, lam, horizon = 1.5, 2.0, 8.0
        cfg = SystemConfig(n=1, lam=lam, rate=FX2, initial=InitialLaw.point_mass(x0), horizon=horizon, seed=1)
        sol = solve_marginals(cfg, snapshot_times=[horizon])
        times = []
        for batch in range(4):
            seeds = [derive_seed(2026, "ks-coupled", batch, row) for row in range(2500)]
            paths = _LimitPaths(sol.drift(), FX2, lam, horizon)
            logs, _ = _coupled_loop(cfg, seeds, paths, np.array([horizon]), lambda *seen: None, 10**8, True, [1] * 2500)
            assert all(log.spikes == 1 for log in logs)
            times += [log.times[0] for log in logs]
        res = kstest(times, "expon", args=(0.0, 1.0 / FX2(x0)))
        assert res.pvalue >= 0.01

    def test_rebuilds_per_epoch_and_window(self, monkeypatch):
        # the coupled engine's O(N) passes: per row, one per particle bound epoch
        # plus the first; per batch, one per limit-path window end, not one per row
        n = 400
        cfg = SystemConfig(n=n, lam=1.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=2.0, seed=101)
        sol = solve_marginals(exp_config(lam=1.0), snapshot_times=[2.0])
        m = max(1, int(_EPOCH_DRIFT * n))
        windows, rebuilt = [], []
        rebuild = limitlaw._rebuild
        monkeypatch.setattr(limitlaw, "_rebuild",
                            lambda rows, *args: rebuilt.extend(rows.tolist()) or rebuild(rows, *args))
        for seeds in ([101, 102, 103], [101]):
            rebuilt.clear()
            paths = _LimitPaths(sol.drift(), FX2, 1.0, 2.0)
            sizes = [n] * len(seeds)
            logs, passes = _coupled_loop(cfg, seeds, paths, np.array([2.0]), lambda *seen: None, 10**8, True, sizes)
            assert passes == paths.k - 1 > 0
            windows.append(passes)
            for r, log in enumerate(logs):
                assert m > 1 and log.bound_overshoots == 0
                assert log.rebuilds <= log.spikes / m + 1
                assert log.rebuilds == rebuilt.count(r) + 1  # the epoch passes made, and the first
        assert windows[0] == windows[1]


class TestCoupledBatch:
    """Replicates run in lockstep: each row is its own replicate, whatever else the batch holds."""

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 50, 130])
    def test_row_equals_its_batch_of_one(self, monkeypatch, lam, n):
        # n = 130 makes the particle bound epochs longer than one spike. The
        # batches run whole, then with every pass over the batch (the first
        # bound pass, the window ends, the snapshots) and every gathered epoch
        # rebuild split into row blocks of one row and of two rows, which do
        # not divide a batch of three
        cfg = exp_config(lam=lam, n=n)
        snaps = [0.5, 2.0]
        sol = solve_marginals(cfg, snapshot_times=snaps)
        a, b, c = 11, 12, 13

        def batch(*seeds):
            return dict(zip(seeds, simulate_coupled(cfg, sol, snaps, seeds=list(seeds))))

        rebuilt = []  # rows of each step's epoch rebuild
        rebuild = limitlaw._rebuild
        monkeypatch.setattr(limitlaw, "_rebuild", lambda rows, *args: rebuilt.append(rows.size) or rebuild(rows, *args))
        bounds, w1 = limitlaw._LimitPaths._bounds, limitlaw.w1_samples_vs_law
        runs = []
        for block_rows in (None, 1, 2):
            split = []  # rows of each bound pass and each snapshot's W1 pass
            if block_rows is not None:
                monkeypatch.setattr(limitlaw, "_BLOCK_CELLS", block_rows * n)
                monkeypatch.setattr(limitlaw._LimitPaths, "_bounds",
                                    lambda paths, ya, *args: split.append(len(ya) // n) or bounds(paths, ya, *args))
                monkeypatch.setattr(limitlaw, "w1_samples_vs_law", lambda x, law: split.append(len(x)) or w1(x, law))
            runs += [batch(a, b, c), batch(c, a), batch(a), batch(b), batch(c)]
            if block_rows is not None:
                assert set(split) == {1, block_rows}
        if n >= 50:  # steps that rebuild two rows one by one, and three in one gathered pass
            assert {2, 3} <= set(rebuilt)
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
        logs, seen, _ = coupled_batch(cfg, solve_marginals(cfg, snapshot_times=snaps), [101, 102, 103], snaps)
        for r, log in enumerate(logs):
            replay(log, lam, snaps, seen[:, r], tag=f"row {r} ")

    def test_fold_after_4096_spikes(self, monkeypatch):
        # at N = 1600, lambda 1, each row passes 4096 spikes before t = 4 and
        # folds its affine map into its stored values; a row of a batch of two
        # still equals its batch of one, bitwise, and replays through apply_spike
        cfg = exp_config(lam=1.0, n=1600, horizon=4.0)
        snaps = [2.0, 4.0]
        sol = solve_marginals(cfg, snapshot_times=snaps)
        folded = []
        fold = limitlaw._fold
        monkeypatch.setattr(limitlaw, "_fold", lambda k, *args: folded.append(k) or fold(k, *args))
        logs, seen, _ = coupled_batch(cfg, sol, [1, 2], snaps)
        assert sorted(folded) == [0, 1] and all(log.spikes >= 4096 for log in logs)
        for r, seed in enumerate((1, 2)):
            (solo,), solo_seen, _ = coupled_batch(cfg, sol, [seed], snaps)
            for name in ("times", "indices", "pre_potentials", "initial_values"):
                assert getattr(logs[r], name).tobytes() == getattr(solo, name).tobytes(), name
            assert (logs[r].proposals, logs[r].rebuilds) == (solo.proposals, solo.rebuilds)
            assert logs[r].bound_overshoots == solo.bound_overshoots == 0
            assert seen[:, r].tobytes() == solo_seen[:, 0].tobytes()
        for r, log in enumerate(logs):
            replay(log, 1.0, snaps, seen[:, r], tag=f"row {r} ")

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
        refilled = []  # the key of each block read past the first blocks
        read = limitlaw.read_blocks

        def spy(triples):
            triples = list(triples)
            refilled.extend(key for key, _, _ in triples)
            return read(triples)

        monkeypatch.setattr(limitlaw, "read_blocks", spy)
        cfg = SystemConfig(n=2, lam=0.0, rate=RateFunction.polynomial([1.0, 1.0]),
                           initial=InitialLaw.exponential(50.0), horizon=4.0, seed=0)
        sol = solve_marginals(cfg, snapshot_times=[4.0])
        busy, quiet = None, []
        for seed in range(32):
            refilled.clear()
            (log,), *_ = coupled_batch(cfg, sol, [seed], [4.0])
            if log.rebuilds > 1 and refilled and busy is None:
                busy = (seed, log)
            elif log.rebuilds == 1 and not refilled and len(quiet) < 2:
                quiet.append((seed, log))
        assert busy is not None and len(quiet) == 2
        refilled.clear()
        (seed_q0, solo_q0), (seed_b, solo_b), (seed_q1, solo_q1) = quiet[0], busy, quiet[1]
        logs, *_ = coupled_batch(cfg, sol, [seed_q0, seed_b, seed_q1], [4.0])
        assert set(refilled) == {stream_key(seed_b, "prop")}
        assert [log.rebuilds for log in logs] == [1, solo_b.rebuilds, 1]
        for log, solo in zip(logs, (solo_q0, solo_b, solo_q1)):
            for name in ("times", "indices", "pre_potentials", "initial_values"):
                assert getattr(log, name).tobytes() == getattr(solo, name).tobytes(), name
            assert (log.proposals, log.bound_overshoots) == (solo.proposals, solo.bound_overshoots)

    def test_batch_memory_per_cell(self):
        # a batch's state is 104 bytes per cell (y, bx, the draw count and the
        # bound B, three stored pairs, the clock, the limit path's position and
        # bound) and every pass over the whole batch runs in row blocks of
        # limitlaw._BLOCK_CELLS cells, so a call peaks below 130 bytes per cell
        # plus a fixed allowance for what does not grow with the batch: the
        # law's tables, numpy's iterator buffers, the per-row arrays. A short
        # run with one snapshot, then the chaos workload's batches at horizon 2
        # and eight snapshots: N = 1600 at lambda 0 and 1, and N = 50..800
        # sharing one batch at lambda 0 and 1
        chaos_snaps = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
        alone = [1600] * 24
        shared = [n for n in (800, 400, 200, 100, 50) for _ in range(24)]
        for lam, horizon, snaps, sizes in [
            (0.0, 0.1, [0.1], alone),
            (0.0, 2.0, chaos_snaps, alone),
            (1.0, 2.0, chaos_snaps, alone),
            (0.0, 2.0, chaos_snaps, shared),
            (1.0, 2.0, chaos_snaps, shared),
        ]:
            cfg = exp_config(lam=lam, n=sizes[0], horizon=horizon)
            sol = solve_marginals(cfg, snapshot_times=snaps)
            tracemalloc.start()
            try:
                simulate_coupled(cfg, sol, snaps, seeds=range(len(sizes)), sizes=sizes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 130 * sum(sizes) + 2**18, (lam, horizon, sizes[-1], peak)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    def test_mixed_sizes_equal_their_batches_of_one(self, monkeypatch, lam):
        # rows of N = 1, 2, 50, 130 and 400 share one batch, their seeds in
        # interleaved size order, so the groups of rows of one N hold one or
        # two rows: bound epochs of one spike (N < 128) and of more meet in
        # the gathered epoch rebuilds, which run in passes of at most 500
        # cells here, and every row's stats equal, bitwise, those of its
        # batch of one
        cfg = exp_config(lam=lam)
        snaps = [0.5, 2.0]
        sol = solve_marginals(cfg, snapshot_times=snaps)
        sizes = [400, 400, 1, 130, 130, 2, 50, 50] + [400, 1, 130, 2, 50] * 2
        seeds = list(range(21, 21 + len(sizes)))
        mixed = []  # the sizes of the rows of each gathered rebuild
        rebuild = limitlaw._rebuild

        def spy(rows, times, bounds, arrays, base, sizes, first):
            if rows.size > 2:
                mixed.append(sizes[rows].tolist())
            return rebuild(rows, times, bounds, arrays, base, sizes, first)

        with monkeypatch.context() as patch:
            patch.setattr(limitlaw, "_rebuild", spy)
            patch.setattr(limitlaw, "_BLOCK_CELLS", 500)
            stats = simulate_coupled(cfg, sol, snaps, seeds=seeds, sizes=sizes)
        assert any(min(seen) < 128 <= max(seen) for seen in mixed)
        assert any(sum(seen) > 500 and len(set(seen)) > 1 for seen in mixed)
        assert [s.n for s in stats] == sizes
        for seed, n, row in zip(seeds, sizes, stats):
            (solo,) = simulate_coupled(replace(cfg, n=n), sol, snaps, seeds=[seed])
            for name in ("mean_abs_diff", "mean_h_diff", "w1"):
                assert getattr(row, name).tobytes() == getattr(solo, name).tobytes(), (n, name)
            assert (row.proposals, row.bound_overshoots) == (solo.proposals, 0)

    def test_seeds_give_one_stats_each(self):
        cfg = exp_config(lam=1.0, n=5)
        sol = solve_marginals(cfg, snapshot_times=[1.0])
        assert [s.n for s in simulate_coupled(cfg, sol, [1.0], seeds=[1, 2])] == [5, 5]
        with pytest.raises(ConfigError):
            simulate_coupled(cfg, sol, [1.0], seeds=[])
        assert [s.n for s in simulate_coupled(cfg, sol, [1.0], seeds=[1, 2], sizes=[7, 3])] == [7, 3]
        for sizes in ([5], [5, 0]):
            with pytest.raises(ConfigError, match="one size >= 1 per seed"):
                simulate_coupled(cfg, sol, [1.0], seeds=[1, 2], sizes=sizes)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_snapshot_times_outside_the_horizon_rejected(self, bad):
        cfg = exp_config(lam=1.0, n=5)
        sol = solve_marginals(cfg, snapshot_times=[1.0])
        with pytest.raises(ConfigError, match="finite"):
            simulate_coupled(cfg, sol, [1.0, bad], seeds=[cfg.seed])
        with pytest.raises(ConfigError, match="finite"):
            solve_marginals(cfg, snapshot_times=[bad])
