"""Acceptance suite: every release-gating check, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Tolerances are pinned here and nowhere else; each test prints

    [ACCEPT-k] PASS <detail> (elapsed)

on success and fails the usual pytest way otherwise.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as euler_gamma

from neuronmf import (
    CoupledStats,
    InitialLaw,
    RateFunction,
    SystemConfig,
    Tolerances,
    derive_seed,
    gamma,
    invariant_density,
    simulate,
    solve_a_star,
    solve_marginals,
    substream,
    survival,
    tv_densities,
)
from neuronmf.cli import main as cli_main
from oracles import euler_particle_mean, upwind_marginals

FX = RateFunction.power(1, 1)
FX2 = RateFunction.power(1, 2)
MASTER_SEED = 20250808


class _Clock:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def done(self, tag, detail):
        elapsed = time.perf_counter() - self.t0
        print(f"\n[{tag}] PASS {detail} ({elapsed:.1f}s, budget {self.budget:.0f}s)")
        assert elapsed < self.budget, f"{tag}: runtime {elapsed:.1f}s exceeds budget {self.budget}s"


def test_criterion_1_invariant_lam0_closed_forms():
    clock = _Clock(1.0)
    res = solve_a_star(0.0, FX)
    p_err = abs(res.p - 2 / math.pi)
    assert p_err <= 1e-6
    assert res.residuals["self_consistency"] <= 1e-5
    g1_err = abs(invariant_density(res, 1.0) - math.exp(-math.pi / 4))
    assert g1_err <= 1e-5
    clock.done("ACCEPT-1", f"p err {p_err:.1e}, int(fg)-p {res.residuals['self_consistency']:.1e}, g(1) err {g1_err:.1e}")


def test_criterion_2_invariant_lam1_gamma_and_root():
    clock = _Clock(5.0)
    g1_err = abs(gamma(1.0, 1.0, FX) - (math.e - 2))
    g2_err = abs(gamma(2.0, 1.0, FX) - (math.e**2 - 5) / 2)
    assert g1_err <= 1e-6 and g2_err <= 1e-6
    res = solve_a_star(1.0, FX)
    assert 1.0 < res.a_star < 2.0
    assert res.residuals["gamma_at_root"] <= 1e-8
    fp = abs(res.a_star - res.m - res.p)
    assert fp <= 1e-5
    assert res.m + res.p > 1.0
    clock.done(
        "ACCEPT-2",
        f"Gamma errs {g1_err:.1e}/{g2_err:.1e}, a*={res.a_star:.6f}, |Gamma(a*)-1|={res.residuals['gamma_at_root']:.1e}, |a*-m-p|={fp:.1e}",
    )


def test_criterion_3_invariant_density_stationary_under_dynamics():
    clock = _Clock(60.0)
    worst = 0.0
    for lam in [0.0, 1.0]:
        res = solve_a_star(lam, FX)
        law = InitialLaw.from_grid(res.density_xs, res.density_values)
        cfg = SystemConfig(n=1, lam=lam, rate=FX, initial=law, horizon=5.0, seed=1)
        sol = solve_marginals(cfg, snapshot_times=[1.0, 2.5, 5.0])
        ys = np.linspace(0.0, float(res.density_xs[-1]) * 1.05, 4001)
        g_ref = invariant_density(res, ys)
        for snap in sol.snapshots:
            l1 = float(np.trapezoid(np.abs(snap.density(ys) - g_ref), ys))
            worst = max(worst, l1)
            assert l1 < 1e-3, f"lam={lam}, t={snap.t}: L1 drift {l1:.2e}"
    clock.done("ACCEPT-3", f"max L1 drift over [0,5], both lambda: {worst:.2e}")


def test_criterion_4_marginal_solver_identities_and_pde_oracle():
    clock = _Clock(120.0)
    worst_mass = worst_rel = worst_loide = 0.0
    for lam in [0.0, 1.0]:
        cfg = SystemConfig(
            n=1, lam=lam, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=2.0, seed=1
        )
        sol = solve_marginals(cfg, snapshot_times=[0.5, 1.0, 2.0])
        drift = sol.drift()
        for snap in sol.snapshots:
            worst_mass = max(worst_mass, abs(snap.mass() - 1.0))
            assert abs(snap.mass() - 1.0) <= 1e-4
            rel = abs(snap.density(0.0) - snap.p_t / snap.a_t) / (snap.p_t / snap.a_t)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-3
            t = snap.t
            s_grid = np.linspace(0.0, t, 257)
            sv = np.array([survival(float(s), t, 0.0, FX2, lam, drift) for s in s_grid[:-1]] + [1.0])
            jump = float(np.trapezoid(np.interp(s_grid, sol.times, sol.p) * sv, s_grid))
            init = float(np.trapezoid(snap.init_g0 * survival(0.0, t, snap.init_x, FX2, lam, drift), snap.init_x))
            loide = abs(init + jump - 1.0)
            worst_loide = max(worst_loide, loide)
            assert loide <= 1e-4

    # cross-validation against the upwind finite-difference oracle
    cfg = SystemConfig(n=1, lam=0.0, rate=FX, initial=InitialLaw.exponential(1.0), horizon=1.0, seed=1)
    sol = solve_marginals(cfg, snapshot_times=[1.0])
    xs = np.linspace(0.0, 30.0, 4001)
    dx = xs[1] - xs[0]
    g_pde, _, _ = upwind_marginals(FX, 0.0, np.exp(-xs), xs, 1.0)
    l1 = float(np.trapezoid(np.abs(g_pde - sol.snapshots[-1].density(xs)), xs))
    assert l1 <= max(1e-3, 5 * dx)
    clock.done(
        "ACCEPT-4",
        f"mass {worst_mass:.1e}, boundary rel {worst_rel:.1e}, last-jump {worst_loide:.1e}, PDE-oracle L1 {l1:.2e} (bound {max(1e-3, 5*dx):.2e})",
    )


def test_criterion_5_thinning_exactness():
    clock = _Clock(300.0)
    # (a) N=1 absorption time is Exp(f(x0)): KS at level 0.01, 1e4 replicates
    x0 = 1.5
    reps = 10_000
    times = np.empty(reps)
    for rep in range(reps):
        cfg = SystemConfig(
            n=1, lam=2.0, rate=FX2, initial=InitialLaw.point_mass(x0), horizon=400.0,
            seed=derive_seed(MASTER_SEED, "ks", rep),
        )
        log, _ = simulate(cfg, [])
        times[rep] = log.times[0]
    ks = stats.kstest(times, "expon", args=(0.0, 1.0 / FX2(x0)))
    assert ks.pvalue >= 0.01

    # (b) N in {2, 3} against the dt=1e-4 Euler oracle at 1e5 replicates
    deviations = []
    for n, lam in [(2, 0.0), (3, 1.0)]:
        r = 100_000
        means = np.empty(r)
        for rep in range(r):
            cfg = SystemConfig(
                n=n, lam=lam, rate=FX, initial=InitialLaw.exponential(1.0), horizon=1.0,
                seed=derive_seed(MASTER_SEED, "euler-cmp", n, rep),
            )
            _, snaps = simulate(cfg, [1.0])
            means[rep] = snaps[0].mean
        ed_mean = float(means.mean())
        ed_se = float(means.std(ddof=1) / math.sqrt(r))
        eu_mean, eu_se = euler_particle_mean(FX, lam, n, 1.0, 1e-4, r, substream(MASTER_SEED, "euler", n))
        dev = abs(ed_mean - eu_mean) / math.hypot(ed_se, eu_se)
        deviations.append(dev)
        assert dev <= 3.0, f"n={n} lam={lam}: {dev:.2f} combined se"
    clock.done("ACCEPT-5", f"KS p={ks.pvalue:.3f}, Euler deviations {deviations[0]:.2f}/{deviations[1]:.2f} comb. se")


def test_criterion_6_chaos_rate(tmp_path):
    clock = _Clock(900.0)
    report_slopes = {}
    for lam in [0.0, 1.0]:
        cfg = {
            "command": "chaos",
            "system": {
                "lambda": lam,
                "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0},
                "horizon": 2.0,
                "seed": MASTER_SEED,
            },
            "snapshot_times": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
            "n_grid": [50, 100, 200, 400, 800, 1600],
            "replicates": 64,
        }
        cfg_path = tmp_path / f"chaos{int(lam)}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"chaos_out{int(lam)}"
        code = cli_main(["chaos", "--config", str(cfg_path), "--out", str(out)])
        report = json.loads((out / "chaos_report.json").read_text())
        for stat, fit in report["slopes"].items():
            assert -0.65 <= fit["slope"] <= -0.35, f"lam={lam} {stat}: slope {fit['slope']:.3f}"
            assert fit["r_squared"] >= 0.9, f"lam={lam} {stat}: r2 {fit['r_squared']:.3f}"
            report_slopes[f"lam{int(lam)}:{stat}"] = round(fit["slope"], 3)
        assert code == 0
    clock.done("ACCEPT-6", f"slopes {report_slopes}")


def test_criterion_7_equilibrium_tv_decay():
    clock = _Clock(120.0)
    xi = 1.0
    inv = solve_a_star(0.0, FX)
    cfg = SystemConfig(
        n=1, lam=0.0, rate=FX, initial=InitialLaw.exponential(1.0), horizon=20.0, seed=1,
        tolerances=Tolerances(dt=0.01),
    )
    grid = np.arange(1.0, 20.5, 0.5)
    sol = solve_marginals(cfg, snapshot_times=grid.tolist())
    ys = np.linspace(0.0, 30.0, 6001)
    g_ref = invariant_density(inv, ys)
    tvs = {snap.t: tv_densities(snap.density(ys), g_ref, ys) for snap in sol.snapshots}
    ts = sorted(tvs)
    # non-increasing within slack
    for a, b in zip(ts, ts[1:]):
        assert tvs[b] <= tvs[a] + 1e-3, f"TV increased at t={b}"
    assert tvs[20.0] < 0.05
    # dominated decay: TV(t) <= TV(1) ((1+1)/(1+t))^{1/xi} * 1.5
    for t in ts:
        bound = tvs[1.0] * ((2.0) / (1.0 + t)) ** (1.0 / xi) * 1.5
        assert tvs[t] <= bound, f"decay-rate check failed at t={t}: {tvs[t]:.4f} > {bound:.4f}"
    clock.done("ACCEPT-7", f"TV(1)={tvs[1.0]:.4f}, TV(20)={tvs[20.0]:.2e}, monotone and dominated")


def test_criterion_8_non_extinction():
    clock = _Clock(300.0)
    # deterministic path: the solved mean stays away from zero
    cfg = SystemConfig(
        n=1, lam=1.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=10.0, seed=1,
        tolerances=Tolerances(dt=0.01),
    )
    sol = solve_marginals(cfg, snapshot_times=[10.0])
    mask = sol.times >= 1.0
    m_min_solver = float(np.min(sol.m[mask]))
    assert m_min_solver >= 0.01

    # stochastic path: N=2000 particle runs, 3-sigma band on the mean
    reps = 8
    grid = np.arange(1.0, 10.5, 0.5)
    means = np.empty((reps, grid.size))
    for rep in range(reps):
        pcfg = SystemConfig(
            n=2000, lam=1.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=10.0,
            seed=derive_seed(MASTER_SEED, "nonext", rep),
        )
        _, snaps = simulate(pcfg, grid)
        means[rep] = [s.mean for s in snaps]
    avg = means.mean(axis=0)
    se = means.std(axis=0, ddof=1) / math.sqrt(reps)
    floor = float(np.min(avg - 3 * se))
    assert floor >= 0.01
    clock.done("ACCEPT-8", f"solver min m={m_min_solver:.4f}, particle min (mean - 3se)={floor:.4f}")


def test_criterion_9_determinism_across_workers(tmp_path):
    clock = _Clock(300.0)
    cfg = {
        "command": "chaos",
        "system": {
            "lambda": 0.0,
            "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
            "initial": {"kind": "exponential", "rate": 1.0},
            "horizon": 1.0,
            "seed": MASTER_SEED,
        },
        "snapshot_times": [0.5, 1.0],
        "n_grid": [25, 50, 100],
        "replicates": 8,
        "slope_band": [-2.0, 2.0],
        "r_squared_min": 0.0,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for threads in [1, 2, 4]:
        out = tmp_path / f"det{threads}"
        assert cli_main(["chaos", "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]) == 0
        outs.append(out)
    ref_report = (outs[0] / "chaos_report.json").read_bytes()
    ref_curve = (outs[0] / "chaos_curve.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "chaos_report.json").read_bytes() == ref_report
        assert (out / "chaos_curve.csv").read_bytes() == ref_curve
    clock.done("ACCEPT-9", "reports byte-identical across 1/2/4 workers")
