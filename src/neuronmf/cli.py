"""Command-line experiment harness.

One JSON config file drives every command; the subcommand on the command
line must match the config's top-level "command" field. All outputs are
CSV/JSON with 17-significant-digit floats, and a fixed seed gives
byte-identical report files no matter how many workers run the
replicates (wall-clock goes to a separate timing file for that reason).

Exit codes: 0 pass, 1 declared tolerances violated (including a limit
solve that drifts beyond mass_abs), 2 bad configuration, 3 event budget
exceeded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import time
from pathlib import Path

import numpy as np

from .invariant import solve_a_star
from .limitlaw import CoupledStats, MassDriftError, simulate_coupled, solve_marginals
from .metrics import fit_rate, tv_densities
from .model import ConfigError, InitialLaw, RateFunction, SystemConfig, Tolerances, survival
from .particle import EventBudgetExceededError, check_apriori, simulate
from .rng import derive_seed

_FMT = "{:.17g}"


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _rate_from(obj) -> RateFunction:
    kind = obj.get("kind")
    if kind == "power":
        return RateFunction.power(obj["c"], obj["xi"])
    if kind == "polynomial":
        return RateFunction.polynomial(obj["coeffs"])
    raise ConfigError(f"unknown rate kind {kind!r}")


def _initial_from(obj) -> InitialLaw:
    kind = obj.get("kind")
    if kind == "point_mass":
        return InitialLaw.point_mass(obj["x0"])
    if kind == "exponential":
        return InitialLaw.exponential(obj["rate"])
    if kind == "truncated_density":
        return InitialLaw.from_grid(obj["xs"], obj["values"])
    raise ConfigError(f"unknown initial law kind {kind!r}")


def _system_from(obj, seed_override=None) -> SystemConfig:
    tol = obj.get("tolerances", {})
    return SystemConfig(
        n=int(obj.get("n", 1)),
        lam=float(obj["lambda"]),
        rate=_rate_from(obj["rate"]),
        initial=_initial_from(obj["initial"]),
        horizon=float(obj["horizon"]),
        seed=int(seed_override if seed_override is not None else obj["seed"]),
        tolerances=Tolerances(
            quadrature_abs=float(tol.get("quadrature_abs", 1e-8)),
            root_abs=float(tol.get("root_abs", 1e-8)),
            mass_abs=float(tol.get("mass_abs", 1e-4)),
            dt=float(tol.get("dt", 0.0)),
        ),
    )


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_FMT.format(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_timing(out: Path, seconds: float):
    with open(out / "timing.txt", "w") as fh:
        fh.write(f"wall_clock_s={seconds:.3f}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    system = _system_from(cfg["system"], seed)
    snap_times = [float(t) for t in cfg.get("snapshot_times", [])]
    budget = int(cfg.get("event_budget", 100_000_000))
    log, snaps = simulate(system, snap_times, event_budget=budget)
    report = check_apriori(log, snaps, system)

    _write_csv(
        out / "snapshots.csv",
        ["replicate", "time", "particle_rank", "value"],
        [(0, s.time, k, float(v)) for s in snaps for k, v in enumerate(s.sorted_values)],
    )
    if cfg.get("write_events", False):
        _write_csv(
            out / "events.csv",
            ["time", "index", "pre_potential"],
            [(float(t), int(i), float(x)) for t, i, x in zip(log.times, log.indices, log.pre_potentials)],
        )
    _write_json(
        out / "bound_report.json",
        {
            "spikes": log.spikes,
            "proposals": log.proposals,
            "acceptance_ratio": log.acceptance_ratio,
            "envelope_violations": report.envelope_violations,
            "mean_residual": report.mean_residual,
            "checked": report.checked,
            "ok": report.ok,
        },
    )
    return 0 if report.ok else 1


def cmd_invariant(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    system_cfg = cfg["system"]
    lam = float(system_cfg["lambda"])
    rate = _rate_from(system_cfg["rate"])
    tol = system_cfg.get("tolerances", {})
    root_abs = float(tol.get("root_abs", 1e-8))
    quad_abs = float(tol.get("quadrature_abs", 1e-8))

    result = solve_a_star(lam, rate, root_abs=root_abs, quadrature_abs=min(quad_abs, 1e-10))
    _write_json(out / "invariant.json", result.summary())
    _write_csv(
        out / "invariant_density.csv",
        ["x", "g"],
        list(zip(result.density_xs.tolist(), result.density_values.tolist())),
    )
    res = result.residuals
    ok = (
        res["normalization"] <= root_abs
        and res["self_consistency"] <= 10 * root_abs
        and res["fixed_point"] <= 10 * root_abs
    )
    return 0 if ok else 1


def _loidetau_residual(sol, snap, system: SystemConfig) -> float:
    """Independent check that the last-jump-time law has unit mass.

    Recomputes E[kappa_{0,t}(Y0)] + int_0^t p_s kappa_{s,t}(0) ds with the
    standalone survival quadrature rather than the solver's own weights.
    """
    t = snap.t
    drift = sol.drift()
    if t <= 0:
        return 0.0
    s_grid = np.linspace(0.0, t, 257)
    sv = np.array(
        [survival(float(s), t, 0.0, system.rate, system.lam, drift) for s in s_grid[:-1]] + [1.0]
    )
    jump = float(np.trapezoid(np.interp(s_grid, sol.times, sol.p) * sv, s_grid))
    init = 0.0
    if snap.init_x.size:
        k0 = survival(0.0, t, snap.init_x, system.rate, system.lam, drift)
        init += float(np.trapezoid(snap.init_g0 * k0, snap.init_x))
    for origin, _, mass0, _ in snap.atoms:
        init += mass0 * survival(0.0, t, origin, system.rate, system.lam, drift)
    return abs(init + jump - 1.0)


def cmd_solve_limit(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    system = _system_from(cfg["system"], seed)
    snap_times = [float(t) for t in cfg.get("snapshot_times", [])]
    sol = solve_marginals(system, snapshot_times=snap_times)

    _write_csv(
        out / "series.csv",
        ["time", "a", "p", "m"],
        list(zip(sol.times.tolist(), sol.a.tolist(), sol.p.tolist(), sol.m.tolist())),
    )
    rows = []
    for k, snap in enumerate(sol.snapshots):
        _write_csv(out / f"density_{k:03d}.csv", ["y", "density", "part"], snap.rows())
        rows.append(
            {
                "t": snap.t,
                "mass_error": abs(snap.mass() - 1.0),
                "loidetau_residual": _loidetau_residual(sol, snap, system) if snap.t > 0 else 0.0,
                "boundary_density": snap.density(0.0),
                "p_over_a": snap.p_t / snap.a_t if snap.a_t > 0 else 0.0,
            }
        )
    mass_abs = system.tolerances.mass_abs
    ok = not any(r["mass_error"] > mass_abs or r["loidetau_residual"] > mass_abs for r in rows)
    _write_json(out / "limit_report.json", {"snapshots": rows, "ok": ok})
    return 0 if ok else 1


_POOL_STATE: dict = {}


def _init_pool(state: dict):
    # runs in every worker, so the state also reaches spawn/forkserver children
    _POOL_STATE.update(state)


def _chaos_worker(args):
    n, rep = args
    base = _POOL_STATE["base"]
    sol = _POOL_STATE["sol"]
    snaps = _POOL_STATE["snaps"]
    master = _POOL_STATE["master"]
    budget = _POOL_STATE["budget"]
    system = SystemConfig(
        n=n,
        lam=base.lam,
        rate=base.rate,
        initial=base.initial,
        horizon=base.horizon,
        seed=derive_seed(master, "chaos", n, rep),
        tolerances=base.tolerances,
    )
    return (n, rep), simulate_coupled(system, sol, snaps, event_budget=budget)


def cmd_chaos(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    n_grid = [int(n) for n in cfg.get("n_grid", [])]
    replicates = int(cfg.get("replicates", 0))
    if len(n_grid) < 3 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("chaos needs a strictly increasing n_grid with >= 3 sizes")
    if replicates < 1:
        raise ConfigError("chaos needs replicates >= 1")
    snaps = [float(t) for t in cfg["snapshot_times"]]
    band = cfg.get("slope_band", [-0.65, -0.35])
    r2_min = float(cfg.get("r_squared_min", 0.9))
    budget = int(cfg.get("event_budget", 100_000_000))

    base = _system_from(cfg["system"], seed)
    master = base.seed
    sol = solve_marginals(base, snapshot_times=snaps)

    state = dict(base=base, sol=sol, snaps=snaps, master=master, budget=budget)
    tasks = [(n, rep) for n in n_grid for rep in range(replicates)]
    results: dict = {}
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=threads, initializer=_init_pool, initargs=(state,)
        ) as pool:
            for key, stats in pool.map(_chaos_worker, tasks, chunksize=8):
                results[key] = stats
    else:
        _init_pool(state)
        for task in tasks:
            key, stats = _chaos_worker(task)
            results[key] = stats

    per_n = {}
    fit_pts = {"mean_abs_diff": [], "mean_h_diff": [], "w1": []}
    for n in n_grid:
        agg = CoupledStats.combine([results[(n, rep)] for rep in range(replicates)])
        sup_x = float(np.max(agg.mean_abs_diff))
        sup_h = float(np.max(agg.mean_h_diff))
        sup_w = float(np.max(agg.w1))
        per_n[str(n)] = {"sup_mean_abs_diff": sup_x, "sup_mean_h_diff": sup_h, "sup_w1": sup_w}
        fit_pts["mean_abs_diff"].append((n, sup_x))
        fit_pts["mean_h_diff"].append((n, sup_h))
        fit_pts["w1"].append((n, sup_w))

    slopes = {}
    passed = True
    for name, pts in fit_pts.items():
        fit = fit_rate(pts)
        slopes[name] = {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}
        if not (band[0] <= fit.slope <= band[1]) or fit.r_squared < r2_min:
            passed = False

    _write_csv(
        out / "chaos_curve.csv",
        ["n", "sup_mean_abs_diff", "sup_mean_h_diff", "sup_w1"],
        [
            (n, per_n[str(n)]["sup_mean_abs_diff"], per_n[str(n)]["sup_mean_h_diff"], per_n[str(n)]["sup_w1"])
            for n in n_grid
        ],
    )
    _write_json(
        out / "chaos_report.json",
        {
            "command": "chaos",
            "config": cfg,
            "seed": master,
            "per_n": per_n,
            "slopes": slopes,
            "slope_band": band,
            "r_squared_min": r2_min,
            "pass": passed,
        },
    )
    return 0 if passed else 1


def cmd_equilibrium(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    system = _system_from(cfg["system"], seed)
    time_grid = [float(t) for t in cfg.get("time_grid", np.linspace(0, system.horizon, 21).tolist())]
    if system.lam == 0.0:
        inv = solve_a_star(system.lam, system.rate)
        sol = solve_marginals(system, snapshot_times=time_grid)
        hi = max(
            float(inv.density_xs[-1]),
            max(s.support()[1] for s in sol.snapshots),
        )
        ys = np.linspace(0.0, hi, 6001)
        g_inf = inv.density(ys)
        rows = []
        tvs = {}
        for snap in sol.snapshots:
            tv = tv_densities(snap.density(ys), g_inf, ys)
            tvs[snap.t] = tv
            rows.append((snap.t, tv))
        _write_csv(out / "tv.csv", ["time", "tv"], rows)
        after1 = [(t, tv) for t, tv in sorted(tvs.items()) if t >= 1.0]
        slack = 10 * system.tolerances.mass_abs
        monotone = all(b[1] <= a[1] + slack for a, b in zip(after1, after1[1:]))
        t5 = min((t for t in tvs if t >= 5.0), default=None)
        final_ok = t5 is None or tvs[max(tvs)] <= tvs[t5] + slack
        passed = monotone and final_ok
        _write_json(
            out / "equilibrium_report.json",
            {
                "command": "equilibrium",
                "config": cfg,
                "mode": "tv_decay",
                "tv": {str(t): tv for t, tv in sorted(tvs.items())},
                "monotone_after_1": monotone,
                "final_le_tv5": final_ok,
                "pass": passed,
            },
        )
        return 0 if passed else 1

    floor = float(cfg.get("floor", 0.01))
    sol = solve_marginals(system, snapshot_times=time_grid)
    mask = sol.times >= 1.0
    inf_a = float(np.min(sol.a[mask]))
    inf_m = float(np.min(sol.m[mask]))
    _write_csv(
        out / "series.csv",
        ["time", "a", "p", "m"],
        list(zip(sol.times.tolist(), sol.a.tolist(), sol.p.tolist(), sol.m.tolist())),
    )
    passed = inf_a > floor
    _write_json(
        out / "equilibrium_report.json",
        {
            "command": "equilibrium",
            "config": cfg,
            "mode": "non_extinction",
            "inf_a_after_1": inf_a,
            "inf_m_after_1": inf_m,
            "floor": floor,
            "pass": passed,
        },
    )
    return 0 if passed else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "invariant": cmd_invariant,
    "solve-limit": cmd_solve_limit,
    "chaos": cmd_chaos,
    "equilibrium": cmd_equilibrium,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="neuronmf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    out = Path(args.out)
    try:
        cfg = load_config(args.config)
        if not isinstance(cfg, dict) or "command" not in cfg:
            raise ConfigError('config needs a top-level "command" field')
        if cfg["command"] != args.command:
            raise ConfigError(f"config declares command {cfg['command']!r}, invoked as {args.command!r}")
        out.mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command](cfg, out, seed=args.seed, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MassDriftError as exc:
        print(f"tolerance violated: {exc}", file=sys.stderr)
        return 1
    except EventBudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    _write_timing(out, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
