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
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .invariant import ROOT_ABS, solve_a_star
from .limitlaw import MassDriftError, simulate_coupled, solve_marginals
from .metrics import fit_rate, tv_densities
from .model import ConfigError, InitialLaw, RateFunction, SystemConfig, Tolerances, survival
from .particle import EventBudgetExceededError, check_apriori, simulate
from .quadrature import QuadratureError
from .rng import derive_seed

_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _reading(part: str):
    """Turn a missing key or a value of the wrong type in that part of the config into a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {part}: {type(exc).__name__}: {exc}") from exc


def _rate_from(obj) -> RateFunction:
    with _reading("rate block"):
        kind = obj.get("kind")
        if kind == "power":
            return RateFunction.power(obj["c"], obj["xi"])
        if kind == "polynomial":
            return RateFunction.polynomial(obj["coeffs"])
    raise ConfigError(f"unknown rate kind {kind!r}")


def _initial_from(obj) -> InitialLaw:
    with _reading("initial block"):
        kind = obj.get("kind")
        if kind == "point_mass":
            return InitialLaw.point_mass(obj["x0"])
        if kind == "exponential":
            return InitialLaw.exponential(obj["rate"])
        if kind == "truncated_density":
            return InitialLaw.from_grid(obj["xs"], obj["values"])
    raise ConfigError(f"unknown initial law kind {kind!r}")


def _system_from(cfg, seed_override=None) -> SystemConfig:
    with _reading("system block"):
        obj = cfg["system"]
        tol = obj.get("tolerances", {})
        return SystemConfig(
            n=int(obj.get("n", 1)),
            lam=float(obj["lambda"]),
            rate=_rate_from(obj["rate"]),
            initial=_initial_from(obj["initial"]),
            horizon=float(obj["horizon"]),
            seed=int(seed_override if seed_override is not None else obj["seed"]),
            tolerances=Tolerances(
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
    """Write tuples whose columns keep one type: floats at 17 digits, other cells by str()."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            fmt = ",".join(_FMT if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
            fh.writelines(fmt % row for row in rows)


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


def _write_series(out: Path, sol):
    series = zip(sol.times.tolist(), sol.a.tolist(), sol.p.tolist(), sol.m.tolist())
    _write_csv(out / "series.csv", ["time", "a", "p", "m"], list(series))


def _write_timing(out: Path, seconds: float):
    with open(out / "timing.txt", "w") as fh:
        fh.write(f"wall_clock_s={seconds:.3f}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    system = _system_from(cfg, seed)
    with _reading("simulate config"):
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
    with _reading("system block"):
        lam = float(cfg["system"]["lambda"])
        rate = _rate_from(cfg["system"]["rate"])
    if not 0 <= lam < math.inf:
        raise ConfigError("lambda must be finite and >= 0")

    result = solve_a_star(lam, rate)
    _write_json(out / "invariant.json", result.summary())
    _write_csv(
        out / "invariant_density.csv",
        ["x", "g"],
        list(zip(result.density_xs.tolist(), result.density_values.tolist())),
    )
    res = result.residuals
    ok = (
        res["normalization"] <= ROOT_ABS
        and res["self_consistency"] <= 10 * ROOT_ABS
        and res["fixed_point"] <= 10 * ROOT_ABS
    )
    return 0 if ok else 1


def _loidetau_residual(sol, snap, system: SystemConfig) -> float:
    """Independent check that the last-jump-time law has unit mass.

    Recomputes E[kappa_{0,t}(Y0)] + int_0^t p_s kappa_{s,t}(0) ds with the
    standalone survival quadrature along the solved drift, rather than the
    solver's own slab factors: one survival call for the 257 start times
    of the jump part, one for the initial nodes and atom origins together.
    """
    t = snap.t
    if t <= 0:
        return 0.0
    drift = sol.drift()
    s_grid = np.linspace(0.0, t, 257)
    sv = survival(s_grid, t, 0.0, system.rate, system.lam, drift)
    jump = float(np.trapezoid(np.interp(s_grid, sol.times, sol.p) * sv, s_grid))
    origins = [origin for origin, _, _, _ in snap.atoms]
    k0 = survival(0.0, t, np.concatenate([snap.init_x, origins]), system.rate, system.lam, drift)
    ni = snap.init_x.size
    init = float(np.trapezoid(snap.init_g0 * k0[:ni], snap.init_x)) if ni else 0.0
    init += sum(mass0 * float(k) for (_, _, mass0, _), k in zip(snap.atoms, k0[ni:]))
    return abs(init + jump - 1.0)


def cmd_solve_limit(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    system = _system_from(cfg, seed)
    with _reading("solve-limit config"):
        snap_times = [float(t) for t in cfg.get("snapshot_times", [])]
    sol = solve_marginals(system, snapshot_times=snap_times)

    _write_series(out, sol)
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


# rows x neurons of one coupled batch, the coupled engine's only memory cap.
# The batch peaks at ~200 bytes per cell, ~4 MB at the cap; at N=1600 a batch
# holds 12 replicates, at N <= 400 all 48
_BATCH_CELLS = 20_000


def _chaos_batches(n_grid, replicates):
    """(n, first, stop): each size's replicates in the fewest batches of even size within _BATCH_CELLS."""
    tasks = []
    for n in n_grid:
        count = -(-replicates // max(1, _BATCH_CELLS // n))
        size = -(-replicates // count)
        tasks += [(n, first, min(first + size, replicates)) for first in range(0, replicates, size)]
    return tasks


def _chaos_worker(args):
    n, first, stop = args
    base = _POOL_STATE["base"]
    master = _POOL_STATE["master"]
    seeds = [derive_seed(master, "chaos", n, rep) for rep in range(first, stop)]
    system = dataclasses.replace(base, n=n)
    return n, simulate_coupled(system, _POOL_STATE["sol"], _POOL_STATE["snaps"], _POOL_STATE["budget"], seeds=seeds)


def cmd_chaos(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    with _reading("chaos config"):
        n_grid = [int(n) for n in cfg.get("n_grid", [])]
        replicates = int(cfg.get("replicates", 0))
        snaps = [float(t) for t in cfg["snapshot_times"]]
        band = cfg.get("slope_band", [-0.65, -0.35])
        slope_lo, slope_hi = map(float, band)
        r2_min = float(cfg.get("r_squared_min", 0.9))
        budget = int(cfg.get("event_budget", 100_000_000))
    if len(n_grid) < 3 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("chaos needs a strictly increasing n_grid with >= 3 sizes")
    if replicates < 1:
        raise ConfigError("chaos needs replicates >= 1")

    base = _system_from(cfg, seed)
    master = base.seed
    sol = solve_marginals(base, snapshot_times=snaps)

    # one batch per chunk of a size's replicates; a replicate's stats do not
    # depend on its batch, so neither do the reports. A pool starts all its
    # workers at once, so it gets no more than there are tasks and cores
    state = dict(base=base, sol=sol, snaps=snaps, master=master, budget=budget)
    tasks = _chaos_batches(n_grid, replicates)
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    try:
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_pool, initargs=(state,)
            ) as pool:
                batches = list(pool.map(_chaos_worker, tasks))
        else:
            _init_pool(state)
            batches = [_chaos_worker(task) for task in tasks]
    finally:
        _POOL_STATE.clear()  # the serial path filled it here; it must not keep this solve alive
    runs = {n: [] for n in n_grid}  # each size's replicates in order: the tasks run in order
    for n, stats in batches:
        runs[n] += stats

    # each size's sup over snapshots of the replicates' mean, per statistic
    names = ("mean_abs_diff", "mean_h_diff", "w1")
    sups = {n: [float(np.max(np.mean([getattr(s, name) for s in runs[n]], axis=0))) for name in names] for n in n_grid}
    per_n = {str(n): {f"sup_{name}": sup for name, sup in zip(names, sups[n])} for n in n_grid}
    slopes = {}
    passed = True
    for k, name in enumerate(names):
        fit = fit_rate([(n, sups[n][k]) for n in n_grid])
        slopes[name] = {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}
        if not (slope_lo <= fit.slope <= slope_hi) or fit.r_squared < r2_min:
            passed = False

    _write_csv(out / "chaos_curve.csv", ["n"] + [f"sup_{name}" for name in names], [(n, *sups[n]) for n in n_grid])
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
    system = _system_from(cfg, seed)
    with _reading("equilibrium config"):
        time_grid = [float(t) for t in cfg.get("time_grid", np.linspace(0, system.horizon, 21).tolist())]
        floor = float(cfg.get("floor", 0.01))
    if system.lam == 0.0 and not time_grid:
        raise ConfigError("equilibrium at lambda 0 needs at least one time in time_grid")
    if system.lam > 0.0 and system.horizon < 1.0:
        raise ConfigError("equilibrium at lambda > 0 needs horizon >= 1: it reports inf a_t over t >= 1")
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

    sol = solve_marginals(system, snapshot_times=time_grid)
    mask = sol.times >= 1.0
    inf_a = float(np.min(sol.a[mask]))
    inf_m = float(np.min(sol.m[mask]))
    _write_series(out, sol)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to main rather than at import."""
    parser = argparse.ArgumentParser(prog="neuronmf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
    except (MassDriftError, QuadratureError) as exc:
        print(f"tolerance violated: {exc}", file=sys.stderr)
        return 1
    except EventBudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    _write_timing(out, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
