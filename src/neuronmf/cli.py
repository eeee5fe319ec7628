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
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import quadrature
from .invariant import ROOT_ABS, solve_a_star
from .limitlaw import MassDriftError, simulate_coupled, solve_marginals
from .metrics import fit_rate, tv_densities
from .model import ConfigError, InitialLaw, RateFunction, SystemConfig, Tolerances, survival
from .particle import MEAN_RESIDUAL_ABS, EventBudgetExceededError, check_apriori, simulate
from .rng import derive_seed

_FMT = "%.17g"
_CSV_CHUNK = 4096  # rows per format operation of _write_csv


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
    """Write tuples whose columns keep one type: floats at 17 digits, other cells by str().

    The rows are formatted _CSV_CHUNK at a time, by one % operation and one
    write per chunk, so a long table never holds its whole text at once.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            fmt = ",".join(_FMT if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
            for c0 in range(0, len(rows), _CSV_CHUNK):
                chunk = rows[c0 : c0 + _CSV_CHUNK]
                fh.write((fmt * len(chunk)) % tuple(itertools.chain.from_iterable(chunk)))


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


def _gate(checks) -> int:
    """Exit code of a command's gates: 0 when every check holds, else 1.

    A check is (holds, name, value, relation, bound): the verdict the report
    records, and how it fails, read "value relation bound". The first failing
    check is printed as one stderr line.
    """
    for holds, name, value, relation, bound in checks:
        if not holds:
            value, bound = np.asarray(value).item(), np.asarray(bound).item()  # plain Python reprs
            print(f"tolerance violated: {name} {value!r} {relation} {bound!r}", file=sys.stderr)
            return 1
    return 0


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
    residual, violations = report.mean_residual, len(report.envelope_violations)
    return _gate(
        [
            (violations == 0, "envelope_violations", violations, ">", 0),
            (residual <= MEAN_RESIDUAL_ABS, "mean_residual", residual, ">", MEAN_RESIDUAL_ABS),
        ]
    )


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
    bounds = {"normalization": ROOT_ABS, "self_consistency": 10 * ROOT_ABS, "fixed_point": 10 * ROOT_ABS}
    return _gate([(result.residuals[k] <= b, k, result.residuals[k], ">", b) for k, b in bounds.items()])


# the last-jump-time check: Simpson panels of its jump part at first, their
# doublings at most, and the agreement of two levels that ends them; the
# summed bound below which its initial part skips nodes, and the panels of
# that bound's exponent
_JUMP_PANELS = 32
_JUMP_DOUBLINGS = 4
_JUMP_AGREE = 1e-6
_TAIL_BOUND = 1e-16
_BOUND_PANELS = 8


def _local_cubic(s, xs, ys):
    """Interpolant of the nodes (xs, ys) at s: on each interval of xs, the cubic through its four nearest nodes.

    It is smooth inside intervals, and its kinks at the nodes are of the
    fourth order in the node spacing, where a piecewise-linear one's are of
    the second: a rule in s that does not land on the nodes then converges
    at its own order. Fewer than four nodes take the polynomial through all.
    """
    k = min(4, xs.size)
    idx = np.clip(np.searchsorted(xs, s, side="right") - k // 2, 0, xs.size - k)[:, None] + np.arange(k)
    xn, yn = xs[idx], ys[idx]
    out = np.zeros(s.size)
    for j in range(k):
        out += yn[:, j] * np.prod([(s - xn[:, m]) / (xn[:, j] - xn[:, m]) for m in range(k) if m != j], axis=0)
    return out


def _jump_part(sol, t: float, system: SystemConfig):
    """(J, |J_K - J_{K/2}|): int_0^t p_s kappa_{s,t}(0) ds by nested composite Simpson in v, s = t v^2.

    The grading ds = 2 t v dv puts nodes in the fast transient of p near
    s = 0. Each doubling calls survival on the new midpoints' start times
    only.
    """

    def integrand(v):
        s = t * v * v
        kappa = survival(s, t, 0.0, system.rate, system.lam, sol.drift())
        return 2.0 * t * v * _local_cubic(s, sol.times, sol.p) * kappa

    return quadrature.simpson_refine(integrand, 0.0, 1.0, _JUMP_AGREE, _JUMP_PANELS, _JUMP_DOUBLINGS)


def _initial_tail(x, g0, w, t: float, rate: RateFunction, lam: float):
    """(k, bound): the nodes x[k:] are skipped, and bound >= sum of w g0 kappa_{0,t}(x) over them.

    Since a >= 0 and f is nondecreasing, phi_{0,u}(x) >= x exp(-lam u), and
    f(x exp(-lam u)) is nonincreasing in u, so its right-endpoint sum L(x)
    bounds the survival exponent from below: kappa_{0,t}(x) <= exp(-L(x)).
    The skipped tail is the longest run of the largest x whose summed
    bound w g0 exp(-L) is below _TAIL_BOUND.
    """
    h = t / _BOUND_PANELS
    decay = np.exp(-lam * h * np.arange(1, _BOUND_PANELS + 1))
    low = h * rate(np.multiply.outer(decay, x)).sum(axis=0)
    tail = np.cumsum((w * g0 * np.exp(-low))[::-1])[::-1]
    k = int(np.count_nonzero(tail >= _TAIL_BOUND))
    return k, float(tail[k]) if k < x.size else 0.0


def _loidetau_residual(sol, snap, system: SystemConfig) -> float:
    """Independent check that the last-jump-time law has unit mass.

    Recomputes E[kappa_{0,t}(Y0)] + int_0^t p_s kappa_{s,t}(0) ds with the
    standalone survival quadrature along the solved drift, rather than the
    solver's own slab factors. The jump part runs a graded, nested Simpson
    rule (_jump_part); the initial part is the trapezoid sum over the
    initial nodes, less a tail of nodes whose survival is bounded without
    a survival call (_initial_tail), plus the atoms. Both errors, the jump
    part's last difference of levels and the tail's bound, are added to
    the reported value, so it can only err high.
    """
    t = snap.t
    if t <= 0:
        return 0.0
    jump, jump_err = _jump_part(sol, t, system)
    x, g0 = snap.init_x, snap.init_g0
    w = quadrature.trapezoid_weights(x)
    k, tail = _initial_tail(x, g0, w, t, system.rate, system.lam)
    origins = [origin for origin, _, _, _ in snap.atoms]
    k0 = survival(0.0, t, np.concatenate([x[:k], origins]), system.rate, system.lam, sol.drift())
    init = float(np.dot(w[:k] * g0[:k], k0[:k]))
    init += sum(mass0 * float(kappa) for (_, _, mass0, _), kappa in zip(snap.atoms, k0[k:]))
    return abs(init + jump - 1.0) + jump_err + tail


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
                "loidetau_residual": _loidetau_residual(sol, snap, system),
                "boundary_density": snap.density(0.0),
                "p_over_a": snap.p_t / snap.a_t if snap.a_t > 0 else 0.0,
            }
        )
    mass_abs = system.tolerances.mass_abs
    checks = [
        (not r[k] > mass_abs, f"{k} at t={float(r['t'])!r}", r[k], ">", mass_abs)
        for r in rows
        for k in ("mass_error", "loidetau_residual")
    ]
    _write_json(out / "limit_report.json", {"snapshots": rows, "ok": all(c[0] for c in checks)})
    return _gate(checks)


_POOL_STATE: dict = {}


def _init_pool(state: dict):
    # runs in every worker, so the state also reaches spawn/forkserver children
    _POOL_STATE.update(state)


# cells (neurons summed over rows) of one coupled batch, the coupled
# engine's only memory cap. The batch holds 104 bytes per cell and its passes
# work in row blocks of limitlaw._BLOCK_CELLS cells or in place, so it peaks
# at ~126-130 bytes per cell (tracemalloc, 24 x 1600), ~5 MB at the cap; at
# N=1600 a batch holds 24 replicates, and the smaller sizes share batches
_BATCH_CELLS = 40_000


def _chaos_batches(n_grid, replicates):
    """Batches of chunks (n, first, stop) of replicates, each batch within _BATCH_CELLS cells.

    Each size's replicates go in the fewest even chunks within the cap,
    packed largest N first, each into the newest batch with room for it:
    a batch runs the lockstep iterations its largest N needs and a chunk
    adds work to each, so it rides along where that N is smallest.
    """
    batches, cells = [], []
    for n in sorted(n_grid, reverse=True):
        count = -(-replicates // max(1, _BATCH_CELLS // n))
        size = -(-replicates // count)
        for first in range(0, replicates, size):
            stop = min(first + size, replicates)
            need = (stop - first) * n
            k = next((k for k in reversed(range(len(cells))) if cells[k] + need <= _BATCH_CELLS), len(cells))
            if k == len(cells):
                batches.append(())
                cells.append(0)
            batches[k] += ((n, first, stop),)
            cells[k] += need
    return batches


def _batch_rows(batch):
    """(n, replicate) of each row of a batch, in order."""
    return [(n, rep) for n, first, stop in batch for rep in range(first, stop)]


def _chaos_worker(batch):
    rows = _batch_rows(batch)
    seeds = [derive_seed(_POOL_STATE["master"], "chaos", n, rep) for n, rep in rows]
    system = dataclasses.replace(_POOL_STATE["base"], n=batch[0][0])  # the batch's largest N
    return simulate_coupled(
        system, _POOL_STATE["sol"], _POOL_STATE["snaps"], _POOL_STATE["budget"], seeds=seeds, sizes=[n for n, _ in rows]
    )


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
    if not all(map(math.isfinite, (slope_lo, slope_hi, r2_min))):
        raise ConfigError("slope_band and r_squared_min must be finite")

    base = _system_from(cfg, seed)
    master = base.seed
    sol = solve_marginals(base, snapshot_times=snaps)

    # chunks of the sizes' replicates share batches; a replicate's stats do not
    # depend on its batch, so neither do the reports. A pool starts all its
    # workers at once, so it gets no more than there are tasks and cores, and
    # takes the largest batches (cells) first, so no long one starts last
    state = dict(base=base, sol=sol, snaps=snaps, master=master, budget=budget)
    tasks = _chaos_batches(n_grid, replicates)
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    try:
        if workers > 1:
            largest_first = sorted(tasks, key=lambda task: sum(n * (b - a) for n, a, b in task), reverse=True)
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_pool, initargs=(state,)
            ) as pool:
                batches = dict(zip(largest_first, pool.map(_chaos_worker, largest_first)))
        else:
            _init_pool(state)
            batches = {task: _chaos_worker(task) for task in tasks}
    finally:
        _POOL_STATE.clear()  # the serial path filled it here; it must not keep this solve alive
    stats = {row: s for task in tasks for row, s in zip(_batch_rows(task), batches[task])}
    runs = {n: [stats[n, rep] for rep in range(replicates)] for n in n_grid}  # each size's replicates in order

    # each size's sup over snapshots of the replicates' mean, per statistic
    names = ("mean_abs_diff", "mean_h_diff", "w1")
    sups = {n: [float(np.max(np.mean([getattr(s, name) for s in runs[n]], axis=0))) for name in names] for n in n_grid}
    per_n = {str(n): {f"sup_{name}": sup for name, sup in zip(names, sups[n])} for n in n_grid}
    slopes = {}
    checks = []
    for k, name in enumerate(names):
        fit = fit_rate([(n, sups[n][k]) for n in n_grid])
        slopes[name] = {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}
        checks += [
            (slope_lo <= fit.slope, f"{name} slope", fit.slope, "<", slope_lo),
            (fit.slope <= slope_hi, f"{name} slope", fit.slope, ">", slope_hi),
            (not fit.r_squared < r2_min, f"{name} r_squared", fit.r_squared, "<", r2_min),
        ]
    passed = all(c[0] for c in checks)

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
    return _gate(checks)


def cmd_equilibrium(cfg: dict, out: Path, seed=None, threads: int = 1) -> int:
    system = _system_from(cfg, seed)
    with _reading("equilibrium config"):
        time_grid = [float(t) for t in cfg.get("time_grid", np.linspace(0, system.horizon, 21).tolist())]
        floor = float(cfg.get("floor", 0.01))
    if not math.isfinite(floor):
        raise ConfigError("floor must be finite")
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
        checks = [
            (b[1] <= a[1] + slack, f"monotone_after_1: tv at t={float(b[0])!r}", b[1], ">", a[1] + slack)
            for a, b in zip(after1, after1[1:])
        ]
        monotone = all(c[0] for c in checks)
        t5 = min((t for t in tvs if t >= 5.0), default=None)
        final_ok = t5 is None or tvs[max(tvs)] <= tvs[t5] + slack
        if not final_ok:
            checks.append((False, f"final_le_tv5: tv at t={float(max(tvs))!r}", tvs[max(tvs)], ">", tvs[t5] + slack))
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
        return _gate(checks)

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
    return _gate([(passed, "inf_a_after_1", inf_a, "<=", floor)])


_COMMANDS = {
    "simulate": cmd_simulate,
    "invariant": cmd_invariant,
    "solve-limit": cmd_solve_limit,
    "chaos": cmd_chaos,
    "equilibrium": cmd_equilibrium,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigError, which main prints as one line."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to main rather than at import."""
    parser = _Parser(prog="neuronmf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        t0 = time.perf_counter()
        out = Path(args.out)
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
    except (MassDriftError, quadrature.QuadratureError) as exc:
        print(f"tolerance violated: {exc}", file=sys.stderr)
        return 1
    except EventBudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    _write_timing(out, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
