"""The four benchmark workloads.

Each workload makes its inputs from the seed when it is built, then runs
rounds of the same operations on them. An operation is one CLI command or
one library call; each is timed on its own, so the benchmark's parsing and
checking between operations is left out of the time. A round returns its
operation times, its failures and a record of parsed outputs, and the
workload's check() turns the records into a list of problems.

Sizes are fields of the workload objects so that the self-test can run the
same code at tiny size.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import neuronmf  # noqa: E402
import neuronmf.cli  # noqa: E402

if not Path(neuronmf.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"neuronmf imported from {neuronmf.__file__}, not from {ROOT / 'src'}")

import checks  # noqa: E402

# Streams of the KS sample are keyed by this constant and not by --seed: a
# level-0.01 test rejects 1% of samples drawn from a correct simulator, so a
# seed-dependent sample would fail one run in a hundred by construction.
KS_STREAM_KEY = 20250808


@dataclass
class Round:
    times: list = field(default_factory=list)  # seconds per operation, in order; nan where it failed
    failed: list = field(default_factory=list)  # messages of failed operations
    record: list = field(default_factory=list)  # parsed outputs for check()


def _input_rng(seed, name):
    # the workload's name is a second seed word, so that workloads draw
    # unrelated inputs from one --seed
    return np.random.default_rng([seed, sum(map(ord, name))])


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2**62, size=k)]


def _rate_terms(rate):
    """(exponent, coefficient) pairs of a config rate object."""
    if rate["kind"] == "power":
        xi = float(rate["xi"])
        return [(int(xi) if xi.is_integer() else xi, rate["c"])]
    return [(k + 1, c) for k, c in enumerate(rate["coeffs"]) if c]


def _rate_fn(rate):
    terms = _rate_terms(rate)
    return lambda y: sum(c * np.power(y, n) for n, c in terms)


class CliWorkload:
    """A workload made of CLI commands, each with a config file of its own."""

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.ops = []  # (label, command, config dict, config path)
        rng = _input_rng(seed, self.name)
        for label, command, cfg in self.make_configs(rng):
            path = self.work_dir / f"{label}.json"
            path.write_text(json.dumps(cfg))
            self.ops.append((label, command, cfg, path))

    def make_configs(self, rng):
        raise NotImplementedError

    def parse(self, label, cfg, out: Path):
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        result = Round()
        for label, command, cfg, path in self.ops:
            out = self.work_dir / f"r{index}-{label}"
            argv = [command, "--config", str(path), "--out", str(out), "--threads", "1"]
            t0 = time.perf_counter()
            try:
                code = neuronmf.cli.main(argv)
                problem = f"exit code {code}" if code != 0 else None
            except Exception:  # an operation that raises is a failed operation, the run goes on
                problem = traceback.format_exc(limit=-2)
            seconds = time.perf_counter() - t0
            if problem:
                result.failed.append(f"{label}: {problem}")
                result.times.append(math.nan)
            else:
                result.times.append(seconds)
                result.record.append((label, cfg, self.parse(label, cfg, out)))
            shutil.rmtree(out, ignore_errors=True)
        return result


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Chaos(CliWorkload):
    """CLI chaos at lambda=1 and lambda=0: the coupled engine at N = 50..1600."""

    name = "chaos"
    n_grid = [50, 100, 200, 400, 800, 1600]
    # replicates per lambda: the fewest for which the slope check fails
    # less than once in 4000 bootstrap resamples (README, "chaos")
    replicates = {1.0: 24, 0.0: 48}
    snapshots = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    horizon = 2.0

    def make_configs(self, rng):
        for lam, seed in zip(self.replicates, _seeds(rng, len(self.replicates))):
            cfg = {
                "command": "chaos",
                "system": {
                    "lambda": lam,
                    "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                    "initial": {"kind": "exponential", "rate": 1.0},
                    "horizon": self.horizon,
                    "seed": seed,
                },
                "snapshot_times": self.snapshots,
                "n_grid": self.n_grid,
                "replicates": self.replicates[lam],
            }
            yield f"chaos-lam{lam:g}", "chaos", cfg

    def parse(self, label, cfg, out):
        curve = _read_csv(out / "chaos_curve.csv")
        return {"n": curve[:, 0], "sup_mean_abs_diff": curve[:, 1], "sup_mean_h_diff": curve[:, 2], "sup_w1": curve[:, 3]}

    def check(self, records):
        problems = []
        for label, _, curve in records:
            problems += checks.check_chaos_curve(label, curve["n"], {k: v for k, v in curve.items() if k != "n"})
        return problems


class Limit(CliWorkload):
    """CLI solve-limit and the two equilibrium modes: the deterministic solver."""

    name = "limit"
    solve_horizon = 2.0
    tv_horizon = 20.0
    tv_dt = 0.01
    ext_horizon = 10.0
    ext_dt = 0.01

    @staticmethod
    def _system(lam, xi, horizon, seed, dt=None):
        system = {
            "lambda": lam,
            "rate": {"kind": "power", "c": 1.0, "xi": xi},
            "initial": {"kind": "exponential", "rate": 1.0},
            "horizon": horizon,
            "seed": seed,
        }
        if dt:
            system["tolerances"] = {"dt": dt}
        return system

    def make_configs(self, rng):
        seeds = _seeds(rng, 3)
        # one snapshot late in each of the first three quarters of the horizon
        # and one at its end, which fixes the size of the largest survival
        # quadrature; on a 1e-3 grid, so that no snapshot sits within rounding
        # distance of a solver node
        quarter = self.solve_horizon / 4
        snaps = [round(quarter * (k + 1) - rng.uniform(0.0, 0.2 * quarter), 3) for k in range(3)]
        snaps.append(self.solve_horizon)
        yield "solve-limit", "solve-limit", {
            "command": "solve-limit",
            "system": self._system(1.0, 2.0, self.solve_horizon, seeds[0]),
            "snapshot_times": snaps,
        }
        yield "equilibrium-lam0", "equilibrium", {
            "command": "equilibrium",
            "system": self._system(0.0, 1.0, self.tv_horizon, seeds[1], self.tv_dt),
            "time_grid": np.arange(1.0, self.tv_horizon + 0.25, 0.5).tolist(),
        }
        yield "equilibrium-lam1", "equilibrium", {
            "command": "equilibrium",
            "system": self._system(1.0, 2.0, self.ext_horizon, seeds[2], self.ext_dt),
        }

    def parse(self, label, cfg, out):
        if label == "equilibrium-lam0":
            tv = _read_csv(out / "tv.csv")
            return {"times": tv[:, 0], "tv": tv[:, 1]}
        series = _read_csv(out / "series.csv")
        parsed = {"series": tuple(series.T)}
        if label == "solve-limit":
            densities = []
            for path in sorted(out.glob("density_*.csv")):
                raw = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=None, encoding="ascii")
                parts = np.array([row[2] for row in raw])
                y = np.array([row[0] for row in raw], dtype=float)
                d = np.array([row[1] for row in raw], dtype=float)
                atom = parts == "atom"
                densities.append((path.name, y[~atom], d[~atom], d[atom]))
            parsed["densities"] = densities
        return parsed

    def check(self, records):
        problems = []
        for label, cfg, out in records:
            system = cfg["system"]
            mass_abs = system.get("tolerances", {}).get("mass_abs", 1e-4)
            if label == "solve-limit":
                times = sorted(set(cfg["snapshot_times"]))
                if len(out["densities"]) != len(times):
                    problems.append(f"{len(out['densities'])} densities written for {len(times)} snapshot times")
                for t, (name, y, d, atoms) in zip(times, out["densities"]):
                    problems += checks.check_density(
                        name, y, d, atoms, t, out["series"], system["lambda"], _rate_fn(system["rate"]), mass_abs
                    )
            elif label == "equilibrium-lam0":
                problems += checks.check_tv_decay(out["times"], out["tv"], 10 * mass_abs)
            else:
                times, a, _, _ = out["series"]
                problems += checks.check_non_extinction(times, a)
        return problems


class Invariant(CliWorkload):
    """CLI invariant solves: Gamma(a) = 1 over lambdas and rates."""

    name = "invariant"
    # fixed, because the solver's work and memory jump between nearby lambdas
    # (f=x: 40 MiB at lambda 2.489, 49 MiB at 2.470); above 2.5 pure powers
    # fail (CHANGES.md, FOUND)
    lambdas = [0.5, 1.0, 1.5, 2.0, 2.5]
    rates = [
        {"kind": "power", "c": 1.0, "xi": 1.0},
        {"kind": "power", "c": 1.0, "xi": 2.0},
        {"kind": "power", "c": 1.0, "xi": 3.0},
        {"kind": "polynomial", "coeffs": [1.0, 1.0]},
    ]
    lam0_exponents = [1.0, 1.5, 2.0, 2.5, 3.0]

    def make_configs(self, rng):
        lams = [0.0] + self.lambdas
        cases = [(lam, rate) for lam in lams for rate in self.rates if not (lam == 0.0 and rate["kind"] == "power")]
        # lambda = 0 power rates have a closed-form a*; their c comes from the seed
        cases += [(0.0, {"kind": "power", "c": float(rng.uniform(0.5, 2.0)), "xi": xi}) for xi in self.lam0_exponents]
        for k, (lam, rate) in enumerate(cases):
            yield f"invariant-{k:02d}", "invariant", {"command": "invariant", "system": {"lambda": lam, "rate": rate}}

    def parse(self, label, cfg, out):
        return json.loads((out / "invariant.json").read_text())["a_star"]

    def check(self, records):
        problems = []
        references = {}
        for label, cfg, a_star in records:
            lam = cfg["system"]["lambda"]
            rate = cfg["system"]["rate"]
            key = (lam, json.dumps(rate, sort_keys=True))
            if key not in references:
                if lam == 0.0 and rate["kind"] == "power":
                    references[key] = checks.power_a_star_lam0(rate["c"], rate["xi"])
                else:
                    references[key] = checks.a_star_reference(_rate_terms(rate), lam)
            problems += checks.check_a_star(f"{label} lam={lam:.4f} {rate}", a_star, references[key])
        return problems


class Ensemble:
    """Thousands of small library simulate calls: the per-call fixed cost."""

    name = "ensemble"
    sizes = (1, 2, 3)
    lambdas = (0.0, 1.0, 2.0)
    runs_per_case = 250
    horizon = 1.0
    ks_runs = 500
    ks_lam = 2.0
    ks_horizon = 400.0

    def __init__(self, seed: int, work_dir: Path):
        from neuronmf import InitialLaw, RateFunction, SystemConfig

        rng = _input_rng(seed, self.name)
        linear = RateFunction.power(1, 1)
        exp1 = InitialLaw.exponential(1.0)
        self.configs = [
            SystemConfig(n=n, lam=lam, rate=linear, initial=exp1, horizon=self.horizon, seed=s)
            for n in self.sizes
            for lam in self.lambdas
            for s in _seeds(rng, self.runs_per_case)
        ]
        # N=1 from a point mass: the one spike comes after an Exp(f(x0)) time
        self.x0 = float(rng.uniform(1.0, 2.0))
        self.ks_rate = self.x0**2
        point = InitialLaw.point_mass(self.x0)
        square = RateFunction.power(1, 2)
        self.ks_configs = [
            SystemConfig(n=1, lam=self.ks_lam, rate=square, initial=point, horizon=self.ks_horizon, seed=s)
            for s in _seeds(np.random.default_rng(KS_STREAM_KEY), self.ks_runs)
        ]

    def _call(self, config, snapshot_times, result):
        t0 = time.perf_counter()
        try:
            log, _ = neuronmf.simulate(config, snapshot_times)
        except Exception:  # an operation that raises is a failed operation, the run goes on
            result.failed.append(traceback.format_exc(limit=-2))
            result.times.append(math.nan)
            return None
        result.times.append(time.perf_counter() - t0)
        return log

    def run_round(self, index: int) -> Round:
        result = Round()
        logs = [self._call(cfg, [cfg.horizon], result) for cfg in self.configs]
        ks_logs = [self._call(cfg, [], result) for cfg in self.ks_configs]
        spikes = 0
        compensator = 0.0
        for cfg, log in zip(self.configs, logs):
            if log is not None:
                spikes += log.spikes
                compensator += checks.linear_rate_compensator(
                    cfg.n, cfg.horizon, log.initial_values, log.times, log.pre_potentials
                )
        first_times = [log.times[0] if log.spikes else np.inf for log in ks_logs if log is not None]
        result.record.append({"spikes": spikes, "compensator": compensator, "ks_times": np.asarray(first_times)})
        return result

    def check(self, records):
        problems = []
        for rec in records:
            problems += checks.check_compensator(rec["spikes"], rec["compensator"])
            problems += checks.check_exponential_times(rec["ks_times"], self.ks_rate)
        return problems


WORKLOADS = {w.name: w for w in (Chaos, Ensemble, Limit, Invariant)}
