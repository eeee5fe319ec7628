#!/usr/bin/env python3
"""Self-test of the benchmark, in seconds.

    python3 benchmark/selftest.py

Runs one round of every workload at tiny size through the same code as
run.py, with and without the tracer, and requires each correctness check to
pass on the real outputs and to fail on a deliberately corrupted copy:
spike times shifted, a* perturbed by 1e-5, a density scaled by 1.01, a flat
chaos curve. Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

SEED = 7
OUT = Path(__file__).resolve().parent / "out" / "selftest"


class TinyChaos(workloads.Chaos):
    n_grid = [16, 32, 64]
    replicates = {1.0: 2, 0.0: 2}
    snapshots = [0.25, 0.5]
    horizon = 0.5

    def make_configs(self, rng):
        for label, command, cfg in super().make_configs(rng):
            # two replicates cannot pass the command's own slope gate; the
            # benchmark's check is tested on curves below instead
            cfg.update(slope_band=[-10.0, 10.0], r_squared_min=0.0)
            yield label, command, cfg


class TinyEnsemble(workloads.Ensemble):
    runs_per_case = 20
    ks_runs = 100


class TinyLimit(workloads.Limit):
    solve_horizon = 0.5
    ext_horizon = 2.0
    ext_dt = 0.02


class TinyInvariant(workloads.Invariant):
    lambdas = [0.75]
    rates = [{"kind": "power", "c": 1.0, "xi": 2.0}, {"kind": "polynomial", "coeffs": [1.0, 1.0]}]
    lam0_exponents = [1.5]


failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_tiny(cls):
    workload = cls(SEED, OUT / cls.name)
    rnd = workload.run_round(0)
    expect(not rnd.failed, f"{cls.name}: {len(rnd.times)} operations at tiny size, none failed {rnd.failed}")
    problems = workload.check(rnd.record)
    return workload, rnd.record, problems


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        # chaos: the real tiny curves are too noisy to fit, so the check is
        # shown on an exact N^(-1/2) curve and on the tiny curves made flat
        workload, records, _ = run_tiny(TinyChaos)
        n = np.array([50, 100, 200, 400, 800, 1600], dtype=float)
        wobble = 1.0 + 0.02 * np.cos(np.arange(n.size))
        expect(not checks.check_chaos_curve("exact", n, {"c": 0.6 * wobble / np.sqrt(n)}), "chaos: an N^-1/2 curve passes")
        flat = copy.deepcopy(records)
        for _, _, curve in flat:
            for key in curve:
                if key != "n":
                    curve[key][:] = curve[key][0]
        expect(workload.check(flat) != [], "chaos: a flat curve is rejected")

        workload, records, problems = run_tiny(TinyEnsemble)
        expect(not problems, f"ensemble: outputs pass {problems}")
        shifted = copy.deepcopy(records)
        for rec in shifted:
            rec["ks_times"] = rec["ks_times"] + 0.25 / workload.ks_rate
        expect(workload.check(shifted) != [], "ensemble: spike times shifted by a quarter mean are rejected")
        halved = copy.deepcopy(records)
        for rec in halved:
            rec["spikes"] //= 2
        expect(workload.check(halved) != [], "ensemble: half the spikes are rejected")

        workload, records, problems = run_tiny(TinyLimit)
        expect(not problems, f"limit: outputs pass {problems}")
        scaled = copy.deepcopy(records)
        for label, _, out in scaled:
            if label == "solve-limit":
                name, y, d, atoms = out["densities"][0]
                out["densities"][0] = (name, y, 1.01 * d, atoms)
        expect(workload.check(scaled) != [], "limit: a density scaled by 1.01 is rejected")

        workload, records, problems = run_tiny(TinyInvariant)
        expect(not problems, f"invariant: outputs pass {problems}")
        for k in range(len(records)):
            perturbed = list(records)
            label, cfg, a_star = perturbed[k]
            perturbed[k] = (label, cfg, a_star + 1e-5)
            expect(workload.check(perturbed) != [], f"invariant: a* + 1e-5 is rejected for {cfg['system']}")

        # the tracer sees every layer a workload calls and restores the package
        original = workloads.neuronmf.simulate
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            TinyEnsemble(SEED, OUT / "traced").run_round(0)
            TinyInvariant(SEED, OUT / "traced").run_round(0)
        finally:
            tracer.restore()
        metrics = tracing.per_layer_metrics(tracer, 1, 0.0)
        expect(set(metrics) == set(tracing.PER_LAYER_UNITS), "trace: every per-layer metric is reported")
        expect(metrics["particle.simulate_calls"]["value"] == 9 * 20 + 100, "trace: one span per simulate call")
        expect(metrics["invariant.gamma_calls"]["value"] > 0, "trace: gamma is traced inside solve_a_star")
        expect(workloads.neuronmf.simulate is original, "trace: the package is restored")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
