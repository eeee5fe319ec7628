"""The benchmark tracer against the package: the names it wraps and the solver steps it counts."""

import importlib.util
import json
from pathlib import Path

import pytest

import neuronmf
from neuronmf import InitialLaw, RateFunction, SystemConfig, Tolerances, cli

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("lam,xi,bisected", [(0.0, 1.0, 0), (1.0, 2.0, 36)])
def test_solver_steps_counted_and_sites_restored(lam, xi, bisected):
    # f = x at lam 0 bisects no step; f = x^2 at lam 1 bisects 36 of the 100 requested
    cfg = SystemConfig(
        n=1,
        lam=lam,
        rate=RateFunction.power(1, xi),
        initial=InitialLaw.exponential(1.0),
        horizon=2.0,
        seed=1,
        tolerances=Tolerances(dt=0.02),
    )
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._patched)
    try:
        sol = neuronmf.solve_marginals(cfg, snapshot_times=[0.5, 1.0, 2.0])
    finally:
        tracer.restore()
    assert tracer.by_name()["limitlaw.solve_marginals"][0] == 1
    assert tracer.counts["limitlaw.solver_steps"] == len(sol.times) - 1
    assert tracer.counts["limitlaw.solver_bisected_steps"] == bisected
    assert patched
    for holder, attr, original in patched:
        assert tracing._lookup(holder, attr) is original, attr


def test_last_jump_check_traced_through_simpson_refine(tmp_path):
    # solve-limit's check runs its jump part once per snapshot at t > 0, so
    # twice at 0, 0.5 and 1; cli must call it as quadrature.simpson_refine
    # for the wrap to see it
    config = {
        "command": "solve-limit",
        "system": {
            "lambda": 1.0,
            "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
            "initial": {"kind": "exponential", "rate": 1.0},
            "horizon": 1.0,
            "seed": 1,
            "tolerances": {"dt": 0.02},
        },
        "snapshot_times": [0.0, 0.5, 1.0],
    }
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(config))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._patched)
    try:
        code = cli.main(["solve-limit", "--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert code == 0
    assert tracer.by_name()["quadrature.simpson_refine"][0] == 2
    for holder, attr, original in patched:
        assert tracing._lookup(holder, attr) is original, attr
