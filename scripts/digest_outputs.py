#!/usr/bin/env python3
"""SHA-256 digests of what fixed seeded runs write, to check byte identity between two trees.

Runs fixed configs of all five CLI commands (chaos at --threads 1 and 2;
solve-limit at every rate shape and from a point mass whose bisected steps
outgrow the solver's node arrays; equilibrium at lambda 0 with f = x as
well as x^2; and runs long enough for the marginal solver to retire dead
nodes: equilibrium at lambda 0 with f = x to horizon 20, whose initial and
jump nodes retire, solve-limit at lambda 1 with x^2 to horizon 6, whose
initial nodes retire, and solve-limit from a point mass with 1.5 x^3 to
horizon 6, whose jump nodes retire) and prints one line "sha256 label/file" per output file except
timing.txt, which holds wall-clock time. Then it prints one digest over the
EventLogs and snapshots of simulate, and one over the CoupledStats of
simulate_coupled (the fields named in COUPLED_FIELDS), each for lambda in
{0, 1, 2} x N in {1, 2, 50, 400}, one over simulate_coupled batches of 7
rows at N=1600, which span several row blocks with a short last one, one
over simulate at the shapes of the small-N ensembles: N <= 3 at f=x and a
polynomial rate, N=1 from a point mass at lambda 2 with no snapshots, and
N in {127, 128, 129}, where a bound epoch grows from one spike to two, and
a last one over a simulate_coupled batch of 2 rows at N=1600, lambda 1 and
horizon 4, where each row passes 4096 spikes and folds its affine map.
Its first line names the numpy build the digests hold for: the numpy
version, its baseline CPU features and the dispatch targets active on this
CPU. numpy's exp, log, power and arctan loops round differently at
different SIMD levels, so digests from two builds or levels do not compare.
The neuronmf package is imported from the path, so the same script
digests any tree; two trees give the same reports where they print the
same lines:

    PYTHONPATH=<tree>/src python3 scripts/digest_outputs.py > digests.txt

Exits 1 when a command exits non-zero: every config here passes its gates.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath as umath

import neuronmf
from neuronmf.cli import main as cli_main

SEED = 20250808
SQUARE = {"kind": "power", "c": 1.0, "xi": 2.0}
EXP1 = {"kind": "exponential", "rate": 1.0}


def _system(lam, horizon, rate=SQUARE, initial=EXP1, n=50):
    return {"n": n, "lambda": lam, "rate": rate, "initial": initial, "horizon": horizon, "seed": SEED}


RATES = {
    "x": {"kind": "power", "c": 1.0, "xi": 1.0},
    "x2": SQUARE,
    "x1.5": {"kind": "power", "c": 1.0, "xi": 1.5},
    "poly": {"kind": "polynomial", "coeffs": [0.5, 0.0, 1.0]},
}
DENSITY = {"kind": "truncated_density", "xs": [0.0, 1.0, 2.0], "values": [1.0, 2.0, 0.5]}
SNAPS = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
# the CoupledStats fields digested, by name: a field added or removed is not a changed result
COUPLED_FIELDS = ("n", "snapshot_times", "mean_abs_diff", "mean_h_diff", "w1", "proposals", "bound_overshoots")

# (label, command, config, threads)
RUNS = [
    *(
        (f"simulate_lam{lam:g}_n{n}", "simulate", {"system": _system(lam, 2.0, n=n), "snapshot_times": SNAPS,
                                                    "write_events": True}, 1)
        for lam in (0.0, 1.0, 2.0)
        for n in (1, 50, 400)
    ),
    *(
        (f"invariant_lam{lam:g}_{name}", "invariant", {"system": _system(lam, 1.0, rate=rate)}, 1)
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0)
        for name, rate in RATES.items()
    ),
    *(
        (f"solve_limit_lam{lam:g}_{name}", "solve-limit", {"system": _system(lam, 2.0, initial=initial),
                                                          "snapshot_times": [0.0, 0.5, 1.0, 2.0]}, 1)
        for lam in (0.0, 1.0)
        for name, initial in (("exp", EXP1), ("density", DENSITY), ("point", {"kind": "point_mass", "x0": 0.5}))
    ),
    *(
        (f"solve_limit_lam{lam:g}_{name}_{start}", "solve-limit", {
            "system": _system(lam, 2.0, rate=RATES[name], initial=initial),
            "snapshot_times": [0.0, 0.5, 1.0, 2.0],
        }, 1)
        for lam in (0.0, 1.0)
        for name, start, initial in (
            ("x", "exp", EXP1), ("x1.5", "exp", EXP1), ("poly", "density", DENSITY), ("poly", "exp", EXP1)
        )
    ),
    # 1,070 births against 1,002 node slots: the solver's arrays double
    ("solve_limit_lam0_point3", "solve-limit", {"system": _system(0.0, 2.0, initial={"kind": "point_mass", "x0": 3.0}),
                                                "snapshot_times": [0.0, 0.5, 1.0, 2.0]}, 1),
    ("equilibrium_lam0", "equilibrium", {"system": _system(0.0, 6.0), "time_grid": [0.0, 1.0, 2.0, 4.0, 5.0, 6.0]}, 1),
    # the benchmark's equilibrium at f = x, where every decay factor is 1
    ("equilibrium_lam0_x", "equilibrium", {"system": dict(_system(0.0, 6.0, rate=RATES["x"]), tolerances={"dt": 0.01}),
                                           "time_grid": [0.0, 1.0, 2.0, 4.0, 5.0, 6.0]}, 1),
    ("equilibrium_lam1", "equilibrium", {"system": _system(1.0, 3.0)}, 1),
    # the solver retires dead nodes every 64 grid steps
    ("equilibrium_lam0_x_h20", "equilibrium", {
        "system": dict(_system(0.0, 20.0, rate=RATES["x"]), tolerances={"dt": 0.01}),
        "time_grid": [1.0, 2.0, 5.0, 10.0, 15.0, 20.0],
    }, 1),
    ("solve_limit_lam1_h6", "solve-limit", {"system": _system(1.0, 6.0), "snapshot_times": [0.0, 1.5, 3.0, 6.0]}, 1),
    ("solve_limit_lam0_cubic_point_h6", "solve-limit", {
        "system": _system(0.0, 6.0, rate={"kind": "power", "c": 1.5, "xi": 3.0},
                          initial={"kind": "point_mass", "x0": 1.0}),
        "snapshot_times": [0.0, 1.5, 3.0, 6.0],
    }, 1),
    *(
        (f"chaos_lam{lam:g}_threads{threads}", "chaos", {
            "system": _system(lam, 2.0),
            "snapshot_times": SNAPS,
            "n_grid": [50, 100, 200, 400, 800, 1600],
            "replicates": replicates,
        }, threads)
        for lam, replicates in ((0.0, 48), (1.0, 24))
        for threads in (1, 2)
    ),
]


def _feed(h, *values):
    """Hash each value with its dtype and shape, so that equal bytes of different arrays differ."""
    for v in values:
        a = np.asarray(v)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def _feed_run(h, log, snapshots):
    _feed(h, log.times, log.indices, log.pre_potentials, log.proposals, log.initial_values)
    _feed(h, log.bound_overshoots, log.rebuilds)
    for snap in snapshots:
        _feed(h, snap.time, snap.sorted_values, snap.mean)


def library_digests():
    """(label, digest) over simulate's EventLogs and simulate_coupled's CoupledStats."""
    events, coupled = hashlib.sha256(), hashlib.sha256()
    for lam in (0.0, 1.0, 2.0):
        base = neuronmf.SystemConfig(
            n=1, lam=lam, rate=neuronmf.RateFunction.power(1.0, 2.0), initial=neuronmf.InitialLaw.exponential(1.0),
            horizon=1.0, seed=SEED,
        )
        snaps = [0.25, 0.5, 1.0]
        sol = neuronmf.solve_marginals(base, snapshot_times=snaps)
        for n in (1, 2, 50, 400):
            config = dataclasses.replace(base, n=n)
            _feed_run(events, *neuronmf.simulate(config, snaps))
            for stats in neuronmf.simulate_coupled(config, sol, snaps, seeds=[SEED + k for k in range(3)]):
                _feed(coupled, *(getattr(stats, name) for name in COUPLED_FIELDS))
    return [("library/simulate_eventlogs", events.hexdigest()), ("library/simulate_coupled_stats", coupled.hexdigest())]


def split_batch_digest():
    """(label, digest) over simulate_coupled batches of 7 rows at N=1600: several row blocks, the last one short."""
    h = hashlib.sha256()
    for lam in (0.0, 1.0):
        config = neuronmf.SystemConfig(
            n=1600, lam=lam, rate=neuronmf.RateFunction.power(1.0, 2.0), initial=neuronmf.InitialLaw.exponential(1.0),
            horizon=1.0, seed=SEED,
        )
        snaps = [0.25, 0.5, 1.0]
        sol = neuronmf.solve_marginals(config, snapshot_times=snaps)
        for stats in neuronmf.simulate_coupled(config, sol, snaps, seeds=[SEED + k for k in range(7)]):
            _feed(h, *(getattr(stats, name) for name in COUPLED_FIELDS))
    return [("library/simulate_coupled_split_batch", h.hexdigest())]


def small_n_digest():
    """(label, digest) over simulate's outputs at many small systems, one short call each."""
    h = hashlib.sha256()
    exp1 = neuronmf.InitialLaw.exponential(1.0)
    rates = (neuronmf.RateFunction.power(1.0, 1.0), neuronmf.RateFunction.polynomial([0.5, 0.0, 1.0]))
    # the ensembles' snapshot at the horizon, and a list that holds t=0 and a repeated time
    snap_lists = ([1.0], [0.0, 0.5, 0.5, 1.0])
    for n in (1, 2, 3):
        for lam in (0.0, 1.0, 2.0):
            for rate in rates:
                for snaps in snap_lists:
                    for seed in range(SEED, SEED + 20):
                        config = neuronmf.SystemConfig(n=n, lam=lam, rate=rate, initial=exp1, horizon=1.0, seed=seed)
                        _feed_run(h, *neuronmf.simulate(config, snaps))
    point = neuronmf.InitialLaw.point_mass(1.5)
    for seed in range(SEED, SEED + 50):
        config = neuronmf.SystemConfig(
            n=1, lam=2.0, rate=neuronmf.RateFunction.power(1.0, 2.0), initial=point, horizon=400.0, seed=seed
        )
        _feed_run(h, *neuronmf.simulate(config, []))
    for n in (127, 128, 129):
        for lam in (0.0, 1.0):
            config = neuronmf.SystemConfig(
                n=n, lam=lam, rate=neuronmf.RateFunction.power(1.0, 2.0), initial=exp1, horizon=1.0, seed=SEED
            )
            _feed_run(h, *neuronmf.simulate(config, [0.0, 0.5, 0.5, 1.0]))
    return [("library/simulate_small_n", h.hexdigest())]


def fold_digest():
    """(label, digest) over a simulate_coupled batch whose rows pass 4096 spikes, the fold of the affine map."""
    h = hashlib.sha256()
    config = neuronmf.SystemConfig(
        n=1600, lam=1.0, rate=neuronmf.RateFunction.power(1.0, 2.0), initial=neuronmf.InitialLaw.exponential(1.0),
        horizon=4.0, seed=SEED,
    )
    snaps = [1.0, 2.0, 3.0, 4.0]
    sol = neuronmf.solve_marginals(config, snapshot_times=snaps)
    for stats in neuronmf.simulate_coupled(config, sol, snaps, seeds=[SEED, SEED + 1]):
        _feed(h, *(getattr(stats, name) for name in COUPLED_FIELDS))
    return [("library/simulate_coupled_fold", h.hexdigest())]


def main() -> int:
    active = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]  # the targets this CPU runs
    print(f"numpy {np.__version__} baseline {' '.join(umath.__cpu_baseline__)} dispatch {' '.join(active) or '-'}")
    print(f"neuronmf from {Path(neuronmf.__file__).parent}", file=sys.stderr)
    failed = []
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, cfg, threads in RUNS:
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps({"command": command, **cfg}))
            out = Path(tmp) / label
            code = cli_main([command, "--config", str(path), "--out", str(out), "--threads", str(threads)])
            if code != 0:
                failed.append(f"{label}: exit {code}")
            for f in sorted(out.iterdir()):
                if f.name != "timing.txt":
                    lines.append((f"{label}/{f.name}", hashlib.sha256(f.read_bytes()).hexdigest()))
    lines += library_digests() + split_batch_digest() + small_n_digest() + fold_digest()
    for label, digest in lines:
        print(digest, label)
    for problem in failed:
        print(problem, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
