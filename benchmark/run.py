#!/usr/bin/env python3
"""Benchmark of neuronmf: run one workload, check its outputs, print the metrics.

    python3 benchmark/run.py --workload chaos --seed 1 --seconds 10 --trace 0

The workload's inputs are made from --seed. The run repeats whole rounds of
the workload's operations until --seconds have passed (at least one round)
and prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones: wall_s (mean time spent
inside neuronmf calls in one round), setup_s (median over several fresh
interpreters of the time to import neuronmf and make the inputs) and
peak_rss_mb (peak resident memory of this process before the checks import
scipy). Both times are scaled by the machine's speed, sampled while they are
taken (speed.py). With --trace 1 the rounds alternate traced and untraced,
and the metrics are the per-layer ones of tracing.py, per traced round and
not scaled, plus trace.overhead_s (scaled wall_s of the traced rounds minus
that of the untraced ones). The spans go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("chaos", "ensemble", "limit", "invariant")
SETUP_PROBES = 11


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(args):
    """In a fresh interpreter: import neuronmf, make the inputs, print the clock and the speed."""
    from workloads import WORKLOADS

    work = OUT / f"probe-{os.getpid()}"
    try:
        WORKLOADS[args.workload](args.seed, work)
        done = time.perf_counter()
        print(repr(done), repr(speed.factor_now()), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(args):
    """Median of SETUP_PROBES set-ups, each from interpreter start (monotonic clock).

    Each probe's time is scaled by the speed its interpreter measures right
    after the set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--setup-probe"], capture_output=True, text=True, timeout=30)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        done, factor = map(float, proc.stdout.split()[-2:])
        samples.append((done - t0) * factor)
    return statistics.median(samples)


def run_rounds(workload, seconds, trace):
    """Whole rounds until `seconds` have passed; with trace, traced/untraced pairs.

    Returns, for untraced and traced rounds, the operations' times (one row
    per round, nan where an operation failed) and the speed factors sampled
    while those rounds ran.
    """
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    times = {False: [], True: []}
    factors = {False: [], True: []}
    records, failures, attempted = [], [], 0
    start = time.perf_counter()
    index = 0
    with speed.Speedometer() as meter:
        while True:
            for traced in ([True, False] if trace else [False]):
                first = len(meter.factors)
                if traced:
                    tracing.install(tracer)
                try:
                    rnd = workload.run_round(index)
                finally:
                    if traced:
                        tracer.restore()
                if len(meter.factors) == first:  # a round shorter than the sampling interval
                    meter.sample()
                factors[traced] += meter.factors[first:]
                index += 1
                times[traced].append(rnd.times)
                records += rnd.record
                failures += rnd.failed
                attempted += len(rnd.times)
            if time.perf_counter() - start >= seconds:
                return tracer, times, factors, records, failures, attempted


def scaled_round(times, factors):
    """Mean time of a round scaled by the mean speed factor, or None if an operation never succeeded.

    Each operation counts at its mean over the rounds it succeeded in.
    Summing only the operations that succeeded would make a program that
    breaks a command read faster than a correct one.
    """
    times = np.asarray(times, dtype=float)
    if np.isnan(times).all(axis=0).any():
        return None
    return float(np.nanmean(times, axis=0).sum() * np.mean(factors))


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    OUT.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup(args)

    from workloads import WORKLOADS

    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        tracer, times, factors, records, failures, attempted = run_rounds(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    problems = workload.check(records)

    if args.trace:
        import tracing

        traced_s, untraced_s = (scaled_round(times[k], factors[k]) for k in (True, False))
        overhead = None if traced_s is None or untraced_s is None else traced_s - untraced_s
        metrics = tracing.per_layer_metrics(tracer, len(times[True]), overhead)
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem.with_suffix(".npz"), stem.with_suffix(".json"), metrics)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        wall_s = scaled_round(times[False], factors[False])
        if wall_s is not None:  # left out when an operation failed in every round
            metrics["wall_s"] = {"value": wall_s, "unit": "s"}

    for traced, kind in ((False, "untraced"), (True, "traced")):
        if times[traced]:
            rounded = [round(float(np.nansum(t)), 4) for t in times[traced]]
            print(
                f"{args.workload} seed {args.seed}: {kind} round walls {rounded}, "
                f"speed factor {np.mean(factors[traced]):.3f} over {len(factors[traced])} samples",
                file=sys.stderr,
            )
    for line in failures + problems:
        print(f"FAIL: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
