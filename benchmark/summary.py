#!/usr/bin/env python3
"""Regenerate the reference figures of the README.

    python3 benchmark/summary.py --seeds 10 --seconds 10

Runs every workload once per seed (seeds 1..N) with tracing off and once
with tracing on (seed 1), then prints, per workload and end-to-end metric,
the median of the runs and the spread (third minus first quartile, over the
median), and the traced run's per-layer metrics that are not zero. Raw
result lines go to benchmark/out/summary.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace, log):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
    log.flush()
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "summary.jsonl", "a") as log:
        print("| workload | metric | median | IQR/median | runs | failed/attempted | all correct |")
        print("|---|---|---|---|---|---|---|")
        for workload in WORKLOAD_NAMES:
            results = [run(workload, seed, args.seconds, 0, log) for seed in range(1, args.seeds + 1)]
            shares = {f"{r['failed']}/{r['attempted']}" for r in results}
            correct = all(r["correct"] for r in results)
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                unit = results[0]["metrics"][name]["unit"]
                print(
                    f"| {workload} | {name} ({unit}) | {med:.4g} | {(q3 - q1) / med:.3f} | {len(values)} "
                    f"| {', '.join(sorted(shares))} | {correct} |",
                    flush=True,
                )
            traced = run(workload, 1, args.seconds, 1, log)
            layers = {k: round(v["value"], 6) for k, v in traced["metrics"].items() if v["value"]}
            print(f"| {workload} | traced, seed 1 | {json.dumps(layers)} | | 1 | | {traced['correct']} |", flush=True)


if __name__ == "__main__":
    main()
