#!/usr/bin/env python3
"""Desk-scale coupling-rate experiment.

Couples the N-neuron system to N limit processes over a grid of system
sizes and fits the log-log slope of the coupling error, which should sit
near -1/2. Writes chaos_report.json and chaos_curve.csv under --out.
"""

import argparse
import json
import os
import sys
import tempfile

from neuronmf.cli import main as cli_main


def build_config(lam: float, seed: int) -> dict:
    return {
        "command": "chaos",
        "system": {
            "lambda": lam,
            "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
            "initial": {"kind": "exponential", "rate": 1.0},
            "horizon": 2.0,
            "seed": seed,
        },
        "snapshot_times": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
        "n_grid": [50, 100, 200, 400, 800, 1600],
        "replicates": 64,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=20250808)
    ap.add_argument("--out", default="results/chaos")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(build_config(args.lam, args.seed), fh)
        cfg_path = fh.name
    try:
        return cli_main(["chaos", "--config", cfg_path, "--out", args.out, "--threads", str(args.threads)])
    finally:
        os.unlink(cfg_path)


if __name__ == "__main__":
    sys.exit(main())
