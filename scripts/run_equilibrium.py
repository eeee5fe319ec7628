#!/usr/bin/env python3
"""Large-time behavior of the limit dynamics.

Without mean-reversion (lambda = 0, f = x) the marginal law converges to
the explicit equilibrium density in total variation; this records the TV
curve from an exponential start. With lambda > 0 convergence is open, so
the run only asserts non-extinction: the drift a_t stays above a floor.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from neuronmf.cli import main as cli_main


def build_config(lam: float) -> dict:
    # no equilibrium solve draws a random number, but a system block needs a seed
    if lam == 0.0:
        return {
            "command": "equilibrium",
            "system": {
                "n": 1,
                "lambda": 0.0,
                "rate": {"kind": "power", "c": 1.0, "xi": 1.0},
                "initial": {"kind": "exponential", "rate": 1.0},
                "horizon": 20.0,
                "seed": 20250808,
                "tolerances": {"dt": 0.01},
            },
            "time_grid": np.arange(0.0, 20.5, 0.5).tolist(),
        }
    return {
        "command": "equilibrium",
        "system": {
            "n": 1,
            "lambda": lam,
            "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
            "initial": {"kind": "exponential", "rate": 1.0},
            "horizon": 10.0,
            "seed": 20250808,
            "tolerances": {"dt": 0.01},
        },
        "time_grid": np.arange(0.0, 10.5, 0.5).tolist(),
        "floor": 0.01,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ap.add_argument("--out", default="results/equilibrium")
    args = ap.parse_args()

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(build_config(args.lam), fh)
        cfg_path = fh.name
    try:
        return cli_main(["equilibrium", "--config", cfg_path, "--out", args.out])
    finally:
        os.unlink(cfg_path)


if __name__ == "__main__":
    sys.exit(main())
