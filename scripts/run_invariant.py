#!/usr/bin/env python3
"""Nontrivial invariant density of the limit dynamics.

Solves Gamma(a) = 1 by bracketing and a secant and writes the stationary
summary (a*, p, m, support, residuals) plus the density grid as CSV.
"""

import argparse
import json
import sys
import tempfile

from neuronmf.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--xi", type=float, default=1.0)
    ap.add_argument("--out", default="results/invariant")
    args = ap.parse_args()

    cfg = {
        "command": "invariant",
        "system": {
            "lambda": args.lam,
            "rate": {"kind": "power", "c": args.c, "xi": args.xi},
            "initial": {"kind": "exponential", "rate": 1.0},
            "horizon": 1.0,
            "seed": 1,
        },
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(cfg, fh)
        cfg_path = fh.name
    return cli_main(["invariant", "--config", cfg_path, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
