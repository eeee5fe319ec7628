#!/usr/bin/env python3
"""Nontrivial invariant density of the limit dynamics.

Solves Gamma(a) = 1 by Newton steps on log a and writes the stationary
summary (a*, p, m, support, residuals) plus the density grid as CSV.
"""

import argparse
import json
import os
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
        },
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(cfg, fh)
        cfg_path = fh.name
    try:
        return cli_main(["invariant", "--config", cfg_path, "--out", args.out])
    finally:
        os.unlink(cfg_path)


if __name__ == "__main__":
    sys.exit(main())
