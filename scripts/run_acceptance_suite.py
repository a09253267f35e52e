#!/usr/bin/env python3
"""Run all five experiments at acceptance scale and write result directories.

Usage:
    python scripts/run_acceptance_suite.py [--out DIR] [--seed U64] [--workers N]

Writes one subdirectory per experiment (trials.csv, curves.csv, fits.csv,
constants.txt, config_echo.json) and prints the assertion outcomes with each
experiment's wall time.  Exits nonzero if any configured assertion fails.
"""

import argparse
import sys
from pathlib import Path

from enkbf_lab.cli import _print_summary
from enkbf_lab.harness import EXPERIMENTS, default_config, diag2_model, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output root (default ./results)")
    ap.add_argument("--seed", type=int, default=None, help="master seed override")
    ap.add_argument("--workers", type=int, default=1, help="trial workers")
    args = ap.parse_args()

    root = Path(args.out)
    overrides = {"workers": args.workers}
    if args.seed is not None:
        overrides["master_seed"] = args.seed

    # each experiment, then a second validation pass on the decoupled 2x2 model
    runs = [(name, default_config(name, output_dir=str(root / name), **overrides))
            for name in EXPERIMENTS]
    runs.append(("riccati_validation (2x2 model)", default_config(
        "riccati_validation", model=diag2_model(),
        output_dir=str(root / "riccati_validation_2x2"), **overrides)))
    all_ok = True
    for label, cfg in runs:
        result = run_experiment(cfg, force=True)
        _print_summary(label, result.metadata,
                       [(a.name, a.passed, a.detail) for a in result.assertions],
                       result.passed, result.fits)
        all_ok = all_ok and result.passed

    print("ALL PASS" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
