"""Command-line driver for the experiment suite.

Subcommands: validate, exactness, stability, convergence, chaos, report.
An experiment exits with status 0 iff all of its configured assertions pass.
A refused flag value, config, model, result directory or result echo prints
one line on stderr and exits with status 2; an error raised while an
experiment runs keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ConfigRefused,
    ExperimentConfig,
    OutputDirConflict,
    default_config,
    load_result_summary,
    run_experiment,
)

_SUBCOMMAND_TO_EXPERIMENT = {
    "validate": "riccati_validation",
    "exactness": "exactness",
    "stability": "stability",
    "convergence": "convergence",
    "chaos": "chaos",
}


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON experiment config (default: built-in)")
    sp.add_argument("--seed", type=int, help="override the master seed (u64)")
    sp.add_argument("--workers", type=int, help="trial workers (default 1)")
    sp.add_argument("--out", help="result directory (trials.csv, curves.csv, ...)")
    sp.add_argument(
        "--force", action="store_true",
        help="overwrite a result directory produced by a different config",
    )


def _build_config(args, experiment: str) -> ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.config:
        cfg = ExperimentConfig.from_file(args.config, **overrides)
        if cfg.name != experiment:
            print(f"config file is for experiment {cfg.name!r}, "
                  f"but the {experiment!r} subcommand was invoked", file=sys.stderr)
            raise SystemExit(2)
        return cfg
    return default_config(experiment, **overrides)


def _print_summary(name: str, metadata: dict, assertions, passed: bool, fits=()) -> None:
    """The summary that a run and ``report`` print: ``metadata`` is the
    run's metadata, ``assertions`` holds (name, passed, detail) triples."""
    print(f"experiment: {name}")
    print(f"config hash: {metadata.get('config_hash', '?')}")
    wall = metadata.get("wall_time_s")
    if wall is not None:
        print(f"wall time: {wall:.1f}s")
    for q, t, f in fits:
        print(
            f"  fit {q} at t={t:g}: slope {f.slope:+.3f}, r^2 {f.r_squared:.4f}"
        )
    for a_name, a_passed, detail in assertions:
        print(f"  [{'PASS' if a_passed else 'FAIL'}] {a_name}: {detail}")
    print("PASS" if passed else "FAIL")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enkbf-lab",
        description="Seeded experiments for linear-Gaussian ensemble filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, exp in _SUBCOMMAND_TO_EXPERIMENT.items():
        sp = sub.add_parser(cmd, help=f"run the {exp} experiment")
        _add_run_flags(sp)
    rp = sub.add_parser("report", help="summarize a saved result directory")
    rp.add_argument("--dir", required=True, help="result directory to read")

    args = parser.parse_args(argv)
    if args.command == "report":
        try:
            s = load_result_summary(args.dir)
            name, metadata, passed = s["config"]["name"], dict(s["metadata"]), s["passed"]
            assertions = [(a["name"], a["passed"], a["detail"]) for a in s["assertions"]]
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except (ValueError, LookupError, TypeError) as exc:
            print(f"{Path(args.dir) / 'config_echo.json'} is not a result echo: {exc!r}",
                  file=sys.stderr)
            return 2
        _print_summary(name, metadata, assertions, passed)
        return 0 if passed else 1

    try:
        cfg = _build_config(args, _SUBCOMMAND_TO_EXPERIMENT[args.command])
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        result = run_experiment(cfg, force=args.force)
    except (OutputDirConflict, ConfigRefused) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_summary(result.config.name, result.metadata,
                   [(a.name, a.passed, a.detail) for a in result.assertions],
                   result.passed, result.fits)
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
