"""Command-line entry point: `fedalign run --config cfg.json [overrides]`."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .harness import METHODS, ConfigError, ExperimentConfig, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedalign")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", help="JSON file with ExperimentConfig fields")
    run.add_argument("--seed", type=int, help="override the root seed")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--ablate", help="comma-separated ablation flags")
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError([f"config must be a JSON object, got {type(raw).__name__}"])
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError([f"unknown config field {k!r}" for k in unknown])
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.method is not None:
        raw["method"] = args.method
    if args.ablate:
        raw["ablations"] = tuple(f for f in args.ablate.split(",") if f)
    return ExperimentConfig(**raw)


def _fail(error: str, details, code: int) -> int:
    print(json.dumps({"error": error, "details": details}), file=sys.stderr)
    return code


def blocking_file(out) -> Path | None:
    """The file at `out` or at its nearest existing ancestor, which keeps
    `out` from becoming the output directory; None if there is none."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            return None if path.is_dir() else path
    return None


def main(argv=None) -> int:
    """Exit 0 on success, 2 on an invalid config (including data or a data
    partition the config cannot produce), an output path that a file
    blocks, or a run whose arrays do not fit in memory, 3 when training
    diverges."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (OSError, ValueError) as exc:  # ConfigError, bad JSON or encoding
        errors = exc.errors if isinstance(exc, ConfigError) else [str(exc)]
        return _fail("invalid-config", errors, 2)
    blocker = blocking_file(args.out)
    if blocker is not None:  # checked before training, not when writing
        return _fail("invalid-output", f"--out {args.out}: {blocker} is not a directory", 2)
    try:
        # A diverging run overflows in numpy before the explicit finiteness
        # checks raise; keep numpy's warnings off stderr so the error JSON is
        # its only line.
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(cfg, out_dir=args.out)
    except ConfigError as exc:
        return _fail("invalid-config", exc.errors, 2)
    except FloatingPointError as exc:
        return _fail("diverged", str(exc), 3)
    except MemoryError as exc:
        return _fail("out-of-memory", str(exc), 2)
    final = result.records[-1]
    print(
        json.dumps(
            {
                "method": cfg.method,
                "seed": cfg.seed,
                "rounds": cfg.rounds,
                "final_global_accuracy": final.global_accuracy,
                "out": str(args.out),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
