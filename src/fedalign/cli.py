"""Command-line entry point: `fedalign run --config cfg.json [overrides]`."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import ConfigError, ExperimentConfig, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedalign")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", help="JSON file with ExperimentConfig fields")
    run.add_argument("--seed", type=int, help="override the root seed")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--method", choices=("fedalign", "fedavg", "fedprox"))
    run.add_argument("--ablate", help="comma-separated ablation flags")
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError([f"unknown config field {k!r}" for k in unknown])
    if "ablations" in raw:
        raw["ablations"] = tuple(raw["ablations"])
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


def main(argv=None) -> int:
    """Exit 0 on success, 2 on an invalid config (including a data partition
    the config cannot produce), 3 when training diverges."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        errors = exc.errors if isinstance(exc, ConfigError) else [str(exc)]
        return _fail("invalid-config", errors, 2)
    try:
        result = run_experiment(cfg, out_dir=args.out)
    except ConfigError as exc:
        return _fail("invalid-config", exc.errors, 2)
    except FloatingPointError as exc:
        return _fail("diverged", str(exc), 3)
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
