"""Compare two checkouts' output files on the 33 comparison runs.

    python3 tools/compare_runs.py PARENT_TREE CHANGE_TREE [--work DIR]

The runs are the three benchmark workloads (`perfbench/run.py`'s
`WORKLOADS`) at seeds 3-5, then, at 5 rounds and seeds 3-5: the seven rows
of `PAIRWISE`, each at k = 2 so that every method trains the gate, and
S = 8 experts with k = 3. Each run is
`python -m fedalign.cli run` in its own subprocess with one OpenBLAS thread,
importing the package from TREE/src. Each output file is compared byte for
byte; for a file that differs, the largest absolute move of each field is
printed. Checkpoints are split into blocks by the change tree's own
`fedalign.model.load_checkpoint`. Then, for each workload or variant, two
accuracy readouts are printed for both trees, each the median over its
seeds: each run's final-round global accuracy, the statistic perfbench
reports as `final_accuracy`, and each run's last-10-round mean accuracy,
so that a final-accuracy move can be read against the round-to-round
swing. Exit 0 when every file of every run is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

OUTPUT_FILES = ("metrics.jsonl", "summary.csv", "aggregation.jsonl", "final.ckpt")
SEEDS = (3, 4, 5)
WORKLOADS = {
    "fedalign-default": {"method": "fedalign"},
    "fedavg-default": {"method": "fedavg"},
    "fedalign-wide": {
        "method": "fedalign",
        "num_clients": 100,
        "num_experts": 16,
        "top_k": 2,
        "dirichlet_alpha": 0.3,
        "rounds": 8,
    },
}
METHODS = ("fedalign", "fedavg", "fedprox")
ABLATION_FLAGS = (
    "no_consistency_weighting",
    "no_adaptive_alpha",
    "no_direction_consensus",
    "no_gating_broadcast",
    "uniform_gamma",
)
FIXED_TAUS = (None, 0.5)
# A pairwise covering array (Cohen et al., "The AETG System", IEEE TSE
# 23(7), 1997; Kuhn, Kacker and Lei, NIST SP 800-142, 2010): for any two
# factors, every pair of their values is in some row. The factors are the
# method, each of ABLATION_FLAGS (1 where it is set) and fixed_tau.
PAIRWISE = (
    ("fedalign", 0, 0, 0, 0, 1, None),
    ("fedalign", 0, 0, 1, 1, 0, 0.5),
    ("fedalign", 1, 1, 0, 0, 0, 0.5),
    ("fedavg", 0, 0, 0, 0, 0, 0.5),
    ("fedavg", 1, 1, 1, 1, 1, None),
    ("fedprox", 0, 1, 0, 1, 1, 0.5),
    ("fedprox", 1, 0, 1, 0, 0, None),
)


def pairwise_config(row: tuple) -> dict:
    """The config fields of one `PAIRWISE` row, at top_k 2."""
    method, *flags, fixed_tau = row
    cfg = {"method": method, "top_k": 2,
           "ablations": [flag for flag, on in zip(ABLATION_FLAGS, flags) if on]}
    return cfg if fixed_tau is None else {**cfg, "fixed_tau": fixed_tau}


VARIANTS = {
    **{f"pairs{i}-{row[0]}": pairwise_config(row) for i, row in enumerate(PAIRWISE, 1)},
    "s8-k3": {"num_experts": 8, "top_k": 3},
}


def comparison_runs() -> list[tuple[str, dict]]:
    """(name, config fields) of every run, in the order they are compared."""
    runs = [(f"{w}-seed{s}", {**cfg, "seed": s}) for w, cfg in WORKLOADS.items() for s in SEEDS]
    runs += [
        (f"{v}-r5-seed{s}", {**cfg, "rounds": 5, "seed": s})
        for v, cfg in VARIANTS.items()
        for s in SEEDS
    ]
    return runs


def run(tree: Path, cfg: dict, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    cfg_file = out.parent / f"{out.name}.json"
    cfg_file.write_text(json.dumps(cfg))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fedalign.cli", "run", "--config", str(cfg_file), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {cfg}: exit {proc.returncode}: {proc.stderr.strip()}")


def fields(path: Path) -> dict[str, np.ndarray]:
    """Every field of an output file as a flat array: a JSON key across the
    lines, a CSV column, or a checkpoint block. The package is imported
    here, from the tree that `main` puts first on the path."""
    if path.suffix == ".ckpt":
        from fedalign.model import ModelParams, load_checkpoint

        _, params = load_checkpoint(path)
        return {b: getattr(params, b).ravel() for b in ModelParams.BLOCKS}
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        return {f: np.array([float(r[i]) for r in rows]) for i, f in enumerate(header)}
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    keys = sorted({k for line in lines for k in line})
    return {k: np.hstack([np.ravel(line[k]) for line in lines if k in line]) for k in keys}


def accuracies(metrics: Path) -> list[float]:
    """Each round's global accuracy, read from a run's `metrics.jsonl`."""
    records = [json.loads(line) for line in metrics.read_text().splitlines()[1:]]
    return [r["global_accuracy"] for r in records]


def final_accuracy(metrics: Path) -> float:
    """The final round's global accuracy."""
    return accuracies(metrics)[-1]


def steady_accuracy(metrics: Path) -> float:
    """Mean global accuracy over a run's last 10 rounds (all of a shorter
    run's rounds)."""
    return float(np.mean(accuracies(metrics)[-10:]))


READOUTS = {
    "final-round accuracy (perfbench's final_accuracy)": final_accuracy,
    "last-10-round mean accuracy": steady_accuracy,
}


def accuracy_readouts(outputs: dict[str, list[tuple[Path, Path]]]) -> dict[str, dict]:
    """For each readout and each group's (parent, change) output directories,
    one per seed: the median over the seeds, (parent, change)."""
    out = {}
    for label, read in READOUTS.items():
        out[label] = {}
        for group, pairs in outputs.items():
            values = [[read(d / "metrics.jsonl") for d in pair] for pair in pairs]
            out[label][group] = tuple(np.median(values, axis=0))
    return out


def moves(a: Path, b: Path) -> dict[str, str]:
    """Largest absolute move of each field between two versions of a file."""
    fa, fb = fields(a), fields(b)
    out = {}
    for k in sorted(set(fa) | set(fb)):
        if k not in fa or k not in fb or fa[k].shape != fb[k].shape:
            out[k] = "present or shaped differently"
        elif fa[k].tobytes() != fb[k].tobytes():
            numeric = fa[k].dtype.kind in "iuf"
            out[k] = f"{np.max(np.abs(fa[k] - fb[k])):.3g}" if numeric else "differs"
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--work", type=Path, help="output directory (default: a temporary one)")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.change.resolve() / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        differ, outputs = 0, {}
        for name, cfg in comparison_runs():
            old, new = work / "parent" / name, work / "change" / name
            run(args.parent, cfg, old)
            run(args.change, cfg, new)
            outputs.setdefault(name.rsplit("-seed", 1)[0], []).append((old, new))
            for f in OUTPUT_FILES:
                a, b = old / f, new / f
                same = a.read_bytes() == b.read_bytes()
                differ += not same
                print(f"cmp {name} {f}: {'identical' if same else 'DIFFERS'}")
                if not same:
                    for field, move in moves(a, b).items():
                        print(f"    {field}: {move}")
        readouts = accuracy_readouts(outputs)
    for label, groups in readouts.items():
        print(f"{label}, median over seeds: parent -> change")
        for group, (parent, change) in groups.items():
            print(f"    {group}: {parent:.4f} -> {change:.4f} ({change - parent:+.4f})")
    total = len(comparison_runs()) * len(OUTPUT_FILES)
    print(f"{total - differ}/{total} files byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
