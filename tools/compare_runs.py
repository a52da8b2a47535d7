"""Compare two checkouts' output files on the 33 comparison runs.

    python3 tools/compare_runs.py PARENT_TREE CHANGE_TREE [--work DIR]

The runs are the three benchmark workloads (`perfbench/run.py`'s
`WORKLOADS`) at seeds 3-5, then, at 5 rounds and seeds 3-5: FedProx, each
ablation flag, `fixed_tau` 0.5, and S = 8 experts with k = 3. Each run is
`python -m fedalign.cli run` in its own subprocess with one OpenBLAS thread,
importing the package from TREE/src. Each output file is compared byte for
byte; for a file that differs, the largest absolute move of each field is
printed. Then, for each workload or variant, the median over its seeds of
each run's last-10-round mean accuracy is printed for both trees, so that a
final-accuracy move can be read against the round-to-round swing. Exit 0
when every file of every run is byte-identical, 1 otherwise.
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
ABLATION_FLAGS = (
    "no_consistency_weighting",
    "no_adaptive_alpha",
    "no_direction_consensus",
    "no_gating_broadcast",
    "uniform_gamma",
)
VARIANTS = {
    "fedprox": {"method": "fedprox"},
    **{flag: {"ablations": [flag]} for flag in ABLATION_FLAGS},
    "fixed_tau": {"fixed_tau": 0.5},
    "s8-k3": {"num_experts": 8, "top_k": 3},
}
CKPT_BLOCKS = ("embed", "gate", "expert_w1", "expert_b1", "expert_w2", "expert_b2", "head")


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
    lines, a CSV column, or a checkpoint block."""
    if path.suffix == ".ckpt":
        raw = path.read_bytes()
        d, h, s, _, c, e = np.frombuffer(raw, "<u4", 6, 8)
        sizes = (d * h, h * s, s * h * e, s * e, s * e * h, s * h, h * c)
        body = np.frombuffer(raw, "<f8", offset=32)
        return dict(zip(CKPT_BLOCKS, np.split(body, np.cumsum(sizes)[:-1])))
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        return {f: np.array([float(r[i]) for r in rows]) for i, f in enumerate(header)}
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    keys = sorted({k for line in lines for k in line})
    return {k: np.hstack([np.ravel(line[k]) for line in lines if k in line]) for k in keys}


def steady_accuracy(metrics: Path) -> float:
    """Mean global accuracy over a run's last 10 rounds (all of a shorter
    run's rounds), read from its `metrics.jsonl`."""
    records = [json.loads(line) for line in metrics.read_text().splitlines()[1:]]
    return float(np.mean([r["global_accuracy"] for r in records[-10:]]))


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
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        differ, steady = 0, {}
        for name, cfg in comparison_runs():
            old, new = work / "parent" / name, work / "change" / name
            run(args.parent, cfg, old)
            run(args.change, cfg, new)
            pair = [steady_accuracy(out / "metrics.jsonl") for out in (old, new)]
            steady.setdefault(name.rsplit("-seed", 1)[0], []).append(pair)
            for f in OUTPUT_FILES:
                a, b = old / f, new / f
                same = a.read_bytes() == b.read_bytes()
                differ += not same
                print(f"cmp {name} {f}: {'identical' if same else 'DIFFERS'}")
                if not same:
                    for field, move in moves(a, b).items():
                        print(f"    {field}: {move}")
    print("last-10-round mean accuracy, median over seeds: parent -> change")
    for group, values in steady.items():
        parent, change = np.median(values, axis=0)
        print(f"    {group}: {parent:.4f} -> {change:.4f} ({change - parent:+.4f})")
    total = len(comparison_runs()) * len(OUTPUT_FILES)
    print(f"{total - differ}/{total} files byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
