"""Single-line mutants of the package against the Tier-1 suite.

    python3 tools/mutants.py [--only NAME ...]

Each mutant replaces text on one line of a module under `src/fedalign/`.
The checkout is copied once to a temporary directory (without `.git`); for
each mutant the edit is applied to the copy, the Tier-1 command runs there
with `-x` and without `tests/test_mutants.py`, and the file is restored. A
mutant is `killed` when the suite fails (the first failing test is
printed) and `survived` when it passes.

A survivor is expected only where the list explains why no test can tell
it from the original; any other survivor makes the exit status 1. A mutant
whose text is not on exactly one line of its file exits 2: the list has to
follow the code. Run it on a checkout whose Tier-1 suite passes, or every
mutant reads as killed. Each mutant takes about a minute on 2 CPUs.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fedalign"
# The Tier-1 command with -x, less the test that checks this list against
# the source, which every mutant changes on purpose.
TIER1 = [
    "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
    "--ignore=tests/test_mutants.py",
]


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/fedalign/
    old: str  # text found on exactly one line of the module
    new: str
    equivalent: str | None = None  # why the suite cannot kill it


MUTANTS = [
    # The round's wiring: which p_g, p_bar, gate and similarity each step reads.
    Mutant(
        "post-disagreement-old-p_g", "harness.py",
        "routing_disagreement_post=float(total_variation(post_p_bar, p_g)",
        "routing_disagreement_post=float(total_variation(post_p_bar, state.p_g)",
    ),
    Mutant(
        "divergence-from-tau", "harness.py",
        "np.mean(1.0 - report.mean_sim)", "np.mean(1.0 - report.tau)",
    ),
    Mutant(
        "gate-not-kept", "harness.py",
        "gates[i] = start.gate + res.param_delta.gate", "gates[i] = start.gate",
    ),
    Mutant(
        "alpha-from-post-p_bar", "harness.py",
        "return nxt, record, report", "return replace(nxt, prev_p_bar=post_p_bar), record, report",
    ),
    Mutant(
        "shard-routing-client-0", "harness.py",
        "client_start(cfg, state, i), shard.features",
        "client_start(cfg, state, 0), shard.features",
    ),
    # The model's layout: each weight's fan-in is its second-to-last axis.
    Mutant(
        "init-fan-in-last-axis", "model.py",
        "1.0 / np.sqrt(shape[-2])", "1.0 / np.sqrt(shape[-1])",
    ),
    # Killed before: kept as a regression list.
    Mutant(
        "alpha-eta-sign", "client.py",
        "np.float64) - eta)", "np.float64) + eta)",
    ),
    Mutant(
        "semantics-ignore-mu_empty", "server.py",
        "valid = ~mu_empty_e & (np.diagonal(d) > 0.0)", "valid = np.diagonal(d) > 0.0",
    ),
    Mutant(
        "half-dispersion", "server.py",
        "disp = np.sqrt(((sim - mean_sim) ** 2).mean())",
        "disp = 0.5 * np.sqrt(((sim - mean_sim) ** 2).mean())",
    ),
    Mutant(
        "abs-direction-consensus", "server.py",
        "gate = gate * np.maximum(0.0, dcons)", "gate = gate * np.abs(dcons)",
    ),
    Mutant(
        "alpha-without-mean-mass", "harness.py",
        "C.compute_alpha(state.prev_p_bar * state.prev_p_bar.mean(axis=0), cfg.eta)",
        "C.compute_alpha(state.prev_p_bar, cfg.eta)",
    ),
    Mutant(
        "kl-mask-without-p_g", "model.py",
        "mask[ref] = True", "pass",
    ),
    Mutant(
        "p_g-plain-mean", "server.py",
        "p_g = global_routing(p_bar, omega)",
        "p_g = p_bar.mean(axis=0) / p_bar.mean(axis=0).sum()",
    ),
    Mutant(
        "consistency-without-mean-mass", "server.py",
        "_normalize(p_bar * p_bar.mean(axis=0) * margin, axis=0)",
        "_normalize(p_bar * margin, axis=0)",
        equivalent="mean_p[e] is constant down expert e's column of omega, so the per-expert "
        "normalization divides it out (<= 3.3e-16 over 2,000 draws); it moves only the "
        "column sum tested against NORM_FLOOR (ROADMAP item 17)",
    ),
]


def mutate(text: str, m: Mutant) -> str:
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if m.old in line]
    if len(hits) != 1:
        raise LookupError(f"{m.name}: {m.old!r} is on {len(hits)} lines of {m.module}, not 1")
    lines[hits[0]] = lines[hits[0]].replace(m.old, m.new)
    return "".join(lines)


def run_suite(tree: Path) -> tuple[bool, str]:
    """(passed, first failing test or the suite's last line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True, timeout=1800
    )
    out = proc.stdout.splitlines()
    failed = next((line for line in out if re.match(r"(FAILED|ERROR) ", line)), None)
    return proc.returncode == 0, (failed or (out[-1] if out else proc.stderr.strip()))[:160]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = p.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    unknown = sorted(set(args.only or ()) - {m.name for m in MUTANTS})
    if unknown:
        p.error(f"unknown mutants: {unknown}")
    try:  # a stale list fails here, before any suite runs
        for m in mutants:
            mutate((SRC / m.module).read_text(), m)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    unexplained = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_out")
        shutil.copytree(ROOT, tree, ignore=ignore)
        for m in mutants:
            path = tree / "src" / "fedalign" / m.module
            original = path.read_text()
            path.write_text(mutate(original, m))
            try:
                passed, detail = run_suite(tree)
            finally:
                path.write_text(original)
            if not passed:
                print(f"killed    {m.name}: {detail}", flush=True)
            elif m.equivalent:
                print(f"survived  {m.name}: equivalent: {m.equivalent}", flush=True)
            else:
                unexplained += 1
                print(f"survived  {m.name}: NOT EXPLAINED", flush=True)
    print(f"{len(mutants)} mutants, {unexplained} unexplained survivors")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
