"""Single-line mutants of the package against the Tier-1 suite.

    python3 tools/mutants.py [--only NAME ...]

Each mutant replaces text on one line of a module under `src/fedalign/`.
The checkout is copied once to a temporary directory (without `.git`); for
each mutant the edit is applied to the copy, the suite runs there in two
passes, and the file is restored:

1. The exact tests: every test file except `tests/test_acceptance.py` and
   `tests/test_mutants.py`, less the accuracy orderings of
   `ACCURACY_GATES`, with `-x`. A failure is an exact kill, and the first
   failing test is printed.
2. Only if pass 1 passes, the acceptance gate: `tests/test_acceptance.py`
   and the accuracy orderings, without `-x`. Every failing test is printed.
   A mutant that fails only tests of `ACCURACY_GATES` is marked as killed by
   an accuracy gate alone; a move of a point or two there is inside the
   round-to-round swing.

A mutant is `survived` when both passes pass, and any survivor makes the
exit status 1. A mutant whose text is not on exactly one line of its file
exits 2: the list has to follow the code. Run it on a checkout whose Tier-1
suite passes, or every mutant reads as killed. The results print as the
rows of a Markdown table. Each mutant takes about a minute on 2 CPUs.
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
PYTEST = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# Tests that compare methods' accuracies or routing trends at a fixed seed,
# as pytest node id prefixes.
ACCURACY_GATES = (
    "tests/test_acceptance.py::test_criterion_6_directional_non_iid",
    "tests/test_acceptance.py::test_criterion_7_heterogeneity_robustness",
    "tests/test_acceptance.py::test_criterion_8_aggregation_degrades_routing",
    "tests/test_harness.py::TestDirectionalProperties",
)
# Pass 1 leaves out the acceptance gate, the accuracy orderings and the test
# that checks this list against the source, which every mutant changes on
# purpose.
OTHER_GATES = [g for g in ACCURACY_GATES if not g.startswith("tests/test_acceptance.py")]
EXACT = [
    *PYTEST, "-x", "--ignore=tests/test_acceptance.py", "--ignore=tests/test_mutants.py",
    *(f"--deselect={gate}" for gate in OTHER_GATES),
]
GATE = [*PYTEST, "tests/test_acceptance.py", *OTHER_GATES]


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/fedalign/
    old: str  # text found on exactly one line of the module
    new: str


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
        "omega-without-margin", "server.py",
        "_normalize(p_bar * margin, axis=0)", "_normalize(p_bar, axis=0)",
    ),
    # A config option's check is its declaration.
    Mutant("lr-unbounded", "harness.py", "lr: Positive = 0.2", "lr: float = 0.2"),
    # A round's record holds every client's row of every upload.
    Mutant(
        "uploads-row-0", "client.py",
        "getattr(self, name)[idx] = getattr(rows, name)",
        "getattr(self, name)[0] = getattr(rows, name)",
    ),
    # FedProx pulls toward the model the client starts from.
    Mutant(
        "prox-without-anchor", "client.py",
        "prox_mu * (theta - params_in.flat)", "prox_mu * theta",
    ),
]


def mutate(text: str, m: Mutant) -> str:
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if m.old in line]
    if len(hits) != 1:
        raise LookupError(f"{m.name}: {m.old!r} is on {len(hits)} lines of {m.module}, not 1")
    lines[hits[0]] = lines[hits[0]].replace(m.old, m.new)
    return "".join(lines)


def run_suite(tree: Path, args: list[str]) -> list[str]:
    """The node ids of the failing tests, or the suite's last line when it
    fails without naming one; empty when it passes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True, timeout=1800
    )
    if proc.returncode == 0:
        return []
    out = proc.stdout.splitlines()
    failed = [line.split()[1] for line in out if re.match(r"(FAILED|ERROR) ", line)]
    return failed or [(out[-1] if out else proc.stderr.strip())[:160]]


def verdict(tree: Path) -> tuple[str, list[str]]:
    """(result, killing tests) of the mutant applied to the tree."""
    failed = run_suite(tree, EXACT)
    if failed:
        return "killed, exact", failed
    failed = run_suite(tree, GATE)
    if not failed:
        return "survived", []
    if all(f.startswith(ACCURACY_GATES) for f in failed):
        return "killed, accuracy gate only", failed
    return "killed, exact", failed


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

    survivors = 0
    print("| mutant | result | killed by |\n|---|---|---|", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_out")
        shutil.copytree(ROOT, tree, ignore=ignore)
        for m in mutants:
            path = tree / "src" / "fedalign" / m.module
            original = path.read_text()
            path.write_text(mutate(original, m))
            try:
                result, failed = verdict(tree)
            finally:
                path.write_text(original)
            survivors += result == "survived"
            killers = ", ".join(f"`{f}`" for f in failed)
            print(f"| {m.name} | {result} | {killers} |", flush=True)
    print(f"{len(mutants)} mutants, {survivors} survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
