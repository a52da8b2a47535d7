"""The benchmark's traced run holds on the package.

`perfbench/tracing.py` replaces package functions by name and tells
`backward`'s two spans apart by its keyword argument `lam`; its
per-layer numbers assume one traced `forward` and `backward` per SGD step.
Its `AggregationCheck` in `perfbench/checks.py` recomputes each round's
aggregate from the start parameters and updates that `local_round` sees.
A rename under `src/`, an aggregation that writes the global model in
place, or a round loop that hides its metrics calls from the tracer would
otherwise break `perfbench/run.py --trace 1` only when the benchmark runs;
here it fails the suite. Both modules are loaded from their
files and only read, and `perfbench/selftest.py` runs unchanged in its own
process, so a change that blinds one of the benchmark's checks fails here
too. A top-level function or class that neither the package nor the tracer
names is dead code, and fails here as well, as does a dataclass field that
nothing in the package reads.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedalign"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def checks():
    return load("checks")


def test_every_patch_resolves(tracing):
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(f"fedalign.{mod}"), attr, None))
    ]
    assert not missing, f"tracer patches names the package lacks: {missing}"


def test_every_definition_is_used(tracing):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {attr for _, attr, _ in tracing.PATCHES}
    # The checkpoint reader: nothing in the package reads a checkpoint back,
    # the tests round-trip `save_checkpoint` through it.
    used.add("load_checkpoint")
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [
        f"{name[:-3]}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    unused = [d for d in defined if d.split(".", 1)[1] not in used]
    assert not unused, f"defined under src/ but used by neither src/ nor the tracer: {unused}"


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _calls_asdict_self(cls):
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "asdict" and len(node.args) == 1
        and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
        for node in ast.walk(cls)
    )


def test_every_dataclass_field_is_read():
    # A field counts as read where an attribute load or a string constant
    # under src/ names it (`getattr(params, b)` over BLOCKS); a class whose
    # methods pass `asdict(self)` on reads all of its fields.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = [
        f"{name[:-3]}.{cls.name}.{stmt.target.id}"
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and any(_is_dataclass(d) for d in cls.decorator_list)
        and not _calls_asdict_self(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]
    assert not unread, f"dataclass fields that nothing under src/ reads: {unread}"


def test_backward_lam_is_keyword_only():
    # The tracer reads `lam` from the keywords and treats a missing one as 0,
    # so a positional `lam` would be misnamed; keyword-only makes it an error.
    from fedalign.model import backward

    lam = inspect.signature(backward).parameters["lam"]
    assert lam.kind is inspect.Parameter.KEYWORD_ONLY


@pytest.mark.parametrize("method", ["fedalign", "fedavg", "fedprox"])
def test_traced_run_passes_aggregation_check(tracing, checks, method):
    from fedalign import baselines, cli, client, harness, model, server

    cfg = harness.ExperimentConfig(
        method=method, rounds=3, num_clients=4, samples_per_class=30, dirichlet_alpha=1.0
    )
    agg = checks.AggregationCheck(asdict(cfg))
    shard_sizes = []

    def on_local_round(args, kwargs, res):
        shard_sizes.append(args[2].size)
        agg.on_local_round(args, kwargs, res)

    tracer = tracing.Tracer(
        {"harness": harness, "model": model, "client": client, "server": server,
         "baselines": baselines, "cli": cli},
        observers={
            "client.local_round": on_local_round,
            "server.expert_weights": agg.on_expert_weights,
        },
    )
    tracer.install()
    try:
        result = tracer.wrap(harness.run_experiment, tracing.RUN)(cfg)
    finally:
        tracer.uninstall()
    agg.finish(result.final_params)
    assert agg.rounds_checked == cfg.rounds
    assert tracer.calls["client.local_round"] == cfg.rounds * cfg.num_clients
    # The tracer names a forward called directly by run_experiment a metrics
    # forward and sums only such direct calls into the phases, so a patched
    # helper or a moved metrics call shows here.
    assert tracer.calls["harness.metrics_forward"] == cfg.num_clients * (cfg.rounds + 1)
    assert tracer.calls["harness.evaluate"] == cfg.rounds
    spans = tracer.metrics()
    assert all(spans[f"phase.{phase}.s"] > 0 for phase in tracing.PHASE_NAMES), spans
    # Every SGD step runs the traced backward, so a step that bypasses it
    # shows here: epochs * ceil(n_i / B) steps per client and round.
    steps = sum(cfg.local_epochs * -(-size // cfg.batch_size) for size in shard_sizes)
    assert tracer.calls["model.backward_ce"] + tracer.calls["model.backward_kl"] == steps
    if method == "fedalign":
        assert tracer.calls["model.backward_kl"] == steps
        assert tracer.calls["model.masked_kl"] > 0
    # One top-k per forward, the batch's dispatch set, and one per client
    # round, the reference set; the KL mask selects none of its own.
    forwards = tracer.calls["model.forward"] + tracer.calls["harness.metrics_forward"]
    assert tracer.calls["model.top_k_select"] == forwards + cfg.num_clients * cfg.rounds


def test_selftest_catches_every_corruption():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    caught = re.fullmatch(r"(\d+)/(\d+) corruptions caught.*", last)
    assert caught, last
    assert caught[1] == caught[2] and int(caught[2]) >= 21, last
