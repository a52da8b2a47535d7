"""The benchmark's traced run holds on the package.

`perfbench/tracing.py` replaces package functions by name and tells
`backward`'s two spans apart by its fourth positional argument, `lam`; its
`AggregationCheck` in `perfbench/checks.py` recomputes each round's
aggregate from the start parameters and updates that `local_round` sees.
A rename under `src/`, or an aggregation that writes the global model in
place, would otherwise break `perfbench/run.py --trace 1` only when the
benchmark runs; here it fails the suite. Both modules are loaded from their
files and only read.
"""

import importlib
import importlib.util
import inspect
from dataclasses import asdict
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_backward_lam_is_fourth_positional():
    from fedalign.model import backward

    params = list(inspect.signature(backward).parameters.values())
    assert params[3].name == "lam"
    assert params[3].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


@pytest.mark.parametrize("method", ["fedalign", "fedavg", "fedprox"])
def test_traced_run_passes_aggregation_check(tracing, checks, method):
    from fedalign import baselines, cli, client, harness, model, server

    cfg = harness.ExperimentConfig(
        method=method, rounds=3, num_clients=4, samples_per_class=30, dirichlet_alpha=1.0
    )
    agg = checks.AggregationCheck(asdict(cfg))
    tracer = tracing.Tracer(
        {"harness": harness, "model": model, "client": client, "server": server,
         "baselines": baselines, "cli": cli},
        observers={
            "client.local_round": agg.on_local_round,
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
