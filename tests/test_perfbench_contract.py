"""The names the benchmark's tracer patches exist on the package.

`perfbench/tracing.py` replaces package functions by name and tells
`backward`'s two spans apart by its fourth positional argument, `lam`. A
rename under `src/` would otherwise break `perfbench/run.py --trace 1`
only when the benchmark runs; here it fails the suite. The tracing module
is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
