"""The mutant list of `tools/mutants.py` follows the code: each mutant's
text is on exactly one line of its module, and the edit still parses."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools/mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_one_line():
    tool = load_tool()
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    for m in tool.MUTANTS:
        original = (tool.SRC / m.module).read_text()
        mutated = tool.mutate(original, m)
        assert mutated != original, m.name
        ast.parse(mutated)
