"""The comparison runs of `tools/compare_runs.py`: distinct valid configs
that cover every method, every ablation flag, the fixed threshold and the
benchmark's workloads; and the last-10-round accuracy it prints."""

import ast
import importlib.util
import json
from pathlib import Path

from fedalign.harness import ABLATION_FLAGS, METHODS, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "tools/compare_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def config(fields):
    return ExperimentConfig(**{**fields, "ablations": tuple(fields.get("ablations", ()))})


def test_runs_are_33_distinct_valid_configs():
    runs = load_tool().comparison_runs()
    configs = [config(fields) for _, fields in runs]
    assert len(runs) == 33
    assert len({name for name, _ in runs}) == 33 and len(set(configs)) == 33
    assert all(cfg.validate() == [] for cfg in configs)
    assert {cfg.method for cfg in configs} == set(METHODS)
    assert {flag for cfg in configs for flag in cfg.ablations} == set(ABLATION_FLAGS)
    assert any(cfg.fixed_tau is not None for cfg in configs)


def test_workloads_are_the_benchmark_workloads():
    tree = ast.parse((ROOT / "perfbench/run.py").read_text())
    workloads = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WORKLOADS"
    )
    assert load_tool().WORKLOADS == workloads


def test_steady_accuracy_is_the_last_ten_rounds_mean(tmp_path):
    tool = load_tool()
    path = tmp_path / "metrics.jsonl"
    for rounds, want in ((12, 0.65), (5, 0.2)):
        lines = [{"schema": "fedalign-metrics/1"}]
        lines += [{"global_accuracy": 0.1 * t} for t in range(rounds)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert abs(tool.steady_accuracy(path) - want) < 1e-12
