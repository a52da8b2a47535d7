"""The comparison runs of `tools/compare_runs.py`: distinct valid configs
that cover every method, every ablation flag, the fixed threshold and the
benchmark's workloads; the checkpoint blocks it compares; and the two
accuracy readouts it prints."""

import ast
import importlib.util
import json
from pathlib import Path

import numpy as np

from fedalign.harness import ABLATION_FLAGS, METHODS, ExperimentConfig
from fedalign.model import MoEConfig, ModelParams, init_params, save_checkpoint

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


def write_metrics(path, accuracies):
    path.mkdir(parents=True, exist_ok=True)
    lines = [{"schema": "fedalign-metrics/1"}] + [{"global_accuracy": a} for a in accuracies]
    (path / "metrics.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))


def test_steady_accuracy_is_the_last_ten_rounds_mean(tmp_path):
    tool = load_tool()
    for rounds, want in ((12, 0.65), (5, 0.2)):
        write_metrics(tmp_path, [0.1 * t for t in range(rounds)])
        assert abs(tool.steady_accuracy(tmp_path / "metrics.jsonl") - want) < 1e-12


def test_readouts_are_medians_over_seeds(tmp_path):
    # Per seed (parent, change) final-round accuracies. Each 12-round run
    # climbs by 0.01 a round to its final value, so its last-10-round mean
    # is 0.045 below it.
    tool = load_tool()
    finals = [(0.68, 0.6475), (0.70, 0.70), (0.66, 0.69)]
    pairs = []
    for seed, finals_seed in enumerate(finals):
        pair = []
        for side, final in zip(("parent", "change"), finals_seed):
            out = tmp_path / side / f"run-seed{seed}"
            write_metrics(out, [final - 0.11 + 0.01 * t for t in range(12)])
            pair.append(out)
        pairs.append(tuple(pair))
    readouts = tool.accuracy_readouts({"run": pairs})
    final, steady = (readouts[label]["run"] for label in tool.READOUTS)
    np.testing.assert_allclose(final, (0.68, 0.69), rtol=0, atol=1e-12)
    np.testing.assert_allclose(steady, (0.68 - 0.045, 0.69 - 0.045), rtol=0, atol=1e-12)


def test_fields_split_the_checkpoint_into_its_blocks(tmp_path):
    # Pairwise-distinct dims, so a block read with another block's size or
    # a dim read from another header slot cannot match.
    config = MoEConfig(3, 4, 5, 2, 6, 7)
    params = init_params(config, np.random.default_rng(0))
    params.expert_b1[...] = 0.5
    params.expert_b2[...] = -0.25
    save_checkpoint(tmp_path / "final.ckpt", config, params)
    got = load_tool().fields(tmp_path / "final.ckpt")
    assert list(got) == list(ModelParams.BLOCKS)
    for b in ModelParams.BLOCKS:
        np.testing.assert_array_equal(got[b], getattr(params, b).ravel())
