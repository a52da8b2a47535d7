"""Harness tests: config validation, seeded determinism, metrics emission,
the CLI, the directional round-loop properties and whole-run expert and
client relabeling."""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedalign
from helpers import apply_delta
from fedalign import client as C
from fedalign import model as M
from fedalign import harness
from fedalign import server as S
from fedalign.cli import main as cli_main
from fedalign.data import generate, make_default_task
from fedalign.harness import (
    ABLATION_FLAGS,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    child_rng,
    evaluate,
    run_experiment,
    write_outputs,
)

TINY = dict(
    input_dim=4, hidden_dim=6, num_experts=3, top_k=1, num_classes=3,
    expert_hidden=6, samples_per_class=30, test_samples_per_class=10,
    num_clients=3, rounds=2, local_epochs=1, noise_std=1.5,
)


# Every int and float option, read from the field declarations.
NUMERIC_OPTIONS = [
    f.name for f in dataclasses.fields(ExperimentConfig) if type(f.default) in (int, float)
]


def tiny_config(**kw):
    merged = dict(TINY)
    merged.update(kw)
    return ExperimentConfig(**merged)


def run_cli(tmp_path, cfg: dict, out: str = "out", **env) -> subprocess.CompletedProcess:
    """`fedalign run` on `cfg` in a fresh interpreter, importing this checkout."""
    cfg_file = tmp_path / f"{out}.json"
    cfg_file.write_text(json.dumps(cfg))
    src = str(Path(fedalign.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "fedalign.cli", "run", "--config", str(cfg_file),
         "--out", str(tmp_path / out)],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestConfigValidation:
    def test_default_is_valid(self):
        assert ExperimentConfig().validate() == []

    def test_collects_all_errors(self):
        cfg = ExperimentConfig(method="sgd", rounds=0, lr=-1.0, lam=-0.5,
                               ablations=("bogus",))
        errors = cfg.validate()
        joined = "\n".join(errors)
        assert len(errors) >= 5
        for frag in ("method", "rounds", "lr", "lam", "bogus"):
            assert frag in joined

    def test_fixed_tau_alone_selects_fixed_threshold(self):
        assert ExperimentConfig(fixed_tau=0.5).validate() == []
        errors = ExperimentConfig(ablations=("fixed_threshold",), fixed_tau=0.5).validate()
        assert errors == ["unknown ablation flag 'fixed_threshold'"]

    def test_model_shape_errors_propagate(self):
        cfg = ExperimentConfig(top_k=9, num_experts=4)
        assert any("top_k" in e for e in cfg.validate())

    def test_run_rejects_invalid(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(method="sgd"))

    @pytest.mark.parametrize("field, value", [
        ("rounds", 1.5), ("rounds", True), ("num_experts", "4"), ("seed", None),
        ("lr", "0.1"), ("lr", False), ("noise_std", math.nan), ("lam", math.inf),
        ("beta", 10**400), ("fixed_tau", math.nan), ("fixed_tau", "0.5"),
    ])
    def test_rejects_wrong_type_or_non_finite(self, field, value):
        errors = ExperimentConfig(**{field: value}).validate()
        assert len(errors) == 1 and errors[0].startswith(field), errors

    @pytest.mark.parametrize("value", ["1", True], ids=["str", "bool"])
    @pytest.mark.parametrize("field", NUMERIC_OPTIONS)
    def test_every_numeric_option_is_type_checked(self, field, value):
        # No option escapes the check by being left out of a list: the
        # field's declaration is all that validate() reads.
        errors = ExperimentConfig(**{field: value}).validate()
        assert len(errors) == 1 and errors[0].startswith(f"{field} must be"), errors

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 2**32), ("rounds", 10**400), ("num_experts", 2**32),
        ("batch_size", 2**40), ("num_clients", 8 * 200 + 1),
    ])
    def test_rejects_integers_out_of_range(self, field, value):
        errors = ExperimentConfig(**{field: value}).validate()
        assert len(errors) == 1 and errors[0].startswith(field), errors

    def test_accepts_seed_range_ends(self):
        for seed in (0, 2**32 - 1):
            assert ExperimentConfig(seed=seed).validate() == []

    def test_accepts_integers_for_floats(self):
        assert ExperimentConfig(lr=1, fixed_tau=0).validate() == []

    def test_accepts_one_client_per_sample(self):
        assert ExperimentConfig(num_clients=8 * 200).validate() == []

    def test_ablations_must_be_a_tuple(self):
        assert any("ablations" in e for e in ExperimentConfig(ablations="uniform_gamma").validate())

    def test_ablations_list_from_python_is_accepted(self):
        # A list becomes a tuple, as the CLI's JSON lists do; a string still
        # fails (above).
        cfg = ExperimentConfig(ablations=["uniform_gamma", "no_adaptive_alpha"])
        assert cfg.ablations == ("uniform_gamma", "no_adaptive_alpha")
        assert cfg.validate() == [] and hash(cfg) == hash(dataclasses.replace(cfg))

    def test_every_option_is_read(self):
        # An option the run never reads is dead: a config field must be read
        # as `cfg.<field>` or `self.<field>`, and an ablation flag as an
        # `ablated("<flag>")` constant, in harness.py outside `validate`,
        # which reads every field only to check it. The model dims are read
        # by name, as MODEL_FIELDS, into `model_config()`, which the walk
        # cannot see; each must arrive there with its own value.
        cfg = ExperimentConfig(input_dim=5, hidden_dim=7, num_experts=6, top_k=2,
                               num_classes=3, expert_hidden=9)
        dims = {name: getattr(cfg, name) for name in harness.MODEL_FIELDS}
        assert dataclasses.asdict(cfg.model_config()) == dims
        assert len(set(dims.values())) == len(dims)
        tree = ast.parse(Path(harness.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "validate":
                node.body = []
        attrs, flags = set(dims), set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("cfg", "self")):
                attrs.add(node.attr)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "ablated" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                flags.add(node.args[0].value)
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert "model_config" in attrs, "the model dims are never read"
        assert [f for f in fields if f not in attrs] == [], "fields harness.py never reads"
        assert [f for f in ABLATION_FLAGS if f not in flags] == [], "flags it never reads"


class TestChildRng:
    def test_deterministic(self):
        a = child_rng(7, "data").normal(size=4)
        b = child_rng(7, "data").normal(size=4)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = child_rng(7, "data").normal(size=4)
        b = child_rng(7, "task").normal(size=4)
        c = child_rng(8, "data").normal(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestEvaluate:
    def _toy(self, seed=0):
        cfg = tiny_config()
        mcfg = cfg.model_config()
        params = M.init_params(mcfg, np.random.default_rng(seed))
        task = make_default_task(3, 4, 60, 1e-6, np.random.default_rng(1))
        x, y = generate(task, np.random.default_rng(2))
        return mcfg, params, x, y

    def test_constant_predictor(self):
        mcfg, params, x, y = self._toy()
        # Zero head -> all logits 0 -> argmax ties to class 0 on every
        # sample; the balanced test set gives exactly 1/C.
        params.head[...] = 0.0
        assert abs(evaluate(mcfg, params, x, y) - 1.0 / 3.0) < 1e-12

    def test_trained_on_noiseless_task_is_perfect(self):
        mcfg, params, x, y = self._toy()
        from fedalign.client import RegContext, local_round
        from fedalign.data import ClientDataset

        shard = ClientDataset(x, y)
        ctx = RegContext(np.full(3, 1 / 3), 0.0, np.ones(3), mcfg.top_k)
        res = local_round(mcfg, params, shard, ctx, epochs=20, lr=0.2,
                          rng=np.random.default_rng(0))
        assert evaluate(mcfg, apply_delta(params, res.param_delta), x, y) == 1.0

    def test_untrained_model_near_chance(self):
        cfg = ExperimentConfig()
        mcfg = cfg.model_config()
        task = make_default_task(8, 16, 50, cfg.noise_std, np.random.default_rng(3))
        x, y = generate(task, np.random.default_rng(4))
        accs = [
            evaluate(mcfg, M.init_params(mcfg, np.random.default_rng(s)), x, y)
            for s in range(10)
        ]
        sigma = np.sqrt(0.125 * 0.875 / x.shape[0])
        assert abs(np.mean(accs) - 0.125) < 3 * sigma


class TestRoundLoop:
    def test_single_client_single_round(self):
        cfg = tiny_config(num_clients=1, rounds=1, lam=0.0, method="fedalign")
        result = run_experiment(cfg)
        data, state = harness.setup(cfg)
        init = state.global_params
        ctx = C.RegContext(state.p_g, 0.0, np.ones(cfg.num_experts), cfg.top_k)
        res = C.local_round(
            data.model_config, init, data.shards[0], ctx, epochs=cfg.local_epochs, lr=cfg.lr,
            rng=child_rng(cfg.seed, "client", 0, "round", 1), batch_size=cfg.batch_size,
        )
        # Lone client: every expert update and every shared block equals the
        # client's own delta (self-consensus), so final = init + delta.
        for b in M.ModelParams.BLOCKS:
            np.testing.assert_allclose(
                getattr(result.final_params, b),
                getattr(init, b) + getattr(res.param_delta, b),
                atol=1e-9,
            )

    def test_records_shape(self):
        cfg = tiny_config(rounds=3)
        result = run_experiment(cfg)
        assert [r.round_index for r in result.records] == [1, 2, 3]
        for r in result.records:
            assert 0.0 <= r.global_accuracy <= 1.0
            assert 0.0 <= r.local_accuracy_mean <= 1.0

    def test_fixed_tau_written_for_every_expert_and_round(self, tmp_path):
        cfg = tiny_config(rounds=3, fixed_tau=0.25)
        run_experiment(cfg, out_dir=tmp_path)
        reports = [json.loads(line) for line in
                   (tmp_path / "aggregation.jsonl").read_text().splitlines()]
        assert [r["round"] for r in reports] == [1, 2, 3]
        assert all(r["tau"] == [0.25] * cfg.num_experts for r in reports)

    def test_determinism_byte_identical_metrics(self, tmp_path):
        cfg = tiny_config(rounds=3)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/metrics.jsonl").read_bytes() == \
            (tmp_path / "b/metrics.jsonl").read_bytes()
        assert (tmp_path / "a/final.ckpt").read_bytes() == \
            (tmp_path / "b/final.ckpt").read_bytes()


def two_rounds(ablations):
    """`setup`, then rounds 1 and 2 through `run_round` on a 4-client config:
    the config, the data and each round's (t, start state, next state,
    record, report)."""
    cfg = tiny_config(num_clients=4, rounds=2, ablations=ablations)
    data, state = harness.setup(cfg)
    rounds = []
    for t in (1, 2):
        nxt, record, report = harness.run_round(cfg, data, state, t)
        rounds.append((t, state, nxt, record, report))
        state = nxt
    return cfg, data, rounds


@pytest.mark.parametrize("ablations", [(), ("no_gating_broadcast",)], ids=["broadcast", "own-gate"])
class TestRunRound:
    """The round's wiring: each record field that joins two components is
    recomputed from what `run_round` returns and must agree bit for bit."""

    def test_disagreement_post_is_against_the_new_p_g(self, ablations):
        cfg, data, rounds = two_rounds(ablations)
        for _, _, nxt, record, _ in rounds:
            post_p_bar, _ = harness.shard_routing(cfg, data, nxt)
            tv = harness.total_variation(post_p_bar, nxt.p_g)
            assert record.routing_disagreement_post == float(tv.mean())

    def test_disagreement_pre_is_the_uploads_against_the_new_p_g(self, ablations):
        _, _, rounds = two_rounds(ablations)
        for _, _, nxt, record, _ in rounds:
            tv = harness.total_variation(nxt.prev_p_bar, nxt.p_g)
            assert record.routing_disagreement_pre == float(tv.mean())

    def test_semantic_divergence_averages_mean_sim(self, ablations):
        _, _, rounds = two_rounds(ablations)
        for _, _, _, record, report in rounds:
            assert record.expert_semantic_divergence == float(np.mean(1.0 - report.mean_sim))

    def test_each_client_keeps_its_trained_gate(self, ablations):
        # The returned gates are read only under no_gating_broadcast, where
        # each client starts the next round from its own.
        cfg, data, rounds = two_rounds(ablations)
        for t, state, nxt, _, _ in rounds:
            alpha = C.compute_alpha(state.prev_p_bar * state.prev_p_bar.mean(axis=0), cfg.eta)
            for i, shard in enumerate(data.shards):
                start = harness.client_start(cfg, state, i)
                ctx = C.RegContext(state.p_g, cfg.lam, alpha[i], cfg.top_k)
                res = C.local_round(
                    data.model_config, start, shard, ctx, epochs=cfg.local_epochs, lr=cfg.lr,
                    rng=child_rng(cfg.seed, "client", i, "round", t), batch_size=cfg.batch_size,
                )
                assert np.any(res.param_delta.gate != 0.0)
                assert np.array_equal(nxt.gates[i], start.gate + res.param_delta.gate)
                if cfg.ablated("no_gating_broadcast"):
                    assert np.array_equal(harness.client_start(cfg, nxt, i).gate, nxt.gates[i])

    def test_round_is_a_function_of_its_inputs(self, ablations):
        cfg, data, rounds = two_rounds(ablations)
        _, state, nxt, record, report = rounds[-1]
        inputs = (state.global_params.flat, state.gates, state.p_g, state.prev_p_bar,
                  data.size_weights)
        before = [a.copy() for a in inputs]
        again, record2, report2 = harness.run_round(cfg, data, state, 2)
        assert all(np.array_equal(a, b) for a, b in zip(before, inputs))
        assert record2 == record and report2.to_json_record() == report.to_json_record()
        assert np.array_equal(again.global_params.flat, nxt.global_params.flat)


def test_fedprox_own_gate_round_reads_no_global_gate():
    # Under no_gating_broadcast no client is sent the global gate, and
    # FedProx anchors at the model each client starts from, so shifting
    # the global gate moves no trained gate and no local accuracy.
    cfg = tiny_config(num_clients=4, method="fedprox", prox_mu=0.5,
                      ablations=("no_gating_broadcast",))
    data, state = harness.setup(cfg)
    g = state.global_params
    shifted = dataclasses.replace(state, global_params=dataclasses.replace(g, gate=g.gate + 1.0))
    nxt, record, _ = harness.run_round(cfg, data, state, 1)
    moved, moved_record, _ = harness.run_round(cfg, data, shifted, 1)
    assert not np.array_equal(moved.global_params.gate, nxt.global_params.gate)
    assert np.array_equal(moved.gates, nxt.gates)
    assert moved_record.local_accuracy_mean == record.local_accuracy_mean
    assert moved_record.local_accuracy_std == record.local_accuracy_std


def whole_run(cfg):
    """Every round of `cfg` from `setup` as (start state, next state,
    record, report), or the `ConfigError` or `FloatingPointError` raised.
    Overflow warnings are off, as in `cli.main`."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            data, state = harness.setup(cfg)
            rounds = []
            for t in range(1, cfg.rounds + 1):
                nxt, record, report = harness.run_round(cfg, data, state, t)
                rounds.append((state, nxt, record, report))
                state = nxt
        return rounds
    except (ConfigError, FloatingPointError) as exc:
        return exc


class TestWholeRunProperties:
    """Whole runs over small valid configs, with N = 1, S = 1, k = S, B = 1
    and one-row shards among them: a run ends or raises `ConfigError` or
    `FloatingPointError`, twice the same; omega's columns and p_g are
    distributions; a not-updated expert keeps its bytes; tau is
    M - beta * Sigma unless fixed; every record field is finite.

    A not-updated expert's weights are all 0, so it keeps its bytes with or
    without `aggregate_experts`' freeze: these runs cannot see the freeze,
    `TestExpertAggregation::test_skipped_expert_frozen` tests it."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(harness.METHODS),
        ablations=st.lists(st.sampled_from(ABLATION_FLAGS), unique=True),
        fixed_tau=st.none() | st.floats(-1.0, 1.0),
        n=st.integers(1, 6),
        s=st.integers(1, 5),
        k_frac=st.floats(0.0, 1.0),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        classes=st.integers(1, 3),
        per_class=st.integers(1, 8),
        batch_size=st.integers(1, 20),
        epochs=st.integers(1, 2),
        rounds=st.integers(1, 3),
        rates=st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        beta=st.floats(0.0, 2.0),
        alpha=st.sampled_from([0.3, 1.0, 10.0]),
    )
    # One client and one expert; k = S with one-row batches; shards of 1, 1
    # and 2 rows; and a step size that diverges in round 1.
    @example(seed=0, method="fedalign", ablations=(), fixed_tau=None, n=1, s=1, k_frac=0.0,
             dims=(2, 2, 2), classes=2, per_class=3, batch_size=32, epochs=1, rounds=2,
             rates=(0.2, 0.1, 0.01), beta=0.5, alpha=1.0)
    @example(seed=1, method="fedprox", ablations=("no_gating_broadcast",), fixed_tau=None,
             n=3, s=3, k_frac=1.0, dims=(2, 3, 2), classes=2, per_class=4, batch_size=1,
             epochs=1, rounds=2, rates=(0.2, 0.0, 0.5), beta=0.5, alpha=1.0)
    @example(seed=2, method="fedalign", ablations=(), fixed_tau=0.5, n=3, s=2, k_frac=0.5,
             dims=(2, 2, 2), classes=2, per_class=2, batch_size=2, epochs=2, rounds=2,
             rates=(0.5, 0.3, 0.01), beta=1.0, alpha=1.0)
    @example(seed=4, method="fedalign", ablations=(), fixed_tau=None, n=2, s=2, k_frac=0.0,
             dims=(2, 2, 2), classes=2, per_class=3, batch_size=2, epochs=2, rounds=2,
             rates=(1e150, 0.1, 0.01), beta=0.5, alpha=1.0)
    def test_run_holds_its_invariants(self, seed, method, ablations, fixed_tau, n, s, k_frac,
                                      dims, classes, per_class, batch_size, epochs, rounds,
                                      rates, beta, alpha):
        cfg = ExperimentConfig(
            method=method, input_dim=dims[0], hidden_dim=dims[1], num_experts=s,
            top_k=1 + min(s - 1, int(k_frac * s)), num_classes=classes,
            expert_hidden=dims[2], samples_per_class=per_class, test_samples_per_class=2,
            num_clients=n, rounds=rounds, local_epochs=epochs, lr=rates[0],
            batch_size=batch_size, dirichlet_alpha=alpha, lam=rates[1], prox_mu=rates[2],
            beta=beta, seed=seed, ablations=ablations, fixed_tau=fixed_tau,
        )
        first, again = whole_run(cfg), whole_run(cfg)
        if isinstance(first, Exception):
            assert type(again) is type(first) and str(again) == str(first)
            return
        semantic = method == "fedalign" and not cfg.ablated("uniform_gamma")
        for (state, nxt, record, report), (_, nxt2, record2, report2) in zip(first, again):
            assert record.to_json() == record2.to_json()
            assert report.to_json_record() == report2.to_json_record()
            for a, b in ((nxt.global_params.flat, nxt2.global_params.flat),
                         (nxt.gates, nxt2.gates), (nxt.p_g, nxt2.p_g),
                         (nxt.prev_p_bar, nxt2.prev_p_bar)):
                assert a.tobytes() == b.tobytes()

            assert np.all(np.abs(report.omega.sum(axis=0) - 1.0) <= 1e-12)
            assert np.all(nxt.p_g >= 0.0) and abs(nxt.p_g.sum() - 1.0) <= 1e-12
            updated = S.expert_weights(report.gamma_row_sums)[1] if semantic else np.ones(s, bool)
            for b in M.EXPERT_BLOCKS:
                old, new = getattr(state.global_params, b), getattr(nxt.global_params, b)
                assert new[~updated].tobytes() == old[~updated].tobytes(), b
            if fixed_tau is None:
                assert np.array_equal(report.tau, report.mean_sim - beta * report.dispersion)
            else:
                assert np.all(report.tau == fixed_tau)
            assert all(math.isfinite(v) for v in dataclasses.asdict(record).values())


class TestEmitMetrics:
    def test_empty_records_header_only(self, tmp_path):
        cfg = tiny_config()
        params = M.init_params(cfg.model_config(), np.random.default_rng(0))
        write_outputs(ExperimentResult(cfg, [], params, []), tmp_path)
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["schema"].startswith("fedalign-metrics/")
        csv_lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(csv_lines) == 1

    def test_line_count(self, tmp_path):
        cfg = tiny_config(rounds=4)
        result = run_experiment(cfg)
        write_outputs(result, tmp_path)
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 5
        header = json.loads(lines[0])
        assert header["initial_disagreement"] == result.initial_disagreement

    def test_reemit_identical(self, tmp_path):
        cfg = tiny_config(rounds=2)
        result = run_experiment(cfg)
        write_outputs(result, tmp_path / "a")
        write_outputs(result, tmp_path / "b")
        assert (tmp_path / "a/metrics.jsonl").read_bytes() == \
            (tmp_path / "b/metrics.jsonl").read_bytes()
        assert (tmp_path / "a/summary.csv").read_bytes() == \
            (tmp_path / "b/summary.csv").read_bytes()


class TestCli:
    def test_valid_run(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(TINY))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["method"] == "fedalign"
        assert (tmp_path / "out/metrics.jsonl").exists()
        assert (tmp_path / "out/summary.csv").exists()
        assert (tmp_path / "out/final.ckpt").exists()

    def test_single_expert_exit_0(self, tmp_path, capsys):
        # One expert: the top-1 margin has no runner-up to measure against.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "num_experts": 1, "top_k": 1, "rounds": 1, "samples_per_class": 20,
            "num_clients": 2, "dirichlet_alpha": 1.0,
        }))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["rounds"] == 1

    def test_invalid_method_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(TINY, method="sgd")))
        code = cli_main(["run", "--config", str(cfg_file)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
        assert any("method" in d for d in err["details"])

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(TINY, learning_rate=0.1)))
        code = cli_main(["run", "--config", str(cfg_file)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert any("learning_rate" in d for d in err["details"])

    def test_ablate_fixed_threshold_is_unknown_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(TINY, fixed_tau=0.5)))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                         "--ablate", "fixed_threshold"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid-config",
                       "details": ["unknown ablation flag 'fixed_threshold'"]}
        assert not (tmp_path / "out").exists()

    def test_overrides(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(TINY))
        code = cli_main([
            "run", "--config", str(cfg_file), "--seed", "3",
            "--method", "fedavg", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 3 and summary["method"] == "fedavg"

    def test_infeasible_partition_exit_2(self, tmp_path, capsys):
        # 60 clients cannot all receive data from 90 samples at alpha 0.01.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(TINY, num_clients=60, dirichlet_alpha=0.01)))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
        assert any("60 clients" in d and "100 draws" in d for d in err["details"])

    def test_divergence_exit_3(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        # The first SGD step sends the parameters to ~1e299; the next
        # forward pass overflows.
        cfg_file.write_text(json.dumps(dict(TINY, lr=1e300)))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "diverged"
        assert "round 1, client 0" in err["details"]

    def test_divergence_in_update_names_block(self, tmp_path, capsys):
        # Inputs of scale 1e6 give gradients far above 1, so the first
        # update at lr=1e308 overflows the parameters before any forward
        # pass sees them; the parameter check names the first bad block.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(TINY, lr=1e308, mean_scale=1e6, noise_std=1e6)))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "diverged"
        assert err["details"] == "round 1, client 0: non-finite entries in parameter block 'embed'"

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # A run whose arrays do not fit is simulated: nothing is allocated.
        def exhausted(cfg, out_dir=None):
            raise MemoryError("Unable to allocate 64.0 TiB for an array")

        monkeypatch.setattr("fedalign.cli.run_experiment", exhausted)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(TINY))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "out-of-memory", "details": "Unable to allocate 64.0 TiB for an array"
        }

    @pytest.mark.parametrize("out", ["taken", "taken/sub/out"])
    def test_output_path_blocked_by_file_exit_2(self, tmp_path, capsys, monkeypatch, out):
        # The path is checked before training: a run would only fail when
        # it writes its outputs at the end.
        def unreachable(cfg, out_dir=None):
            pytest.fail("run_experiment started although --out cannot be a directory")

        monkeypatch.setattr("fedalign.cli.run_experiment", unreachable)
        (tmp_path / "taken").write_text("a file")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(TINY))
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "invalid-output",
            "details": f"--out {tmp_path / out}: {tmp_path / 'taken'} is not a directory",
        }

    # lr=1e300 overflows in a matmul, lr=50 in a reduction; numpy would warn
    # about either on stderr ahead of the JSON.
    @pytest.mark.parametrize("cfg", [dict(TINY, lr=1e300), {"lr": 50, "rounds": 3}])
    def test_divergence_stderr_is_one_json_line(self, tmp_path, cfg):
        proc = run_cli(tmp_path, cfg)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "diverged"

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # The first config is wide enough (2000-row evaluation batches) for
        # OpenBLAS to split its matrix products across threads; the second
        # has the 100 clients of the benchmark's wide workload, so the
        # server's (N, P) cosine products are split too.
        configs = {
            "wide-batches": dict(TINY, input_dim=16, hidden_dim=32, num_experts=4,
                                 num_classes=8, samples_per_class=100,
                                 test_samples_per_class=250, rounds=2),
            "100-clients": dict(num_clients=100, num_experts=16, top_k=2,
                                dirichlet_alpha=0.3, rounds=2, seed=1),
        }
        for name, cfg in configs.items():
            outputs = []
            for n in sorted({1, min(os.cpu_count() or 1, 4)}):
                out = f"{name}-threads{n}"
                proc = run_cli(tmp_path, cfg, out=out, OPENBLAS_NUM_THREADS=str(n))
                assert proc.returncode == 0, proc.stderr
                outputs.append([
                    (tmp_path / out / f).read_bytes()
                    for f in ("metrics.jsonl", "summary.csv", "aggregation.jsonl", "final.ckpt")
                ])
            assert all(files == outputs[0] for files in outputs), name


CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
# Wrong types, and non-finite or out-of-range numbers. Integers from 2**32
# up are out of range for every integer field; below that a large integer
# is a valid size or round count, and a run would take as long as it asks
# for, so none is drawn.
BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, -0.5, 0.0, 1.5, 2.0]),
    st.integers(min_value=2**32),
    st.sampled_from([2**32, 10**400]),
)


class TestCliConfigFuzz:
    """`fedalign run` on bad field values never raises: it exits 0, 2 or 3
    with at most one JSON line on stderr."""

    @pytest.mark.parametrize("text, fragment", [
        ('{"lr": "0.1"}', "lr"),
        ('{"rounds": 1.5}', "rounds"),
        ('{"noise_std": NaN}', "noise_std"),
        ('{"lam": 1e400}', "lam"),
        ('[1]', "JSON object"),
        ('{"ablations": ["fixed_threshold"], "fixed_tau": "nan"}', "fixed_tau"),
        pytest.param('{"ablations": ["fixed_threshold"]}', "unknown ablation flag",
                     id="fixed_threshold-flag"),
        ('{"ablations": 5}', "ablations"),
        (f'{{"rounds": {10**400}}}', "rounds"),
        ('{"seed": 4294967296}', "seed"),
        ('{"num_clients": 1601}', "1600 training samples"),
        ('{"mean_scale": 1e-12, "rounds": 1}', "coincide"),
        # Features that overflow to inf are the config's fault, not training's.
        ('{"noise_std": 1e308, "rounds": 1, "num_clients": 3}', "noise_std"),
        ('{"mean_scale": 1e308, "rounds": 1, "num_clients": 3}', "mean_scale"),
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, text, fragment):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
        assert any(fragment in d for d in err["details"]), err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.sampled_from(CONFIG_FIELDS), BAD_VALUES, min_size=1, max_size=3))
    # An integer alpha beyond uint64 once made `np.full` an object array.
    @example({"dirichlet_alpha": 2**64})
    def test_bad_values_never_raise(self, bad):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_file = Path(tmp) / "cfg.json"
            cfg_file.write_text(json.dumps(dict(TINY, **bad)))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(["run", "--config", str(cfg_file), "--out", str(Path(tmp) / "o")])
        assert code in (0, 2, 3)
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1, err.getvalue()
        if lines:
            assert json.loads(lines[0])["error"] in ("invalid-config", "diverged")


class TestDirectionalProperties:
    def test_disagreement_trend_under_fedalign(self, run_cache):
        result = run_cache.get(method="fedalign", seed=0)
        spreads = [r.routing_spread_post for r in result.records]
        assert spreads[-1] < spreads[0]

    def test_fedalign_not_worse_than_fedavg(self, run_cache):
        run_cache.warm([dict(method="fedalign", seed=0), dict(method="fedavg", seed=0)])
        fa = run_cache.get(method="fedalign", seed=0)
        fv = run_cache.get(method="fedavg", seed=0)
        assert fa.records[-1].global_accuracy >= fv.records[-1].global_accuracy

    def test_ablation_monotonicity_soft(self, run_cache, caplog):
        # Directional, fixed seed: each single-ablation variant should not
        # beat the full method; ties within 0.5 accuracy points are logged
        # rather than failed. uniform_gamma is excluded: it is the degenerate
        # baseline-equivalence switch, not a mechanism ablation. A fixed tau
        # replaces the adaptive threshold.
        variants = {f: dict(ablations=(f,)) for f in ABLATION_FLAGS if f != "uniform_gamma"}
        variants["fixed_tau=0.5"] = dict(fixed_tau=0.5)
        configs = [dict(method="fedalign", seed=1)]
        configs += [dict(method="fedalign", seed=1, **kw) for kw in variants.values()]
        run_cache.warm(configs)
        full = run_cache.get(**configs[0]).records[-1].global_accuracy
        import logging
        log = logging.getLogger("test.ablation")
        for name, kw in zip(variants, configs[1:]):
            acc = run_cache.get(**kw).records[-1].global_accuracy
            if acc > full:
                if acc - full <= 0.005:
                    log.info("ablation %s tied within 0.5 pts (%+.4f)", name, acc - full)
                else:
                    pytest.fail(
                        f"ablation {name} beat full method by {(acc - full) * 100:.2f} points"
                    )


# Expert j of a relabeled model is expert RELABEL[j] of the original.
RELABEL = np.array([2, 0, 3, 1])
# Round 1's p_g is uniform, and the KL mask's reference set, its top k,
# breaks the tie toward experts 0..k-1 (ROADMAP item 13's p_g tie rule).
TIE_RULE = pytest.mark.xfail(
    strict=True, reason="the p_g reference set ties to the lowest expert indices (item 13)"
)


def relabel(params):
    return M.ModelParams(*(
        getattr(params, b)[:, RELABEL] if b == "gate"
        else getattr(params, b)[RELABEL] if b in M.EXPERT_BLOCKS
        else getattr(params, b)
        for b in M.ModelParams.BLOCKS
    ))


@pytest.fixture(scope="module")
def relabeled_runs():
    """A 3-round, 4-client run and its twin from the relabeled initial model."""
    cache = {}

    def get(**kw):
        cfg = ExperimentConfig(rounds=3, num_clients=4, **kw)
        if cfg not in cache:
            init = M.init_params
            with pytest.MonkeyPatch.context() as mp:
                base = run_experiment(cfg)
                mp.setattr(harness.M, "init_params", lambda config, rng: relabel(init(config, rng)))
                cache[cfg] = base, run_experiment(cfg)
        return cache[cfg]

    return get


def relabel_gaps(base, moved, skip=("round_index",)):
    """Largest gap of each record field, relabeled report column and
    relabeled final block between a run and its relabeled twin."""
    gaps = {
        f.name: max(abs(getattr(a, f.name) - getattr(b, f.name))
                    for a, b in zip(base.records, moved.records))
        for f in dataclasses.fields(harness.RoundRecord) if f.name not in skip
    }
    columns = {"omega": np.s_[:, RELABEL], "gamma_row_sums": RELABEL, "mean_sim": RELABEL,
               "dispersion": RELABEL, "tau": RELABEL}
    for name, cols in columns.items():
        gaps[name] = max(float(np.abs(getattr(a, name)[cols] - getattr(b, name)).max())
                         for a, b in zip(base.reports, moved.reports))
    want = relabel(base.final_params)
    for b in M.ModelParams.BLOCKS:
        gaps[b] = float(np.abs(getattr(want, b) - getattr(moved.final_params, b)).max())
    return gaps


UNREGULARIZED = [dict(method="fedavg"), dict(method="fedprox"), dict(method="fedalign", lam=0.0)]


class TestExpertRelabeling:
    """An expert's index carries no meaning: relabeling the experts of the
    initial model relabels every output of a whole run."""

    @pytest.mark.parametrize("kw", UNREGULARIZED)
    def test_run_is_equivariant(self, relabeled_runs, kw):
        gaps = relabel_gaps(*relabeled_runs(**kw), skip=("round_index", "mean_reg_loss"))
        assert max(gaps.values()) <= 1e-12, gaps

    @TIE_RULE
    @pytest.mark.parametrize("kw", UNREGULARIZED)
    def test_reported_reg_loss_is_equivariant(self, relabeled_runs, kw):
        assert relabel_gaps(*relabeled_runs(**kw))["mean_reg_loss"] <= 1e-12

    @TIE_RULE
    def test_regularized_run_is_equivariant(self, relabeled_runs):
        gaps = relabel_gaps(*relabeled_runs(method="fedalign"))
        assert max(gaps.values()) <= 1e-12, gaps


# Client j of a relabeled run is client CLIENTS[j] of the original.
CLIENTS = np.array([2, 0, 3, 1])
CLIENT_VARIANTS = {
    "fedavg": dict(method="fedavg"),
    "fedprox": dict(method="fedprox"),
    "fedprox-own-gate": dict(method="fedprox", ablations=("no_gating_broadcast",)),
    "fedalign-lam0": dict(method="fedalign", lam=0.0),
    "fedalign": dict(method="fedalign"),
    **{flag: dict(method="fedalign", ablations=(flag,)) for flag in ABLATION_FLAGS},
}


def client_relabel_gaps(cfg):
    """Largest gap of each record field, each relabeled report column, gate
    and routing row, and of the global model, over `cfg.rounds` rounds of
    `run_round` from `setup`'s state and from that state with its clients
    relabeled."""
    data, state = harness.setup(cfg)
    assert max(shard.size for shard in data.shards) <= cfg.batch_size
    moved_data = dataclasses.replace(
        data, shards=[data.shards[i] for i in CLIENTS], size_weights=data.size_weights[CLIENTS]
    )
    moved = dataclasses.replace(
        state, gates=state.gates[CLIENTS], prev_p_bar=state.prev_p_bar[CLIENTS]
    )
    gaps = {}

    def gap(name, want, got):
        worst = float(np.max(np.abs(np.asarray(want) - np.asarray(got))))
        gaps[name] = max(gaps.get(name, 0.0), worst)

    for t in range(1, cfg.rounds + 1):
        state, record, report = harness.run_round(cfg, data, state, t)
        moved, moved_record, moved_report = harness.run_round(cfg, moved_data, moved, t)
        for f in dataclasses.fields(harness.RoundRecord):
            gap(f.name, getattr(record, f.name), getattr(moved_record, f.name))
        gap("omega", report.omega[CLIENTS], moved_report.omega)
        gap("gamma_row_sums", report.gamma_row_sums[:, CLIENTS], moved_report.gamma_row_sums)
        for name in ("tau", "mean_sim", "dispersion"):
            gap(name, getattr(report, name), getattr(moved_report, name))
        gap("gates", state.gates[CLIENTS], moved.gates)
        gap("prev_p_bar", state.prev_p_bar[CLIENTS], moved.prev_p_bar)
        gap("p_g", state.p_g, moved.p_g)
        gap("global_params", state.global_params.flat, moved.global_params.flat)
    return gaps


class TestClientRelabeling:
    """A client's index carries no meaning: relabeling the clients of a run
    (shards, size weights, gates and last round's routing) relabels every
    output. Each epoch is one batch, so a client's own stream only orders
    that batch's rows."""

    @pytest.mark.parametrize("kw", CLIENT_VARIANTS.values(), ids=CLIENT_VARIANTS.keys())
    def test_run_is_equivariant(self, kw):
        # 90 is TINY's whole training set, so every shard is one batch.
        cfg = tiny_config(num_clients=4, rounds=3, local_epochs=2, batch_size=90, **kw)
        gaps = client_relabel_gaps(cfg)
        assert max(gaps.values()) <= 1e-12, gaps
