"""Memory tests: a run never imports `numpy.ma`, and no trace, upload buffer
or expert-row copy outlives its last reader.

The lifetime tests count Python-traced allocations with `tracemalloc`
(numpy reports its array buffers to it), not the process's resident size,
so their figures are deterministic. Each picks shapes where the array
whose lifetime it checks is much larger than everything else allocated
around it, and bounds the traced size by that array's size.
"""

import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedalign
from fedalign import client as C
from fedalign import harness
from fedalign import model as M
from fedalign import server as S
from fedalign.harness import ExperimentConfig

TINY = dict(
    input_dim=4, hidden_dim=6, num_experts=3, top_k=1, num_classes=3,
    expert_hidden=6, samples_per_class=30, test_samples_per_class=10,
    num_clients=3, rounds=2, local_epochs=1, noise_std=1.5,
)


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_run_imports_no_numpy_ma(tmp_path):
    # `np.unique` imports numpy.ma (about 1 MiB resident); no step of a run,
    # outputs included, may need it.
    script = (
        "import sys\n"
        "from fedalign.harness import ExperimentConfig, run_experiment\n"
        f"run_experiment(ExperimentConfig(**{TINY!r}), sys.argv[1])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = str(Path(fedalign.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "out" / "final.ckpt").is_file()


def shard_routing_growth(cfg, data, state) -> int:
    """Traced peak of one `shard_routing` call above the size before it."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    harness.shard_routing(cfg, data, state)
    return tracemalloc.get_traced_memory()[1] - base


def test_shard_routing_holds_one_trace(traced):
    # Every shard is the same 400 rows, so each trace is the same size (its
    # two (S, B, 32) expert arrays alone are 0.8 MB): with one trace at a
    # time, N shards peak where one does, plus the (N, S) and (N,) outputs.
    n = 8
    cfg = ExperimentConfig(num_clients=1, samples_per_class=50)
    data, state = harness.setup(cfg)
    grown = shard_routing_growth(cfg, data, state)
    many = replace(data, shards=data.shards * n)
    grown_n = shard_routing_growth(replace(cfg, num_clients=n), many, state)
    outputs = n * (cfg.num_experts + 1) * 8
    assert grown_n <= grown + outputs + 1024, (grown, grown_n)


def test_local_round_holds_one_step(monkeypatch):
    # Each forward, the steps' and the statistics pass's, starts after the
    # last step's trace and gradient are gone.
    config = M.MoEConfig(4, 6, 3, 2, 3, 5)
    rng = np.random.default_rng(0)
    shard = C.ClientDataset(rng.normal(size=(20, 4)), rng.integers(0, 3, 20))
    ctx = C.RegContext(np.full(3, 1.0 / 3), 0.1, np.ones(3), config.top_k)
    made, alive_at_forward = [], []
    forward, backward = M.forward, M.backward

    def tracked(fn, part):
        def call(*args, **kwargs):
            if fn is forward:
                alive_at_forward.append(sum(ref() is not None for ref in made))
            out = fn(*args, **kwargs)
            made.append(weakref.ref(part(out)))
            return out
        return call

    monkeypatch.setattr(M, "forward", tracked(forward, lambda out: out[0]))
    monkeypatch.setattr(M, "backward", tracked(backward, lambda grad: grad.flat))
    C.local_round(config, M.init_params(config, rng), shard, ctx, epochs=2, lr=0.1,
                  rng=rng, batch_size=8, prox_mu=0.01)
    assert alive_at_forward == [0] * 7  # 3 steps an epoch, then the statistics pass


def test_metrics_phase_runs_without_the_delta_buffer(traced, monkeypatch):
    # 50 clients of the default model: the (N, P) delta buffer is 7.2 MB,
    # several times all else a round allocates. It ends with aggregation,
    # so it is gone by the time the round evaluates the new global model.
    cfg = ExperimentConfig(
        num_clients=50, num_experts=8, samples_per_class=50, dirichlet_alpha=10.0,
        local_epochs=1, rounds=1,
    )
    data, state = harness.setup(cfg)
    buffer = cfg.num_clients * 8 * sum(map(np.prod, data.model_config.shapes))
    at_entry = []
    evaluate = harness.evaluate

    def measured(*args):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return evaluate(*args)

    monkeypatch.setattr(harness, "evaluate", measured)
    tracemalloc.clear_traces()
    harness.run_round(cfg, data, state, 1)
    assert len(at_entry) == 1
    assert at_entry[0] < buffer, (at_entry[0], buffer)


def test_expert_rows_are_copied_once(traced, monkeypatch):
    # 32 clients (two full Gram row blocks, so the padded buffer is exactly
    # (N, P_e)) and wide experts: P_e = 8320 entries, (N, P_e) is 2.1 MB.
    # The server's update rows reach the Gram buffer as views of the delta
    # buffer, so the padded buffer is the one (N, P_e) array that a
    # `pairwise_semantics` call, with its argument, adds to the round.
    n, cfg = 32, M.MoEConfig(8, 64, 3, 1, 4, 64)
    rng = np.random.default_rng(0)
    uploads = C.Uploads.empty(n, cfg)
    uploads.param_delta.flat[:] = rng.normal(size=uploads.param_delta.flat.shape)
    uploads.p_bar[:] = uploads.margin[:] = 1.0 / cfg.num_experts
    uploads.mu[:] = rng.normal(size=uploads.mu.shape)
    uploads.mu_empty[:] = False
    rows = n * 8 * sum(b.shape[1] for b in M.expert_columns(uploads.param_delta, np.s_[:, 0]))
    start = M.init_params(cfg, rng)
    sizes = np.full(n, 1.0 / n)
    peaks = []
    pairwise_semantics = S.pairwise_semantics

    def measured(*args):
        out = pairwise_semantics(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(S, "pairwise_semantics", measured)
    tracemalloc.clear_traces()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    S.aggregate_round(start, uploads, sizes, 1, beta=0.5)
    assert len(peaks) == cfg.num_experts
    assert max(peaks) < 1.5 * rows, (peaks, rows)


def test_phase_memory_tool(tmp_path):
    # The script's table on a tiny config: each phase's peak lies between
    # its base and the run's peak, and its growth is their difference.
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    tool = Path(__file__).resolve().parents[1] / "tools" / "phase_memory.py"
    proc = subprocess.run(
        [sys.executable, str(tool), str(cfg)], capture_output=True, text=True, timeout=120,
        check=True,
    )
    header, *rows, run = proc.stdout.splitlines()
    assert header.split()[0] == "phase"
    table = {row[:16].strip(): [float(v) for v in row[16:].split()] for row in rows}
    assert list(table) == ["local training", "server", "metrics"]
    run_peak = float(run.split()[1])
    for peak, base, grown in table.values():
        assert 0.0 < base <= peak <= run_peak
        assert abs(peak - base - grown) <= 0.0015
