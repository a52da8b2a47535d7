"""Correctness checks on a run's output directory, made apart from the program.

The checkpoint is parsed with this file's own reader, following the byte
format in the repository README. The test set is regenerated from the
documented seed scheme (named child streams of the root seed), and a plain
numpy top-k forward recounts the correct predictions. The remaining checks
are properties the method must have, not stored copies of earlier output.
Every failed check raises `CheckFailed` with a message naming it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np

METRICS_SCHEMA = "fedalign-metrics/1"
OUTPUT_FILES = ("metrics.jsonl", "summary.csv", "aggregation.jsonl", "final.ckpt")
BLOCK_ORDER = ("embed", "gate", "expert_w1", "expert_b1", "expert_w2", "expert_b2", "head")
SUMMARY_FIELDS = [
    "round_index",
    "global_accuracy",
    "local_accuracy_mean",
    "local_accuracy_std",
    "mean_local_loss",
    "mean_reg_loss",
    "routing_disagreement_pre",
    "routing_disagreement_post",
    "expert_semantic_divergence",
]
# Aggregated blocks are compared with an independent recomputation to this
# absolute tolerance; only the summation order differs.
AGG_TOL = 1e-12
# Gate or logit gaps below this may flip under a different summation order,
# so such test samples may disagree with the program's count.
TIE_GAP = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def block_shapes(cfg) -> dict[str, tuple[int, ...]]:
    d, h, s = cfg["input_dim"], cfg["hidden_dim"], cfg["num_experts"]
    e, c = cfg["expert_hidden"], cfg["num_classes"]
    return {
        "embed": (d, h),
        "gate": (h, s),
        "expert_w1": (s, h, e),
        "expert_b1": (s, e),
        "expert_w2": (s, e, h),
        "expert_b2": (s, h),
        "head": (h, c),
    }


def param_count(cfg) -> int:
    d, h, s = cfg["input_dim"], cfg["hidden_dim"], cfg["num_experts"]
    e, c = cfg["expert_hidden"], cfg["num_classes"]
    return d * h + h * s + s * (h * e + e + e * h + h) + h * c


def read_checkpoint(path, cfg) -> dict[str, np.ndarray]:
    """Parse a checkpoint: 4-byte magic, seven uint32 LE header fields, then
    float64 LE blocks in BLOCK_ORDER with nothing after them."""
    raw = Path(path).read_bytes()
    expected = 32 + 8 * param_count(cfg)
    require(len(raw) == expected, f"checkpoint is {len(raw)} bytes, expected {expected}")
    require(raw[:4] == b"FMOE", f"checkpoint magic {raw[:4]!r}")
    header = struct.unpack("<7I", raw[4:32])
    want = (
        1,
        cfg["input_dim"],
        cfg["hidden_dim"],
        cfg["num_experts"],
        cfg["top_k"],
        cfg["num_classes"],
        cfg["expert_hidden"],
    )
    require(header == want, f"checkpoint header {header}, expected {want}")
    blocks, offset = {}, 32
    for name, shape in block_shapes(cfg).items():
        n = int(np.prod(shape))
        blocks[name] = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += 8 * n
    require(
        all(np.all(np.isfinite(b)) for b in blocks.values()), "non-finite checkpoint entries"
    )
    return blocks


def _stream(seed: int, tag: str) -> np.random.Generator:
    entropy = [seed & 0xFFFFFFFF, zlib.crc32(tag.encode("utf-8"))]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def regenerate_test_set(cfg) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian clusters around class means from the "task" stream, noise
    from the "test" stream, labels grouped in ascending order."""
    c, d = cfg["num_classes"], cfg["input_dim"]
    means = _stream(cfg["seed"], "task").normal(0.0, cfg["mean_scale"], size=(c, d))
    per = cfg["test_samples_per_class"]
    labels = np.repeat(np.arange(c), per)
    noise = _stream(cfg["seed"], "test").normal(0.0, cfg["noise_std"], size=(c * per, d))
    return means[labels] + noise, labels


def predict(blocks, top_k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense top-k MoE forward; returns predictions and a mask of samples
    whose gate selection or winning class sits on a near-tie."""
    h = x @ blocks["embed"]
    g = h @ blocks["gate"]
    rows = np.arange(x.shape[0])
    # Top-k by repeated argmax, which takes the lowest index among ties.
    pick = np.zeros(g.shape, dtype=bool)
    left = g.copy()
    for _ in range(top_k):
        j = np.argmax(left, axis=1)
        pick[rows, j] = True
        left[rows, j] = -np.inf
    chosen = np.where(pick, g, -np.inf)
    kth = chosen.min(axis=1, where=pick, initial=np.inf)
    near = np.zeros(x.shape[0], dtype=bool)
    if top_k < g.shape[1]:
        near |= kth - left.max(axis=1) < TIE_GAP
    w = np.exp(chosen - chosen.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    y = np.zeros_like(h)
    for e in range(g.shape[1]):
        z = np.tanh(h @ blocks["expert_w1"][e] + blocks["expert_b1"][e])
        o = z @ blocks["expert_w2"][e] + blocks["expert_b2"][e]
        y += np.where(pick[:, e : e + 1], w[:, e : e + 1] * o, 0.0)
    logits = (y + h) @ blocks["head"]
    top2 = np.sort(logits, axis=1)[:, -2:]
    near |= top2[:, 1] - top2[:, 0] < TIE_GAP
    return np.argmax(logits, axis=1), near


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def check_outputs(out_dir, cfg) -> float:
    """Run every output check; returns the last round's global accuracy."""
    out = Path(out_dir)
    rounds, n, s, c = cfg["rounds"], cfg["num_clients"], cfg["num_experts"], cfg["num_classes"]

    lines = read_jsonl(out / "metrics.jsonl")
    header, records = lines[0], lines[1:]
    require(header.get("schema") == METRICS_SCHEMA, f"metrics header {header}")
    require(header.get("initial_disagreement", -1.0) >= 0.0, "initial_disagreement < 0")
    require(
        [r["round_index"] for r in records] == list(range(1, rounds + 1)),
        "metrics rounds are not 1..R in order",
    )
    for r in records:
        for key in ("global_accuracy", "local_accuracy_mean"):
            t = r["round_index"]
            require(0.0 <= r[key] <= 1.0, f"round {t} {key}={r[key]} outside [0, 1]")
        require(r["local_accuracy_std"] >= 0.0, "negative local_accuracy_std")

    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == SUMMARY_FIELDS, f"summary.csv header {rows[0]}")
    require(len(rows) == rounds + 1, f"summary.csv has {len(rows) - 1} rounds")
    for row, rec in zip(rows[1:], records):
        parsed = [int(row[0])] + [float(v) for v in row[1:]]
        require(
            parsed == [rec[f] for f in SUMMARY_FIELDS],
            f"summary.csv round {row[0]} disagrees with metrics.jsonl",
        )

    aggs = read_jsonl(out / "aggregation.jsonl")
    require([a["round"] for a in aggs] == list(range(1, rounds + 1)), "aggregation rounds")
    for a in aggs:
        t = a["round"]
        omega = np.array(a["omega"])
        require(omega.shape == (n, s), f"round {t} omega shape {omega.shape}")
        require(np.all(omega >= 0.0), f"round {t} negative omega")
        require(
            np.all(np.abs(omega.sum(axis=0) - 1.0) <= 1e-12), f"round {t} omega column sum != 1"
        )
        if cfg["method"] != "fedalign":
            require(np.all(omega == 1.0 / n), f"round {t} omega is not uniform 1/N")
        tau, mean_sim = np.array(a["tau"]), np.array(a["mean_sim"])
        require(np.all(tau <= mean_sim), f"round {t} tau > mean_sim")
        require(np.all(np.array(a["dispersion"]) >= 0.0), f"round {t} negative dispersion")
        require(
            np.all(np.array(a["gamma_row_sums"]) >= 0.0), f"round {t} negative gamma row sum"
        )

    blocks = read_checkpoint(out / "final.ckpt", cfg)
    x, y = regenerate_test_set(cfg)
    pred, near = predict(blocks, cfg["top_k"], x)
    correct = int((pred == y).sum())
    final = records[-1]["global_accuracy"]
    reported = round(final * y.size)
    require(reported / y.size == final, f"global_accuracy {final} is not a count over {y.size}")
    require(
        abs(correct - reported) <= int(near.sum()),
        f"independent forward finds {correct} correct, metrics.jsonl reports {reported}",
    )
    require(final >= 2.0 / c, f"final accuracy {final} is not well above chance 1/{c}")
    return final


def digest(out_dir) -> dict[str, str]:
    out = Path(out_dir)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in OUTPUT_FILES}


def check_same(first: dict, other: dict, what: str):
    diff = sorted(f for f in OUTPUT_FILES if first[f] != other[f])
    require(not diff, f"{what}: output files differ: {', '.join(diff)}")


class AggregationCheck:
    """Recomputes each round's aggregate from the captured local rounds.

    Observes `client.local_round` (start parameters, shard size, update) and
    `server.expert_weights` (which experts are updated). The global model
    after round t is the start parameters of round t+1, and the final model
    after the last round. Checked blocks must equal the previous global
    block plus the size-weighted mean of the client updates; experts the
    server marked not updated must be unchanged.
    """

    def __init__(self, cfg):
        self.rounds = cfg["rounds"]
        self.n = cfg["num_clients"]
        self.s = cfg["num_experts"]
        self.blocks = (
            ("embed", "gate", "head") if cfg["method"] == "fedalign" else BLOCK_ORDER
        )
        self.calls = 0
        self.rounds_checked = 0
        self.experts_updated = 0
        self._prev = None
        self._acc = None
        self._size = 0.0
        self._updated = None

    def on_local_round(self, args, kwargs, res):
        start = args[1]
        if self.calls % self.n == 0:
            if self._prev is not None:
                self._compare(start)
            self._prev = start
            self._acc = {b: np.zeros_like(getattr(start, b)) for b in self.blocks}
            self._size = 0.0
            self._updated = None
        self.calls += 1
        size = float(args[2].size)
        self._size += size
        for b in self.blocks:
            self._acc[b] += size * getattr(res.param_delta, b)

    def on_expert_weights(self, args, kwargs, out):
        self._updated = np.asarray(out[1], dtype=bool).copy()

    def finish(self, final_params):
        require(self.calls == self.rounds * self.n, f"{self.calls} local rounds captured")
        self._compare(final_params)

    def _compare(self, new):
        prev = self._prev
        for b in self.blocks:
            want = getattr(prev, b) + self._acc[b] / self._size
            err = float(np.max(np.abs(getattr(new, b) - want)))
            require(
                err <= AGG_TOL,
                f"round {self.rounds_checked + 1} block {b}: aggregate off by {err:.3g}",
            )
        updated = np.ones(self.s, dtype=bool) if self._updated is None else self._updated
        for e in np.nonzero(~updated)[0]:
            for b in ("expert_w1", "expert_b1", "expert_w2", "expert_b2"):
                require(
                    np.array_equal(getattr(new, b)[e], getattr(prev, b)[e]),
                    f"round {self.rounds_checked + 1} expert {e} changed although not updated",
                )
        self.experts_updated += int(updated.sum())
        self.rounds_checked += 1
