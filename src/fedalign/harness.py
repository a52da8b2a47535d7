"""Config-driven round loop: `setup` builds the run, `run_round` steps it.

One root seed drives every stochastic site through named child streams, so
identical configs produce byte-identical metrics files. All three methods
(fedalign, fedavg, fedprox) share the client code path and the delta-based
parameter update; they differ only in the weights applied per block.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import zlib
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from . import client as C
from . import model as M
from . import server as S
from .data import ClientDataset, SyntheticTask, dirichlet_partition, generate, make_default_task

METHODS = ("fedalign", "fedavg", "fedprox")
ABLATION_FLAGS = (
    "no_consistency_weighting",
    "no_adaptive_alpha",
    "no_direction_consensus",
    "no_gating_broadcast",
    "uniform_gamma",
)
METRICS_SCHEMA = "fedalign-metrics/1"


class ConfigError(ValueError):
    """Raised with the full list of validation failures."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


def child_rng(root_seed: int, *tags) -> np.random.Generator:
    """Named, order-independent child stream derived from the root seed."""
    entropy = [root_seed & 0xFFFFFFFF] + [
        zlib.crc32(str(t).encode("utf-8")) for t in tags
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# A field's annotation is all of its check. `int` is an integer below
# INT_LIMIT: `child_rng` keeps the seed mod 2**32, the checkpoint header
# stores the model dims as uint32, and a larger count would never finish.
# `float` is a finite number, integers included; bools are neither.
# `Annotated[kind, op, low]` adds the lower bound `op low`, checked once the
# type is right. The model dims (MODEL_FIELDS) have none; MoEConfig checks them.
INT_LIMIT = 2**32
MODEL_FIELDS = tuple(f.name for f in fields(M.MoEConfig))
Count = Annotated[int, ">=", 1]
Positive = Annotated[float, ">", 0]
NonNegative = Annotated[float, ">=", 0]


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "fedalign"
    # model shape
    input_dim: int = 16
    hidden_dim: int = 32
    num_experts: int = 4
    top_k: int = 1
    num_classes: int = 8
    expert_hidden: int = 32
    # synthetic task
    noise_std: Positive = 3.5
    samples_per_class: Count = 200
    test_samples_per_class: Count = 50
    mean_scale: Positive = 2.0
    # federation
    num_clients: Count = 10
    rounds: Count = 25
    local_epochs: Count = 3
    lr: Positive = 0.2
    batch_size: Count = 32
    dirichlet_alpha: Positive = 0.1
    # alignment hyper-parameters
    lam: NonNegative = 0.1
    eta: NonNegative = 0.1
    beta: NonNegative = 0.5
    prox_mu: NonNegative = 0.01
    # reproducibility and variants
    seed: Annotated[int, ">=", 0] = 0
    ablations: tuple[str, ...] = ()
    fixed_tau: float | None = None

    def __post_init__(self):
        if isinstance(self.ablations, list):  # from JSON or Python; a string still fails
            object.__setattr__(self, "ablations", tuple(self.ablations))

    def validate(self) -> list[str]:
        errors = []
        if self.method not in METHODS:
            errors.append(f"method must be one of {METHODS}, got {self.method!r}")
        hints = get_type_hints(ExperimentConfig, include_extras=True)
        for name, hint in ((f.name, hints[f.name]) for f in fields(self)):
            kind, *bound = get_args(hint) if get_origin(hint) is Annotated else (hint,)
            if kind not in (int, float):
                continue
            value = getattr(self, name)
            if not _is_type(value, kind):
                what = "an integer" if kind is int else "a finite number"
                errors.append(f"{name} must be {what}, got {value!r}")
            elif bound and (value <= bound[1] if bound[0] == ">" else value < bound[1]):
                errors.append(f"{name} must be {bound[0]} {bound[1]}")
            elif kind is int and value >= INT_LIMIT:
                errors.append(f"{name} must be < 2**32, got {value}")
        if not isinstance(self.ablations, tuple):
            errors.append(f"ablations must be a list of flag names, got {self.ablations!r}")
        else:
            for flag in self.ablations:
                if flag not in ABLATION_FLAGS:
                    errors.append(f"unknown ablation flag {flag!r}")
        if self.fixed_tau is not None and not _is_type(self.fixed_tau, float):
            errors.append(f"fixed_tau must be a finite number or null, got {self.fixed_tau!r}")
        counts = (self.num_clients, self.num_classes, self.samples_per_class)
        if all(_is_type(v, int) and v >= 1 for v in counts):
            pool = self.num_classes * self.samples_per_class
            if self.num_clients > pool:
                errors.append(
                    f"num_clients={self.num_clients} exceeds the {pool} training samples "
                    "(num_classes * samples_per_class), so some client would get none"
                )
        if all(_is_type(getattr(self, name), int) for name in MODEL_FIELDS):
            try:
                self.model_config()
            except ValueError as exc:
                errors.append(str(exc))
        return errors

    def model_config(self) -> M.MoEConfig:
        return M.MoEConfig(**{name: getattr(self, name) for name in MODEL_FIELDS})

    def ablated(self, flag: str) -> bool:
        return flag in self.ablations


def _is_type(value, kind) -> bool:
    """`int`: an integer that is not a bool. `float`: a finite real number
    (integers included, bools not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if kind is int:
        return isinstance(value, numbers.Integral)
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass
class RoundRecord:
    round_index: int
    global_accuracy: float
    local_accuracy_mean: float
    local_accuracy_std: float
    mean_local_loss: float
    mean_reg_loss: float
    routing_disagreement_pre: float
    routing_disagreement_post: float
    routing_spread_pre: float
    routing_spread_post: float
    routing_disruption: float
    expert_semantic_divergence: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[RoundRecord]
    final_params: M.ModelParams
    reports: list[S.AggregationReport]
    # Routing spread of the initial broadcast model, before any aggregation.
    initial_disagreement: float = 0.0


def evaluate(
    config: M.MoEConfig, params: M.ModelParams, features: np.ndarray, labels: np.ndarray
) -> float:
    """Argmax-correct fraction on the given set."""
    trace, _ = M.forward(config, params, features)
    pred = np.argmax(trace.logits, axis=1)
    return float((pred == labels).mean())


def total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total-variation distance between distributions along the last axis."""
    return 0.5 * np.abs(p - q).sum(axis=-1)


@dataclass(frozen=True)
class RunData:
    """What `setup` builds once and every round only reads."""
    model_config: M.MoEConfig
    shards: list[ClientDataset]
    size_weights: np.ndarray  # (N,) shard sizes over their total
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass(frozen=True)
class RoundState:
    """What one round hands the next; its arrays are replaced, never written."""
    global_params: M.ModelParams
    gates: np.ndarray  # (N, H, S) each client's own gate, read under no_gating_broadcast
    p_g: np.ndarray  # (S,) global routing reference
    prev_p_bar: np.ndarray  # (N, S) last round's pre-aggregation p_bar, alpha's input


def setup(cfg: ExperimentConfig) -> tuple[RunData, RoundState]:
    """Validate `cfg` and build the run's data and the state before round 1:
    the initial model on every client and uniform routing."""
    errors = cfg.validate()
    if errors:
        raise ConfigError(errors)
    n, s = cfg.num_clients, cfg.num_experts
    try:  # an unlearnable task, overflowing data or an impossible partition
        task = make_default_task(
            cfg.num_classes, cfg.input_dim, cfg.samples_per_class, cfg.noise_std,
            child_rng(cfg.seed, "task"), mean_scale=cfg.mean_scale,
        )
        train_x, train_y = generate(task, child_rng(cfg.seed, "data"))
        test_task = replace(task, samples_per_class=cfg.test_samples_per_class)
        test_x, test_y = generate(test_task, child_rng(cfg.seed, "test"))
        if not (np.isfinite(train_x).all() and np.isfinite(test_x).all()):
            raise ValueError(f"noise_std={cfg.noise_std} and mean_scale={cfg.mean_scale} "
                             "give non-finite features")
        shards = dirichlet_partition(
            train_x, train_y, n, cfg.dirichlet_alpha, child_rng(cfg.seed, "partition")
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    sizes = np.array([shard.size for shard in shards], dtype=np.float64)
    data = RunData(cfg.model_config(), shards, sizes / sizes.sum(), test_x, test_y)
    params = M.init_params(data.model_config, child_rng(cfg.seed, "init"))
    gates = np.broadcast_to(params.gate, (n, *params.gate.shape))
    return data, RoundState(params, gates, np.full(s, 1.0 / s), np.full((n, s), 1.0 / s))


def client_start(cfg: ExperimentConfig, state: RoundState, i: int) -> M.ModelParams:
    """Client i's model, in training, as FedProx's anchor and in the
    metrics: the global model, with the client's own gate under
    no_gating_broadcast."""
    if cfg.ablated("no_gating_broadcast"):
        return replace(state.global_params, gate=state.gates[i])
    return state.global_params


def shard_routing(
    cfg: ExperimentConfig, data: RunData, state: RoundState
) -> tuple[np.ndarray, np.ndarray]:
    """Each shard under its client's model in `state`: the mean top-k
    routing mass (N, S) and the argmax-correct fraction (N,)."""
    p_bar, acc = np.empty((cfg.num_clients, cfg.num_experts)), np.empty(cfg.num_clients)
    for i, shard in enumerate(data.shards):
        trace, _ = M.forward(data.model_config, client_start(cfg, state, i), shard.features)
        p_bar[i] = C.compute_p_bar(trace)
        acc[i] = (np.argmax(trace.logits, axis=1) == shard.labels).mean()
    return p_bar, acc


def run_round(
    cfg: ExperimentConfig, data: RunData, state: RoundState, t: int
) -> tuple[RoundState, RoundRecord, S.AggregationReport]:
    """Round t from `state`: the clients train, the server aggregates and the
    shards are measured under the next state. Returns that state, the record
    and the report; no input is written and every draw is a `child_rng`."""
    n, s = cfg.num_clients, cfg.num_experts
    is_align = cfg.method == "fedalign"
    if is_align and not cfg.ablated("no_adaptive_alpha"):
        alpha = C.compute_alpha(state.prev_p_bar * state.prev_p_bar.mean(axis=0), cfg.eta)
    else:
        alpha = np.ones((n, s))
    uploads = C.Uploads.empty(n, data.model_config)
    gates = np.empty_like(uploads.param_delta.gate)
    for i, shard in enumerate(data.shards):
        start = client_start(cfg, state, i)
        ctx = C.RegContext(state.p_g, cfg.lam if is_align else 0.0, alpha[i], cfg.top_k)
        try:
            res = C.local_round(
                data.model_config, start, shard, ctx, epochs=cfg.local_epochs, lr=cfg.lr,
                rng=child_rng(cfg.seed, "client", i, "round", t), batch_size=cfg.batch_size,
                prox_mu=cfg.prox_mu if cfg.method == "fedprox" else 0.0,
            )
        except FloatingPointError as exc:
            raise FloatingPointError(f"round {t}, client {i}: {exc}") from exc
        uploads[i] = res
        gates[i] = start.gate + res.param_delta.gate

    global_params, p_g, report = S.aggregate_round(
        state.global_params, uploads, data.size_weights, t,
        beta=cfg.beta,
        fixed_tau=cfg.fixed_tau,
        consistency=is_align and not cfg.ablated("no_consistency_weighting"),
        semantic_weights=is_align and not cfg.ablated("uniform_gamma"),
        direction=not cfg.ablated("no_direction_consensus"),
    )
    p_bar = uploads.p_bar
    nxt = RoundState(global_params, gates, p_g, p_bar)
    post_p_bar, local_accs = shard_routing(cfg, data, nxt)
    record = RoundRecord(
        round_index=t,
        global_accuracy=evaluate(data.model_config, global_params, data.test_x, data.test_y),
        local_accuracy_mean=float(np.mean(local_accs)),
        local_accuracy_std=float(np.std(local_accs)),
        mean_local_loss=float(np.mean(uploads.mean_local_loss)),
        mean_reg_loss=float(np.mean(uploads.mean_reg_loss)),
        routing_disagreement_pre=float(total_variation(p_bar, p_g).mean()),
        routing_disagreement_post=float(total_variation(post_p_bar, p_g).mean()),
        routing_spread_pre=float(total_variation(p_bar, p_bar.mean(axis=0)).mean()),
        routing_spread_post=float(total_variation(post_p_bar, post_p_bar.mean(axis=0)).mean()),
        routing_disruption=float(total_variation(post_p_bar, p_bar).mean()),
        expert_semantic_divergence=float(np.mean(1.0 - report.mean_sim)),
    )
    return nxt, record, report


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    data, state = setup(cfg)
    # Pre-aggregation reference level: per-shard routing spread of the
    # initial model, before any training or aggregation has happened.
    init_p_bar, _ = shard_routing(cfg, data, state)
    initial_disagreement = float(total_variation(init_p_bar, init_p_bar.mean(axis=0)).mean())
    records, reports = [], []
    for t in range(1, cfg.rounds + 1):
        state, record, report = run_round(cfg, data, state, t)
        records.append(record)
        reports.append(report)
    result = ExperimentResult(cfg, records, state.global_params, reports, initial_disagreement)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


def write_outputs(result: ExperimentResult, out_dir):
    """metrics.jsonl (schema header, one record per line), summary.csv,
    aggregation.jsonl (one report per round) and final.ckpt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = {"schema": METRICS_SCHEMA, "initial_disagreement": result.initial_disagreement}
    with open(out / "metrics.jsonl", "w", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in result.records:
            fh.write(rec.to_json() + "\n")
    cols = [
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
    with open(out / "summary.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for rec in result.records:
            row = asdict(rec)
            writer.writerow([repr(row[f]) if isinstance(row[f], float) else row[f] for f in cols])
    with open(out / "aggregation.jsonl", "w", newline="\n") as fh:
        for rep in result.reports:
            fh.write(rep.to_json_record() + "\n")
    M.save_checkpoint(out / "final.ckpt", result.config.model_config(), result.final_params)
