"""Config-driven round-loop orchestrator.

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
from dataclasses import dataclass, asdict, replace
from pathlib import Path

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
    "fixed_threshold",
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
    noise_std: float = 3.5
    samples_per_class: int = 200
    test_samples_per_class: int = 50
    mean_scale: float = 2.0
    # federation
    num_clients: int = 10
    rounds: int = 25
    local_epochs: int = 3
    lr: float = 0.2
    batch_size: int = 32
    dirichlet_alpha: float = 0.1
    # alignment hyper-parameters
    lam: float = 0.1
    eta: float = 0.1
    beta: float = 0.5
    prox_mu: float = 0.01
    # reproducibility and variants
    seed: int = 0
    ablations: tuple[str, ...] = ()
    fixed_tau: float | None = None

    def validate(self) -> list[str]:
        errors = []
        if self.method not in METHODS:
            errors.append(f"method must be one of {METHODS}, got {self.method!r}")
        for name, (kind, low, strict) in NUMERIC_FIELDS.items():
            value = getattr(self, name)
            if not _is_type(value, kind):
                what = "an integer" if kind is int else "a finite number"
                errors.append(f"{name} must be {what}, got {value!r}")
            elif low is not None and (value <= low if strict else value < low):
                errors.append(f"{name} must be {'>' if strict else '>='} {low}")
            elif kind is int and value >= INT_LIMIT:
                errors.append(f"{name} must be < 2**32, got {value}")
        if self.fixed_tau is not None and not _is_type(self.fixed_tau, float):
            errors.append(f"fixed_tau must be a finite number or null, got {self.fixed_tau!r}")
        if not isinstance(self.ablations, tuple):
            errors.append(f"ablations must be a list of flag names, got {self.ablations!r}")
        else:
            for flag in self.ablations:
                if flag not in ABLATION_FLAGS:
                    errors.append(f"unknown ablation flag {flag!r}")
            if self.ablated("fixed_threshold") and self.fixed_tau is None:
                errors.append("fixed_threshold ablation requires fixed_tau")
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
        return M.MoEConfig(
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            num_experts=self.num_experts,
            top_k=self.top_k,
            num_classes=self.num_classes,
            expert_hidden=self.expert_hidden,
        )

    def ablated(self, flag: str) -> bool:
        return flag in self.ablations


MODEL_FIELDS = (
    "input_dim", "hidden_dim", "num_experts", "top_k", "num_classes", "expert_hidden"
)
# Field -> (type, lower bound or None, bound is strict). The bounds are only
# checked once the type is right; `float` means a finite real number, and
# every `int` field must also be below INT_LIMIT: `child_rng` keeps the seed
# mod 2**32, the checkpoint header stores the model dims as uint32, and a
# larger count would never finish.
INT_LIMIT = 2**32
NUMERIC_FIELDS = {
    **{name: (int, None, False) for name in MODEL_FIELDS},  # MoEConfig checks these
    "samples_per_class": (int, 1, False),
    "test_samples_per_class": (int, 1, False),
    "num_clients": (int, 1, False),
    "rounds": (int, 1, False),
    "local_epochs": (int, 1, False),
    "batch_size": (int, 1, False),
    "seed": (int, 0, False),
    "noise_std": (float, 0, True),
    "mean_scale": (float, 0, True),
    "lr": (float, 0, True),
    "dirichlet_alpha": (float, 0, True),
    "lam": (float, 0, False),
    "eta": (float, 0, False),
    "beta": (float, 0, False),
    "prox_mu": (float, 0, False),
}


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


def shard_routing(
    config: M.MoEConfig, client_params, shards: list[ClientDataset]
) -> tuple[np.ndarray, np.ndarray]:
    """Each shard under its client's model `client_params(i)`: the mean
    top-k routing mass (N, S) and the argmax-correct fraction (N,)."""
    p_bar, acc = np.empty((len(shards), config.num_experts)), np.empty(len(shards))
    for i, shard in enumerate(shards):
        trace, _ = M.forward(config, client_params(i), shard.features)
        p_bar[i] = C.compute_p_bar(trace)
        acc[i] = (np.argmax(trace.logits, axis=1) == shard.labels).mean()
    return p_bar, acc


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    errors = cfg.validate()
    if errors:
        raise ConfigError(errors)
    mcfg = cfg.model_config()
    s, n = cfg.num_experts, cfg.num_clients

    try:  # an unlearnable task or an impossible partition is a config error
        task = make_default_task(
            cfg.num_classes,
            cfg.input_dim,
            cfg.samples_per_class,
            cfg.noise_std,
            child_rng(cfg.seed, "task"),
            mean_scale=cfg.mean_scale,
        )
        train_x, train_y = generate(task, child_rng(cfg.seed, "data"))
        shards = dirichlet_partition(
            train_x, train_y, n, cfg.dirichlet_alpha, child_rng(cfg.seed, "partition")
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    test_task = replace(task, samples_per_class=cfg.test_samples_per_class)
    test_x, test_y = generate(test_task, child_rng(cfg.seed, "test"))
    sizes = np.array([shard.size for shard in shards], dtype=np.float64)
    size_w = sizes / sizes.sum()

    global_params = M.init_params(mcfg, child_rng(cfg.seed, "init"))
    # Client i's own gate, used in place of the global one under
    # no_gating_broadcast. Entries are rebound, never written in place.
    local_gates = [global_params.gate] * n

    def client_start(i: int) -> M.ModelParams:  # client i's model, in training and metrics
        if cfg.ablated("no_gating_broadcast"):
            return replace(global_params, gate=local_gates[i])
        return global_params

    # The round's client updates, one leading client axis per block; row i
    # is refilled as client i's round returns.
    deltas = M.ModelParams(
        *(np.empty((n,) + getattr(global_params, b).shape) for b in M.ModelParams.BLOCKS)
    )
    p_g = np.full(s, 1.0 / s)
    prev_mean = np.full(s, 1.0 / s)
    prev_p_bar = np.full((n, s), 1.0 / s)

    is_align = cfg.method == "fedalign"
    records: list[RoundRecord] = []
    reports: list[S.AggregationReport] = []

    # Pre-aggregation reference level: per-shard routing spread of the
    # initial model, before any training or aggregation has happened.
    init_p_bar, _ = shard_routing(mcfg, client_start, shards)
    initial_disagreement = float(total_variation(init_p_bar, init_p_bar.mean(axis=0)).mean())

    for t in range(1, cfg.rounds + 1):
        p_bar, margin = np.empty((n, s)), np.empty((n, s))
        mu, mu_empty = np.empty((s, n, cfg.hidden_dim)), np.empty((s, n), dtype=bool)
        local_loss, reg_loss = np.empty(n), np.empty(n)
        if is_align and not cfg.ablated("no_adaptive_alpha"):
            alpha = C.compute_alpha(prev_p_bar * prev_mean, cfg.eta)
        else:
            alpha = np.ones((n, s))
        for i, shard in enumerate(shards):
            start = client_start(i)
            ctx = C.RegContext(p_g=p_g, lam=cfg.lam if is_align else 0.0, alpha=alpha[i])
            try:
                res = C.local_round(
                    mcfg,
                    start,
                    shard,
                    ctx,
                    epochs=cfg.local_epochs,
                    lr=cfg.lr,
                    rng=child_rng(cfg.seed, "client", i, "round", t),
                    batch_size=cfg.batch_size,
                    prox_mu=cfg.prox_mu if cfg.method == "fedprox" else 0.0,
                    prox_ref=global_params if cfg.method == "fedprox" else None,
                )
            except FloatingPointError as exc:
                raise FloatingPointError(f"round {t}, client {i}: {exc}") from exc
            for b in M.ModelParams.BLOCKS:
                getattr(deltas, b)[i] = getattr(res.param_delta, b)
            p_bar[i], margin[i], local_loss[i] = res.p_bar, res.margin, res.mean_local_loss
            mu[:, i], mu_empty[:, i], reg_loss[i] = res.mu, res.mu_empty, res.mean_reg_loss
            local_gates[i] = start.gate + res.param_delta.gate

        mean_p = p_bar.mean(axis=0)
        if is_align and not cfg.ablated("no_consistency_weighting"):
            omega = S.consistency_weights(p_bar, margin)
            p_g_new = S.global_routing(p_bar, omega)
        else:
            omega = np.full((n, s), 1.0 / n)
            p_g_new = mean_p / mean_p.sum()

        sim, dcons = S.pairwise_semantics(mu, mu_empty, deltas)
        tau, mean_sim, disp = S.adaptive_threshold(sim, cfg.beta)
        if cfg.ablated("fixed_threshold"):
            tau = np.full(s, float(cfg.fixed_tau))
        gamma = S.gated_weights(
            sim, dcons, tau, use_direction=not cfg.ablated("no_direction_consensus")
        )

        if is_align and not cfg.ablated("uniform_gamma"):
            w_experts, updated = S.expert_weights(gamma)
        else:
            # Degenerate/baseline path: size-weighted averaging of every expert.
            w_experts = np.tile(size_w, (s, 1))
            updated = np.ones(s, dtype=bool)

        global_params = S.aggregate_experts(global_params, deltas, w_experts, updated, size_w)

        post_p_bar, local_accs = shard_routing(mcfg, client_start, shards)
        records.append(
            RoundRecord(
                round_index=t,
                global_accuracy=evaluate(mcfg, global_params, test_x, test_y),
                local_accuracy_mean=float(np.mean(local_accs)),
                local_accuracy_std=float(np.std(local_accs)),
                mean_local_loss=float(np.mean(local_loss)),
                mean_reg_loss=float(np.mean(reg_loss)),
                routing_disagreement_pre=float(total_variation(p_bar, p_g_new).mean()),
                routing_disagreement_post=float(total_variation(post_p_bar, p_g_new).mean()),
                routing_spread_pre=float(total_variation(p_bar, mean_p).mean()),
                routing_spread_post=float(
                    total_variation(post_p_bar, post_p_bar.mean(axis=0)).mean()
                ),
                routing_disruption=float(total_variation(post_p_bar, p_bar).mean()),
                expert_semantic_divergence=float(np.mean(1.0 - mean_sim)),
            )
        )
        reports.append(
            S.AggregationReport(
                round_index=t,
                omega=omega,
                gamma_row_sums=gamma.sum(axis=2),
                mean_sim=mean_sim,
                dispersion=disp,
                tau=tau,
            )
        )

        p_g = p_g_new
        prev_mean = mean_p
        prev_p_bar = p_bar

    result = ExperimentResult(cfg, records, global_params, reports, initial_disagreement)
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
    fields = [
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
        writer.writerow(fields)
        for rec in result.records:
            row = asdict(rec)
            writer.writerow([repr(row[f]) if isinstance(row[f], float) else row[f] for f in fields])
    with open(out / "aggregation.jsonl", "w", newline="\n") as fh:
        for rep in result.reports:
            fh.write(rep.to_json_record() + "\n")
    M.save_checkpoint(out / "final.ckpt", result.config.model_config(), result.final_params)
