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


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def _broadcast_params(
    cfg: ExperimentConfig, global_params: M.ModelParams, local_gate: np.ndarray | None
) -> M.ModelParams:
    params = global_params.copy()
    if cfg.ablated("no_gating_broadcast") and local_gate is not None:
        params.gate = local_gate.copy()
    return params


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    errors = cfg.validate()
    if errors:
        raise ConfigError(errors)
    mcfg = cfg.model_config()
    s, n = cfg.num_experts, cfg.num_clients

    task = make_default_task(
        cfg.num_classes,
        cfg.input_dim,
        cfg.samples_per_class,
        cfg.noise_std,
        child_rng(cfg.seed, "task"),
        mean_scale=cfg.mean_scale,
    )
    train_x, train_y = generate(task, child_rng(cfg.seed, "data"))
    test_task = replace(task, samples_per_class=cfg.test_samples_per_class)
    test_x, test_y = generate(test_task, child_rng(cfg.seed, "test"))
    try:
        shards = dirichlet_partition(
            train_x, train_y, n, cfg.dirichlet_alpha, child_rng(cfg.seed, "partition")
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc

    global_params = M.init_params(mcfg, child_rng(cfg.seed, "init"))
    local_gates: list[np.ndarray | None] = [None] * n
    p_g = np.full(s, 1.0 / s)
    prev_mean = np.full(s, 1.0 / s)
    prev_p_bar = [np.full(s, 1.0 / s) for _ in range(n)]

    is_align = cfg.method == "fedalign"
    records: list[RoundRecord] = []
    reports: list[S.AggregationReport] = []

    # Pre-aggregation reference level: per-shard routing spread of the
    # initial model, before any training or aggregation has happened.
    init_p_bars = [
        C.compute_p_bar(M.forward(mcfg, global_params, sh.features)[0]) for sh in shards
    ]
    init_mean = np.mean(init_p_bars, axis=0)
    initial_disagreement = float(
        np.mean([total_variation(pb, init_mean) for pb in init_p_bars])
    )

    for t in range(1, cfg.rounds + 1):
        results: list[C.LocalRoundResult] = []
        for shard in shards:
            i = shard.client_id
            start = _broadcast_params(cfg, global_params, local_gates[i])
            overlap = prev_p_bar[i] * prev_mean
            if is_align and not cfg.ablated("no_adaptive_alpha"):
                alpha = C.compute_alpha(overlap, cfg.eta)
            else:
                alpha = np.ones(s)
            ctx = C.RegContext(p_g=p_g, lam=cfg.lam if is_align else 0.0, alpha=alpha)
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
                    overlap=overlap,
                )
            except FloatingPointError as exc:
                raise FloatingPointError(f"round {t}, client {i}: {exc}") from exc
            results.append(res)
            local_gates[i] = start.gate + res.param_delta.gate

        # Canonical client order for every reduction.
        results.sort(key=lambda r: r.client_id)
        stats = [r.stats for r in results]
        deltas = [r.param_delta for r in results]
        sizes = np.array([st.dataset_size for st in stats], dtype=np.float64)
        p_bar_mat = np.stack([st.p_bar for st in stats])
        mean_p = p_bar_mat.mean(axis=0)

        if is_align and not cfg.ablated("no_consistency_weighting"):
            omega = S.consistency_weights(stats)
            p_g_new = S.global_routing(stats, omega)
        else:
            omega = np.full((n, s), 1.0 / n)
            p_g_new = mean_p / mean_p.sum()

        sim, dcons = S.pairwise_semantics(stats, deltas)
        tau, mean_sim, disp = S.adaptive_threshold(sim, cfg.beta)
        if cfg.ablated("fixed_threshold"):
            tau = np.full(s, float(cfg.fixed_tau))
        gamma = S.gated_weights(
            sim, dcons, tau, use_direction=not cfg.ablated("no_direction_consensus")
        )

        size_w = sizes / sizes.sum()
        if is_align and not cfg.ablated("uniform_gamma"):
            w_experts, updated = S.expert_weights(gamma)
        else:
            # Degenerate/baseline path: size-weighted averaging of every expert.
            w_experts = np.tile(size_w, (s, 1))
            updated = np.ones(s, dtype=bool)

        global_params = S.aggregate_experts(global_params, deltas, w_experts, updated, size_w)

        # Metrics.
        pre_dis = float(np.mean([total_variation(pb, p_g_new) for pb in p_bar_mat]))
        post_p_bars = []
        local_accs = []
        for shard in shards:
            bparams = _broadcast_params(cfg, global_params, local_gates[shard.client_id])
            trace, _ = M.forward(mcfg, bparams, shard.features)
            post_p_bars.append(C.compute_p_bar(trace))
            pred = np.argmax(trace.logits, axis=1)
            local_accs.append(float((pred == shard.labels).mean()))
        post_dis = float(np.mean([total_variation(pb, p_g_new) for pb in post_p_bars]))
        mean_post = np.mean(post_p_bars, axis=0)
        spread_pre = float(np.mean([total_variation(pb, mean_p) for pb in p_bar_mat]))
        spread_post = float(np.mean([total_variation(pb, mean_post) for pb in post_p_bars]))
        disruption = float(
            np.mean([total_variation(a, b) for a, b in zip(post_p_bars, p_bar_mat)])
        )
        records.append(
            RoundRecord(
                round_index=t,
                global_accuracy=evaluate(mcfg, global_params, test_x, test_y),
                local_accuracy_mean=float(np.mean(local_accs)),
                local_accuracy_std=float(np.std(local_accs)),
                mean_local_loss=float(np.mean([r.mean_local_loss for r in results])),
                mean_reg_loss=float(np.mean([r.mean_reg_loss for r in results])),
                routing_disagreement_pre=pre_dis,
                routing_disagreement_post=post_dis,
                routing_spread_pre=spread_pre,
                routing_spread_post=spread_post,
                routing_disruption=disruption,
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
        for idx, st in enumerate(stats):
            prev_p_bar[idx] = st.p_bar

    result = ExperimentResult(cfg, records, global_params, reports, initial_disagreement)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


def emit_metrics(records: list[RoundRecord], out_dir, initial_disagreement=None):
    """metrics.jsonl (schema header + one record per line) and summary.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonl = out / "metrics.jsonl"
    header = {"schema": METRICS_SCHEMA}
    if initial_disagreement is not None:
        header["initial_disagreement"] = initial_disagreement
    with open(jsonl, "w", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
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
        for rec in records:
            row = asdict(rec)
            writer.writerow([repr(row[f]) if isinstance(row[f], float) else row[f] for f in fields])
    return jsonl


def write_outputs(result: ExperimentResult, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_metrics(result.records, out, result.initial_disagreement)
    with open(out / "aggregation.jsonl", "w", newline="\n") as fh:
        for rep in result.reports:
            fh.write(rep.to_json_record() + "\n")
    M.save_checkpoint(out / "final.ckpt", result.config.model_config(), result.final_params)
