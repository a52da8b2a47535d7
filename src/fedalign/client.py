"""One client's local round: mini-batch SGD on the combined objective,
followed by a single evaluation pass that produces the routing statistics
and the parameter update uploaded to the server."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as M
from .baselines import prox_term
from .data import ClientDataset
from .numeric import sigmoid


@dataclass
class RegContext:
    """Everything the regularizer needs during one local round.

    alpha is precomputed from the previous round's statistics; the mask is
    fixed policy (top-k of the local softmax union top-k of the reference).
    """

    p_g: np.ndarray  # (S,) global routing reference, sums to 1
    lam: float  # balancing coefficient on the regularizer
    alpha: np.ndarray  # (S,) adaptive per-expert weights

    def __post_init__(self):
        self.p_g = np.asarray(self.p_g, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if np.any(self.p_g < 0) or abs(self.p_g.sum() - 1.0) > 1e-9:
            raise ValueError("p_g must be a distribution")


@dataclass
class RoutingStats:
    p_bar: np.ndarray  # (S,) mean top-k routing mass
    overlap: np.ndarray  # (S,) client-side overlap that fed alpha this round
    margin: np.ndarray  # (S,) mean top-1 decision margin
    mu: np.ndarray  # (S, hidden_dim) mean hidden state per argmax expert
    mu_empty: np.ndarray  # (S,) bool, True where no sample argmaxed to e
    dataset_size: int


@dataclass
class LocalRoundResult:
    client_id: int
    param_delta: M.ModelParams  # new - start for every block: the client update
    activated: np.ndarray  # (S,) bool, expert selected for some training batch
    stats: RoutingStats
    mean_local_loss: float
    mean_reg_loss: float


def compute_p_bar(trace: M.ForwardTrace) -> np.ndarray:
    """Mean of the sparse top-k probabilities; zero mass off the active set."""
    return trace.topk_probs.mean(axis=0)


def compute_margin(trace: M.ForwardTrace) -> np.ndarray:
    """Mean positive dominance of each expert's full-softmax probability over
    the best alternative; at most one expert per sample contributes."""
    fp = trace.full_probs
    s = fp.shape[1]
    order = np.argsort(-fp, axis=1, kind="stable")
    top = order[:, 0]
    gap = fp[np.arange(fp.shape[0]), top] - fp[np.arange(fp.shape[0]), order[:, 1]]
    margin = np.zeros(s)
    np.add.at(margin, top, np.maximum(gap, 0.0))
    return margin / fp.shape[0]


def compute_mu(trace: M.ForwardTrace) -> tuple[np.ndarray, np.ndarray]:
    """Mean hidden state per expert over samples whose argmax gate score is
    that expert; empty assignment sets a zero row plus a flag.

    One pass adds the rows onto zeros in sample order, which is how numpy
    reduces `hidden[rows].mean(axis=0)` whenever hidden_dim >= 2, so the
    means keep those bits; a single column would be summed pairwise."""
    s = trace.scores.shape[1]
    h = trace.hidden
    width = h.shape[1]
    assign = np.argmax(trace.scores, axis=1)  # ties -> lowest index
    count = np.bincount(assign, minlength=s)
    mu = np.zeros((s, width))
    # Flat 1-D indices take numpy's fast add.at path.
    np.add.at(mu.reshape(-1), (assign[:, None] * width + np.arange(width)).ravel(), h.ravel())
    empty = count == 0
    mu[~empty] /= count[~empty, None]
    return mu, empty


def compute_alpha(overlap: np.ndarray, eta: float) -> np.ndarray:
    """Adaptive regularization weight: sigmoid(overlap - eta) per expert."""
    return sigmoid(np.asarray(overlap, dtype=np.float64) - eta)


def reg_loss(trace: M.ForwardTrace, ctx: RegContext, top_k: int) -> float:
    """Batch-mean masked KL between the local routing softmax and p_g.

    The per-sample values are added front to back from 0.0, not by numpy's
    pairwise sum, which keeps the reported `mean_reg_loss` byte-stable."""
    vals = M.masked_kl(trace.full_probs, ctx.p_g, ctx.alpha, top_k)
    return float(np.add.accumulate(np.concatenate(([0.0], vals)))[-1]) / trace.batch_size


def local_round(
    config: M.MoEConfig,
    params_in: M.ModelParams,
    shard: ClientDataset,
    ctx: RegContext,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
    batch_size: int = 32,
    prox_mu: float = 0.0,
    prox_ref: M.ModelParams | None = None,
    overlap: np.ndarray | None = None,
) -> LocalRoundResult:
    """Run E epochs of mini-batch SGD on L_total, then compute RoutingStats
    in one evaluation pass with the final parameters.

    prox_mu > 0 adds the proximal penalty toward prox_ref to every block's
    gradient (FedProx client). lr may be 0, which degenerates to a pure
    evaluation pass with zero deltas.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    params = params_in.copy()
    activated = np.zeros(config.num_experts, dtype=bool)

    n = shard.size
    for _epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            trace, loss = M.forward(config, params, shard.features[idx], shard.labels[idx])
            if loss is None or not np.isfinite(loss):
                raise FloatingPointError("non-finite training loss, aborting round")
            # Membership is the top-k index set, not tp > 0: an expert whose
            # renormalized probability underflows still counts.
            activated[trace.topk_idx] = True
            grads = M.backward(trace, params, config, lam=ctx.lam, reg_ctx=ctx)
            if prox_mu > 0.0 and prox_ref is not None:
                prox = prox_term(params, prox_ref, prox_mu)[1]
                grads = M.ModelParams(
                    *(getattr(grads, b) + getattr(prox, b) for b in M.ModelParams.BLOCKS)
                )
            for b in M.ModelParams.BLOCKS:
                getattr(params, b)[...] -= lr * getattr(grads, b)
            params.check_finite()

    # Statistics reflect the uploaded model: one pass over the whole shard.
    trace, mean_local = M.forward(config, params, shard.features, shard.labels)
    mean_reg = reg_loss(trace, ctx, config.top_k)
    mu, empty = compute_mu(trace)
    stats = RoutingStats(
        p_bar=compute_p_bar(trace),
        overlap=np.zeros(config.num_experts) if overlap is None else np.asarray(overlap),
        margin=compute_margin(trace),
        mu=mu,
        mu_empty=empty,
        dataset_size=n,
    )

    param_delta = M.ModelParams(
        *(getattr(params, b) - getattr(params_in, b) for b in M.ModelParams.BLOCKS)
    )
    return LocalRoundResult(
        client_id=shard.client_id,
        param_delta=param_delta,
        activated=activated,
        stats=stats,
        mean_local_loss=mean_local,
        mean_reg_loss=mean_reg,
    )


UPLOAD_MAGIC = b"FUP1"


def save_upload(path_prefix, config: M.MoEConfig, result: LocalRoundResult):
    """Client upload payload: binary blob of the per-expert update rows
    (`model.expert_rows` of the delta) and mu rows, plus a JSON sidecar of
    the scalar statistics."""
    stats = result.stats
    rows = M.expert_rows(result.param_delta)
    with open(f"{path_prefix}.bin", "wb") as fh:
        fh.write(UPLOAD_MAGIC)
        np.array([config.num_experts, rows.shape[1], stats.mu.shape[1]], dtype="<u4").tofile(fh)
        fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(stats.mu, dtype="<f8").tobytes())
    sidecar = {
        "client_id": result.client_id,
        "dataset_size": stats.dataset_size,
        "p_bar": stats.p_bar.tolist(),
        "overlap": stats.overlap.tolist(),
        "margin": stats.margin.tolist(),
        "mu_empty": stats.mu_empty.astype(int).tolist(),
        "activated": result.activated.astype(int).tolist(),
        "mean_local_loss": result.mean_local_loss,
        "mean_reg_loss": result.mean_reg_loss,
    }
    with open(f"{path_prefix}.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_upload(path_prefix) -> tuple[np.ndarray, np.ndarray, RoutingStats, dict]:
    """Returns (update rows (S, P), activated (S,), stats, sidecar dict).

    A truncated or over-long `.bin`, or a sidecar whose per-expert vectors
    disagree with the header's S, raises ValueError.
    """
    raw = Path(f"{path_prefix}.bin").read_bytes()
    if len(raw) < 16:  # magic and three uint32: S, P, H
        raise ValueError(f"truncated upload header: {len(raw)} of 16 bytes")
    if raw[:4] != UPLOAD_MAGIC:
        raise ValueError(f"bad upload magic {raw[:4]!r}")
    s, p, h = struct.unpack("<3I", raw[4:16])
    want = 16 + 8 * s * (p + h)
    if len(raw) < want:
        raise ValueError(
            f"truncated upload: {len(raw)} bytes, header S={s} P={p} H={h} needs {want}"
        )
    if len(raw) > want:
        raise ValueError(f"{len(raw) - want} trailing bytes in upload")
    body = np.frombuffer(raw, dtype="<f8", offset=16).astype(np.float64)
    rows = body[: s * p].reshape(s, p)
    mu = body[s * p :].reshape(s, h)
    with open(f"{path_prefix}.json") as fh:
        side = json.load(fh)
    for key in ("p_bar", "overlap", "margin", "mu_empty", "activated"):
        if len(side[key]) != s:
            raise ValueError(f"upload sidecar {key!r} has length {len(side[key])}, header S={s}")
    stats = RoutingStats(
        p_bar=np.array(side["p_bar"]),
        overlap=np.array(side["overlap"]),
        margin=np.array(side["margin"]),
        mu=mu,
        mu_empty=np.array(side["mu_empty"], dtype=bool),
        dataset_size=side["dataset_size"],
    )
    return rows, np.array(side["activated"], dtype=bool), stats, side
