"""One client's local round: mini-batch SGD on the combined objective,
followed by a single evaluation pass that produces the routing statistics
and the parameter update the server aggregates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from .data import ClientDataset
from .numeric import sigmoid


@dataclass
class RegContext:
    """Everything the regularizer needs during one local round.

    alpha is precomputed from the previous round's statistics. A row's KL
    mask is its dispatch set (the experts `forward` routed it to) OR the
    reference set `ref`, the top-k of `p_g`, built once here.
    """

    p_g: np.ndarray  # (S,) global routing reference, sums to 1
    lam: float  # balancing coefficient on the regularizer
    alpha: np.ndarray  # (S,) adaptive per-expert weights
    top_k: int  # experts per row, the size of the reference set
    ref: np.ndarray = field(init=False)  # (top_k,) top-k of p_g, dispatch order

    def __post_init__(self):
        self.p_g = np.asarray(self.p_g, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        p_g = self.p_g
        if not np.isfinite(p_g).all() or np.any(p_g < 0) or abs(p_g.sum() - 1.0) > 1e-9:
            raise ValueError("p_g must be a distribution")
        self.ref = M.top_k_select(p_g, self.top_k)


@dataclass(frozen=True)
class Uploads:
    """What clients send the server: the update and its routing statistics.

    One client's record, `local_round`'s return, has the shapes below. A
    round's record (`empty`) leads each field with the client axis N and
    lays `param_delta` over one (N, P) buffer; `uploads[idx] = rows` writes
    rows idx, an int or an index array, of every field. Each field is its
    own array: keeping `p_bar` for the next round frees the rest."""

    param_delta: M.ModelParams  # new - start for every block: the client update
    p_bar: np.ndarray  # (S,) mean top-k routing mass
    margin: np.ndarray  # (S,) mean top-1 decision margin
    mu: np.ndarray  # (S, hidden_dim) mean hidden state per argmax expert
    mu_empty: np.ndarray  # (S,) bool, True where no sample argmaxed to e
    mean_local_loss: float
    mean_reg_loss: float

    @classmethod
    def empty(cls, n: int, config: M.MoEConfig) -> "Uploads":
        """A round's record for n clients, not yet written."""
        s, size = config.num_experts, sum(map(math.prod, config.shapes))
        delta = M.ModelParams.from_flat(np.empty((n, size)), config.shapes)
        stats = np.empty((n, s)), np.empty((n, s)), np.empty((n, s, config.hidden_dim))
        return cls(delta, *stats, np.empty((n, s), dtype=bool), np.empty(n), np.empty(n))

    def __setitem__(self, idx, rows: "Uploads"):
        self.param_delta.flat[idx] = rows.param_delta.flat
        for name in ("p_bar", "margin", "mu", "mu_empty", "mean_local_loss", "mean_reg_loss"):
            getattr(self, name)[idx] = getattr(rows, name)


def compute_p_bar(trace: M.ForwardTrace) -> np.ndarray:
    """Mean of the sparse top-k probabilities; zero mass off the active set."""
    return trace.topk_probs.mean(axis=0)


def compute_margin(trace: M.ForwardTrace) -> np.ndarray:
    """Mean positive dominance of each expert's full-softmax probability over
    the best alternative, credited to the expert each sample is routed to
    first, `topk_idx[:, 0]`; at most one expert per sample contributes. With
    a single expert the alternative has probability 0."""
    fp = trace.full_probs
    s = fp.shape[1]
    rows = np.arange(fp.shape[0])
    top = trace.topk_idx[:, 0]
    rest = fp.copy()
    rest[rows, top] = -np.inf
    gap = fp[rows, top] - (rest.max(axis=1) if s > 1 else 0.0)
    return np.bincount(top, weights=np.maximum(gap, 0.0), minlength=s) / fp.shape[0]


def compute_mu(trace: M.ForwardTrace) -> tuple[np.ndarray, np.ndarray]:
    """Mean hidden state per expert over samples whose argmax gate score,
    `topk_idx[:, 0]`, is that expert; empty assignment sets a zero row plus a flag.

    One pass adds the rows onto zeros in sample order, which is how numpy
    reduces `hidden[rows].mean(axis=0)` whenever hidden_dim >= 2, so the
    means keep those bits; a single column would be summed pairwise."""
    s = trace.full_probs.shape[1]
    h = trace.hidden
    width = h.shape[1]
    assign = trace.topk_idx[:, 0]
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


def reg_loss(trace: M.ForwardTrace, ctx: RegContext) -> float:
    """Batch-mean masked KL between the local routing softmax and p_g.

    The per-sample values are added front to back from 0.0, not by numpy's
    pairwise sum, which keeps the reported `mean_reg_loss` byte-stable."""
    vals = M.masked_kl_values(trace.full_probs, trace.topk_idx, ctx.ref, ctx.p_g, ctx.alpha)
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
) -> Uploads:
    """Run E epochs of mini-batch SGD on L_total, then compute the routing
    statistics in one evaluation pass with the final parameters.

    prox_mu > 0 adds the FedProx proximal gradient prox_mu * (theta -
    params_in) to the gradient (FedProx client): the anchor is the model the
    client starts from. lr may be 0, which degenerates to a pure evaluation
    pass with zero deltas.

    Each epoch gathers the shard in its permuted order once and slices the
    mini-batches from it. The update is one operation on the parameters'
    flat buffer.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    params = params_in.copy()
    theta = params.flat

    n = shard.size
    for _epoch in range(epochs):
        order = rng.permutation(n)
        features, labels = shard.features[order], shard.labels[order]
        for start in range(0, n, batch_size):
            stop = start + batch_size
            trace, loss = M.forward(config, params, features[start:stop], labels[start:stop])
            if loss is None or not np.isfinite(loss):
                raise FloatingPointError("non-finite training loss, aborting round")
            grad = M.backward(trace, params, lam=ctx.lam, reg_ctx=ctx).flat
            if prox_mu > 0.0:
                grad += prox_mu * (theta - params_in.flat)
            theta -= lr * grad
            params.check_finite()

    # Statistics reflect the final model: one pass over the whole shard.
    trace, mean_local = M.forward(config, params, shard.features, shard.labels)
    mu, empty = compute_mu(trace)
    return Uploads(
        param_delta=M.ModelParams.from_flat(theta - params_in.flat, params.shapes),
        p_bar=compute_p_bar(trace), margin=compute_margin(trace), mu=mu, mu_empty=empty,
        mean_local_loss=mean_local, mean_reg_loss=reg_loss(trace, ctx),
    )
