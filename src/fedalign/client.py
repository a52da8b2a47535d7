"""One client's local round: mini-batch SGD on the combined objective,
followed by a single evaluation pass that produces the routing statistics
and the parameter update the server aggregates."""

from __future__ import annotations

from dataclasses import dataclass

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
class LocalRoundResult:
    param_delta: M.ModelParams  # new - start for every block: the client update
    p_bar: np.ndarray  # (S,) mean top-k routing mass
    margin: np.ndarray  # (S,) mean top-1 decision margin
    mu: np.ndarray  # (S, hidden_dim) mean hidden state per argmax expert
    mu_empty: np.ndarray  # (S,) bool, True where no sample argmaxed to e
    mean_local_loss: float
    mean_reg_loss: float


def compute_p_bar(trace: M.ForwardTrace) -> np.ndarray:
    """Mean of the sparse top-k probabilities; zero mass off the active set."""
    return trace.topk_probs.mean(axis=0)


def compute_margin(trace: M.ForwardTrace) -> np.ndarray:
    """Mean positive dominance of each expert's full-softmax probability over
    the best alternative; at most one expert per sample contributes. With a
    single expert the alternative has probability 0."""
    fp = trace.full_probs
    s = fp.shape[1]
    rows = np.arange(fp.shape[0])
    order = np.argsort(-fp, axis=1, kind="stable")
    top = order[:, 0]
    gap = fp[rows, top] - (fp[rows, order[:, 1]] if s > 1 else 0.0)
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
) -> LocalRoundResult:
    """Run E epochs of mini-batch SGD on L_total, then compute the routing
    statistics in one evaluation pass with the final parameters.

    prox_mu > 0 adds the proximal penalty toward prox_ref to every block's
    gradient (FedProx client). lr may be 0, which degenerates to a pure
    evaluation pass with zero deltas.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    params = params_in.copy()

    n = shard.size
    for _epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            trace, loss = M.forward(config, params, shard.features[idx], shard.labels[idx])
            if loss is None or not np.isfinite(loss):
                raise FloatingPointError("non-finite training loss, aborting round")
            grads = M.backward(trace, params, config, lam=ctx.lam, reg_ctx=ctx)
            if prox_mu > 0.0 and prox_ref is not None:
                prox = prox_term(params, prox_ref, prox_mu)[1]
                grads = M.ModelParams(
                    *(getattr(grads, b) + getattr(prox, b) for b in M.ModelParams.BLOCKS)
                )
            for b in M.ModelParams.BLOCKS:
                getattr(params, b)[...] -= lr * getattr(grads, b)
            params.check_finite()

    # Statistics reflect the final model: one pass over the whole shard.
    trace, mean_local = M.forward(config, params, shard.features, shard.labels)
    mean_reg = reg_loss(trace, ctx, config.top_k)
    mu, empty = compute_mu(trace)
    param_delta = M.ModelParams(
        *(getattr(params, b) - getattr(params_in, b) for b in M.ModelParams.BLOCKS)
    )
    return LocalRoundResult(
        param_delta=param_delta,
        p_bar=compute_p_bar(trace),
        margin=compute_margin(trace),
        mu=mu,
        mu_empty=empty,
        mean_local_loss=mean_local,
        mean_reg_loss=mean_reg,
    )
