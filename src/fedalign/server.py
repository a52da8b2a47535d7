"""Server-side aggregation alignment: routing-consistency weighting, the
global routing reference, semantic-aware expert aggregation with adaptive
thresholds, and size-weighted averaging for the remaining blocks.

Every input carries one client axis of length N, in client-id order: the
routing masses and margins are (N, S), the mu rows (S, N, H), and the
round's updates one `ModelParams` of deltas whose blocks lead with N. Every
block is aggregated by the one kernel `weighted_average`, which accumulates
in ascending client order, so results are bitwise reproducible.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import model as M
from .numeric import NORM_FLOOR, cosine_sim, sigmoid

log = logging.getLogger(__name__)


@dataclass
class AggregationReport:
    round_index: int
    omega: np.ndarray  # (N, S)
    gamma_row_sums: np.ndarray  # (S, N) gamma summed over partner clients
    mean_sim: np.ndarray  # (S,) M(e)
    dispersion: np.ndarray  # (S,) Sigma(e)
    tau: np.ndarray  # (S,)

    def to_json_record(self) -> str:
        rec = {
            "round": self.round_index,
            "omega": self.omega.tolist(),
            "tau": self.tau.tolist(),
            "mean_sim": self.mean_sim.tolist(),
            "dispersion": self.dispersion.tolist(),
            "gamma_row_sums": self.gamma_row_sums.tolist(),
        }
        return json.dumps(rec, sort_keys=True)


def consistency_weights(p_bar: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Per-expert client weights omega (N x S) from the clients' routing
    masses p_bar and top-1 margins, both (N, S).

    s_i(e) = o_i(e) * m_i(e) with o_i(e) the product of the client's routing
    mass and the cross-client mean mass. Columns with total score below
    NORM_FLOOR fall back to uniform 1/N (logged).
    """
    n = p_bar.shape[0]
    mean_p = p_bar.mean(axis=0)
    score = p_bar * mean_p[None, :] * margin  # o * m
    col = score.sum(axis=0)
    degenerate = col < NORM_FLOOR
    if degenerate.any():
        log.info("uniform omega fallback for experts %s", np.nonzero(degenerate)[0].tolist())
    omega = np.empty_like(score)
    omega[:, degenerate] = 1.0 / n
    safe = ~degenerate
    omega[:, safe] = score[:, safe] / col[safe][None, :]
    return omega


def global_routing(p_bar: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Consistency-weighted routing reference from the (N, S) p_bar,
    renormalized onto the simplex.

    Per-expert weighting breaks simplex membership, so the raw vector is
    renormalized; an all-zero raw vector degenerates to uniform.
    """
    raw = (omega * p_bar).sum(axis=0)
    total = raw.sum()
    if total < NORM_FLOOR:
        log.info("uniform p_g fallback: all raw entries zero")
        return np.full(raw.size, 1.0 / raw.size)
    return raw / total


def pairwise_semantics(
    mu: np.ndarray, mu_empty: np.ndarray, deltas: M.ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise semantic similarity S and direction consensus D per expert.

    S compares the clients' mu rows (S, N, H), D their `model.expert_rows`
    of the stacked update; each expert takes one Gram-form `cosine_sim`
    call per quantity. Any pair where either mu is empty-flagged (mu_empty
    is (S, N)) or either delta is zero is excluded from consensus: both
    entries are 0. A zero delta row is the one with a zero self-cosine.
    """
    s, n = mu_empty.shape
    sim = np.empty((s, n, n))
    dcons = np.empty((s, n, n))
    for e in range(s):
        d = cosine_sim(M.expert_rows(deltas, np.s_[:, e]))
        valid = ~mu_empty[e] & (np.diagonal(d) > 0.0)
        pair = valid[:, None] & valid[None, :]
        sim[e] = np.where(pair, cosine_sim(mu[e]), 0.0)
        dcons[e] = np.where(pair, d, 0.0)
    return sim, dcons


def adaptive_threshold(
    pairwise_sim: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-expert threshold tau = M - beta * Sigma over all N^2 pairs,
    diagonal self-pairs included; Sigma is the population std."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    s = pairwise_sim.shape[0]
    mean_sim = pairwise_sim.reshape(s, -1).mean(axis=1)
    disp = np.sqrt(((pairwise_sim.reshape(s, -1) - mean_sim[:, None]) ** 2).mean(axis=1))
    return mean_sim - beta * disp, mean_sim, disp


def gated_weights(
    pairwise_sim: np.ndarray,
    dcons: np.ndarray,
    tau: np.ndarray,
    use_direction: bool = True,
) -> np.ndarray:
    """Region-conditioned gate: gamma = sigmoid(S - tau) * max(0, D).

    use_direction=False drops the direction-consensus factor (ablation).
    """
    gate = sigmoid(pairwise_sim - tau[:, None, None])
    if use_direction:
        gate = gate * np.maximum(0.0, dcons)
    return gate


def expert_weights(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-expert client weights w_i(e) = sum_j gamma_ij / sum_ij gamma_ij.

    Returns (weights (S, N), updated (S,) bool); experts whose gamma mass is
    below NORM_FLOOR are flagged not-updated (no consensus, no update).
    """
    row = gamma.sum(axis=2)  # (S, N)
    total = row.sum(axis=1)  # (S,)
    updated = total >= NORM_FLOOR
    w = np.zeros_like(row)
    w[updated] = row[updated] / total[updated, None]
    return w, updated


def aggregate_experts(
    global_params: M.ModelParams,
    deltas: M.ModelParams,
    weights: np.ndarray,
    updated: np.ndarray,
    size_weights: np.ndarray,
) -> M.ModelParams:
    """One round's new global model: every block plus the weighted sum of
    the client deltas, whose blocks lead with the client axis, in ascending
    client order.

    Expert blocks take the per-expert weights (S, N); experts not `updated`
    keep their previous bytes. The other blocks take size_weights (N,).
    """
    frozen = ~np.asarray(updated, dtype=bool)
    out = []
    for b in M.ModelParams.BLOCKS:
        old = getattr(global_params, b)
        is_expert = b in M.EXPERT_BLOCKS
        new = old + weighted_average(getattr(deltas, b), weights if is_expert else size_weights)
        if is_expert:
            new[frozen] = old[frozen]
        out.append(new)
    return M.ModelParams(*out)


def weighted_average(blocks, weights: np.ndarray) -> np.ndarray:
    """sum_i weights[..., i] * blocks[i], accumulated in ascending order.

    blocks is an (N, ...) array or a sequence of N equal-shape arrays.
    weights are already normalized: (N,), or (S, N) with row e applied to
    entry e of each block's leading (expert) axis.
    """
    weights = np.asarray(weights, dtype=np.float64)
    acc = np.zeros_like(blocks[0])
    for i, blk in enumerate(blocks):
        w = weights[..., i]
        acc += w.reshape(w.shape + (1,) * (blk.ndim - w.ndim)) * blk
    return acc
