"""Server-side aggregation alignment: routing-consistency weighting, the
global routing reference, semantic-aware expert aggregation with adaptive
thresholds, and size-weighted averaging for the remaining blocks.

A client update is a `ModelParams` of deltas. Every block is aggregated by
the one kernel `weighted_average`, which accumulates in ascending client
order, so results are bitwise reproducible under permutations of the
upload list once it is sorted by client id.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import model as M
from .numeric import NORM_FLOOR, cosine_sim, sigmoid

if TYPE_CHECKING:  # client imports baselines, which imports this module
    from .client import RoutingStats

log = logging.getLogger(__name__)


@dataclass
class GlobalReference:
    p_g: np.ndarray  # (S,)
    tau: np.ndarray  # (S,)
    round_index: int

    def __post_init__(self):
        if np.any(self.p_g < 0) or abs(self.p_g.sum() - 1.0) > 1e-9:
            raise ValueError("p_g must be a distribution")


@dataclass
class AggregationReport:
    round_index: int
    omega: np.ndarray  # (N, S)
    gamma: np.ndarray  # (S, N, N)
    mean_sim: np.ndarray  # (S,) M(e)
    dispersion: np.ndarray  # (S,) Sigma(e)
    pairwise_sim: np.ndarray  # (S, N, N)
    tau: np.ndarray  # (S,)

    def to_json_record(self) -> str:
        rec = {
            "round": self.round_index,
            "omega": self.omega.tolist(),
            "tau": self.tau.tolist(),
            "mean_sim": self.mean_sim.tolist(),
            "dispersion": self.dispersion.tolist(),
            "gamma_row_sums": self.gamma.sum(axis=2).tolist(),
        }
        return json.dumps(rec, sort_keys=True)


def consistency_weights(stats: list[RoutingStats]) -> np.ndarray:
    """Per-expert client weights omega (N x S).

    s_i(e) = o_i(e) * m_i(e) with o_i(e) the product of the client's routing
    mass and the cross-client mean mass. Columns with total score below
    NORM_FLOOR fall back to uniform 1/N (logged).
    """
    n = len(stats)
    p_bar = np.stack([st.p_bar for st in stats])  # (N, S)
    margin = np.stack([st.margin for st in stats])
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


def global_routing(stats: list[RoutingStats], omega: np.ndarray) -> np.ndarray:
    """Consistency-weighted routing reference, renormalized onto the simplex.

    Per-expert weighting breaks simplex membership, so the raw vector is
    renormalized; an all-zero raw vector degenerates to uniform.
    """
    p_bar = np.stack([st.p_bar for st in stats])
    raw = (omega * p_bar).sum(axis=0)
    total = raw.sum()
    if total < NORM_FLOOR:
        log.info("uniform p_g fallback: all raw entries zero")
        return np.full(raw.size, 1.0 / raw.size)
    return raw / total


def pairwise_semantics(
    stats: list[RoutingStats], deltas: list[M.ModelParams]
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise semantic similarity S and direction consensus D per expert.

    D compares the clients' `model.expert_rows` of the update. Any pair
    where either mu is empty-flagged or either delta is zero is excluded
    from consensus: both entries are set to 0.
    """
    n = len(stats)
    s = stats[0].p_bar.size
    sim = np.zeros((s, n, n))
    dcons = np.zeros((s, n, n))
    for e in range(s):
        rows = np.concatenate([M.expert_rows(d, slice(e, e + 1)) for d in deltas])
        valid = [
            not stats[i].mu_empty[e] and np.linalg.norm(rows[i]) >= NORM_FLOOR
            for i in range(n)
        ]
        for i in range(n):
            for j in range(i, n):
                if valid[i] and valid[j]:
                    sv = cosine_sim(stats[i].mu[e], stats[j].mu[e])
                    dv = cosine_sim(rows[i], rows[j])
                    sim[e, i, j] = sim[e, j, i] = sv
                    dcons[e, i, j] = dcons[e, j, i] = dv
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
    deltas: list[M.ModelParams],
    weights: np.ndarray,
    updated: np.ndarray,
    size_weights: np.ndarray,
) -> M.ModelParams:
    """One round's new global model: every block plus the weighted sum of
    the client deltas in ascending client order.

    Expert blocks take the per-expert weights (S, N); experts not `updated`
    keep their previous bytes. The other blocks take size_weights (N,).
    """
    frozen = ~np.asarray(updated, dtype=bool)
    out = []
    for b in M.ModelParams.BLOCKS:
        old = getattr(global_params, b)
        is_expert = b in M.EXPERT_BLOCKS
        new = old + weighted_average(
            [getattr(d, b) for d in deltas], weights if is_expert else size_weights
        )
        if is_expert:
            new[frozen] = old[frozen]
        out.append(new)
    return M.ModelParams(*out)


def weighted_average(blocks: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """sum_i weights[..., i] * blocks[i], accumulated in ascending order.

    weights are already normalized: (N,), or (S, N) with row e applied to
    entry e of each block's leading (expert) axis.
    """
    weights = np.asarray(weights, dtype=np.float64)
    acc = np.zeros_like(blocks[0])
    for i, blk in enumerate(blocks):
        w = weights[..., i]
        acc += w.reshape(w.shape + (1,) * (blk.ndim - w.ndim)) * blk
    return acc
