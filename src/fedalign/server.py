"""Server-side aggregation alignment: routing-consistency weighting, the
global routing reference, semantic-aware expert aggregation with adaptive
thresholds, and size-weighted averaging for the remaining blocks.

The round reads the clients' uploads as one `client.Uploads`, whose
fields lead with one client axis of length N, in client-id order, so
`[:, e]` reads expert e of every client. Semantic gating takes one expert
at a time: (N, H) mu rows, (N, P) update rows and (N, N) similarity,
consensus and gate; only gamma's (S, N) row sums reach `expert_weights`.
Every block is aggregated by the one kernel `weighted_average`, which
accumulates in ascending client order, so results are bitwise
reproducible. `aggregate_round` joins them into the round.
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


def _normalize(mass: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """`mass` over its sums along `axis`, and the mask of sums below
    NORM_FLOOR (`axis` dropped), where the quotient is left 0: the one
    fallback test of omega, p_g and the expert weights."""
    total = mass.sum(axis=axis, keepdims=True)
    low = total < NORM_FLOOR
    out = np.divide(mass, total, out=np.zeros_like(mass), where=~low)
    return out, low.squeeze(axis)


def consistency_weights(p_bar: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Per-expert client weights omega (N x S) from the clients' routing
    masses p_bar and top-1 margins, both (N, S).

    Client i scores p_bar_i(e) * m_i(e) for expert e, and omega is the score
    normalized down each expert's column. A column whose scores sum below
    NORM_FLOOR falls back to uniform 1/N (logged).
    """
    omega, low = _normalize(p_bar * margin, axis=0)
    if low.any():
        log.info("uniform omega fallback for experts %s", np.nonzero(low)[0].tolist())
        omega[:, low] = 1.0 / p_bar.shape[0]
    return omega


def global_routing(p_bar: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Consistency-weighted routing reference from the (N, S) p_bar,
    renormalized onto the simplex.

    Per-expert weighting breaks simplex membership, so the raw vector is
    renormalized; an all-zero raw vector degenerates to uniform.
    """
    p_g, low = _normalize((omega * p_bar).sum(axis=0), axis=0)
    if low:
        log.info("uniform p_g fallback: all raw entries zero")
        p_g[:] = 1.0 / p_g.size
    return p_g


def pairwise_semantics(
    mu_e: np.ndarray, mu_empty_e: np.ndarray, rows_e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One expert's pairwise semantic similarity S and direction consensus
    D, each (N, N).

    S compares the clients' mu rows for the expert (N, H), D their update
    rows (N, P), `model.expert_rows(deltas, np.s_[:, e])`; each takes one
    Gram-form `cosine_sim` call. Any pair where either mu is empty-flagged
    (mu_empty_e is (N,)) or either update row is zero is excluded from
    consensus: both entries are 0. A zero update row is the one with a
    zero self-cosine.
    """
    d = cosine_sim(rows_e)
    valid = ~mu_empty_e & (np.diagonal(d) > 0.0)
    pair = valid[:, None] & valid[None, :]
    return np.where(pair, cosine_sim(mu_e), 0.0), np.where(pair, d, 0.0)


def adaptive_threshold(sim: np.ndarray, beta: float) -> tuple[float, float, float]:
    """One expert's threshold tau = M - beta * Sigma over all N^2 pairs of
    its (N, N) similarities, diagonal self-pairs included; Sigma is the
    population std. Returns (tau, M, Sigma)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    mean_sim = sim.mean()
    disp = np.sqrt(((sim - mean_sim) ** 2).mean())
    return mean_sim - beta * disp, mean_sim, disp


def gated_weights(
    sim: np.ndarray, dcons: np.ndarray, tau: float, use_direction: bool = True
) -> np.ndarray:
    """One expert's region-conditioned gate gamma = sigmoid(S - tau) *
    max(0, D), (N, N).

    use_direction=False drops the direction-consensus factor (ablation).
    """
    gate = sigmoid(sim - tau)
    if use_direction:
        gate = gate * np.maximum(0.0, dcons)
    return gate


def expert_weights(gamma_row_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-expert client weights w_i(e) = sum_j gamma_ij / sum_ij gamma_ij
    from gamma's row sums (S, N).

    Returns (weights (S, N), updated (S,) bool); experts whose gamma mass is
    below NORM_FLOOR are flagged not-updated (no consensus, no update).
    """
    w, low = _normalize(gamma_row_sums, axis=1)
    return w, ~low


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


def aggregate_round(
    global_params, uploads, size_weights, round_index, *,
    beta, fixed_tau=None, consistency=True, semantic_weights=True, direction=True,
) -> tuple[M.ModelParams, np.ndarray, AggregationReport]:
    """The server's round from a round's `client.Uploads`: the new global
    model, p_g (S,) and the report. p_g is `global_routing(p_bar, omega)`
    for every method; without `consistency` omega is uniform 1/N, so p_g is
    the renormalized mean p_bar. `fixed_tau` replaces every adaptive tau,
    `direction=False` drops D, and without `semantic_weights` every expert
    is size-weighted and updated."""
    deltas, p_bar = uploads.param_delta, uploads.p_bar
    n, s = p_bar.shape
    omega = consistency_weights(p_bar, uploads.margin) if consistency else np.full((n, s), 1.0 / n)
    p_g = global_routing(p_bar, omega)

    tau, mean_sim, disp, gamma_rows = np.empty(s), np.empty(s), np.empty(s), np.empty((s, n))
    for e in range(s):
        sim, dcons = pairwise_semantics(
            uploads.mu[:, e], uploads.mu_empty[:, e], M.expert_rows(deltas, np.s_[:, e])
        )
        tau[e], mean_sim[e], disp[e] = adaptive_threshold(sim, beta)
        if fixed_tau is not None:
            tau[e] = fixed_tau
        gamma_rows[e] = gated_weights(sim, dcons, tau[e], direction).sum(axis=1)

    if semantic_weights:
        w_experts, updated = expert_weights(gamma_rows)
    else:
        w_experts, updated = np.tile(size_weights, (s, 1)), np.ones(s, dtype=bool)
    new_params = aggregate_experts(global_params, deltas, w_experts, updated, size_weights)
    report = AggregationReport(round_index, omega, gamma_rows, mean_sim, disp, tau)
    return new_params, p_g, report


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
