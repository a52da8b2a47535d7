"""Reference aggregators run under the identical harness: FedAvg and the
FedProx proximal term. FedAvg is the server's aggregation kernel with
dataset-size weights on every block. `prox_term` states the proximal loss
and its gradient; the shared local_round adds that gradient on the flat
buffer itself, anchored at the model the client starts from, and does not
call it."""

from __future__ import annotations

import numpy as np

from . import model as M
from .server import weighted_average


def fedavg_aggregate(params: list[M.ModelParams], sizes) -> M.ModelParams:
    """Dataset-size-weighted average of every parameter block."""
    w = np.asarray(sizes, dtype=np.float64) / np.sum(sizes)
    return M.ModelParams(
        *(weighted_average([getattr(p, b) for p in params], w) for b in M.ModelParams.BLOCKS)
    )


def prox_term(
    params: M.ModelParams, global_snapshot: M.ModelParams, mu: float
) -> tuple[float, M.ModelParams]:
    """(mu/2) * ||theta - theta_global||^2 and its gradient mu * (theta - theta_global)."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    loss = 0.0
    grads = []
    for b in M.ModelParams.BLOCKS:
        diff = getattr(params, b) - getattr(global_snapshot, b)
        loss += 0.5 * mu * float((diff * diff).sum())
        grads.append(mu * diff)
    return loss, M.ModelParams(*grads)
