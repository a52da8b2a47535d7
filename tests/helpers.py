"""Test tools: builders for client updates (a `ModelParams` of deltas made
from per-expert rows, and the model a delta leads to), row scales around
NORM_FLOOR for property tests, and the central finite-difference gradient
checker."""

import numpy as np

from fedalign.model import ModelParams
from fedalign.numeric import NORM_FLOOR

# Row scales that put norms at zero, on both sides of NORM_FLOOR, and well
# above it.
NORM_SCALES = (0.0, 0.3 * NORM_FLOOR, NORM_FLOOR, 3 * NORM_FLOOR, 1.0, 1e5)


def expert_delta(rows, like=None):
    """An update whose `model.expert_rows` are `rows` (S, P), zero elsewhere.

    Block shapes follow `like`. Without it the hidden width is 1 and each
    row is zero-padded to the next valid length 3E + 1; the padding leaves
    norms, cosines and weighted sums of the rows unchanged.
    """
    rows = np.asarray(rows, dtype=np.float64)
    s, p = rows.shape
    if like is None:
        eh = max(1, -(-(p - 1) // 3))
        rows = np.pad(rows, ((0, 0), (0, 3 * eh + 1 - p)))
        like = ModelParams(
            embed=np.zeros((1, 1)),
            gate=np.zeros((1, s)),
            expert_w1=np.zeros((s, 1, eh)),
            expert_b1=np.zeros((s, eh)),
            expert_w2=np.zeros((s, eh, 1)),
            expert_b2=np.zeros((s, 1)),
            head=np.zeros((1, 1)),
        )
    out = ModelParams(*(np.zeros_like(getattr(like, b)) for b in ModelParams.BLOCKS))
    names = ("expert_w1", "expert_b1", "expert_w2", "expert_b2")
    sizes = [getattr(out, b)[0].size for b in names]
    for b, part in zip(names, np.split(rows, np.cumsum(sizes)[:-1], axis=1)):
        setattr(out, b, part.reshape(getattr(out, b).shape).copy())
    return out


def apply_delta(params, delta):
    """start + delta for every block."""
    return ModelParams(*(getattr(params, b) + getattr(delta, b) for b in ModelParams.BLOCKS))


def grad_check(f, params, grad, eps=1e-5):
    """Max abs discrepancy between `grad` and central finite differences of f.

    Perturbs every entry of `params` by +/- eps. `f` must treat its argument
    as read-only apart from the perturbation done here.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape:
        raise ValueError("params/grad shape mismatch")
    work = params.copy()
    flat = work.ravel()
    gflat = grad.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(work)
        flat[i] = orig - eps
        fm = f(work)
        flat[i] = orig
        fd = (fp - fm) / (2.0 * eps)
        worst = max(worst, abs(gflat[i] - fd))
    return worst
