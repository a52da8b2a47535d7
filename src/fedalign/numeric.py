"""Dense numeric kernels shared by the model, clients, and server.

All math is float64. Every log/division denominator in the codebase is
floored at EPS; vectors with norm below NORM_FLOOR are treated as zero
(no consensus) rather than normalized.
"""

from __future__ import annotations

import numpy as np

# Single floor for logs and division denominators, used everywhere.
EPS = 1e-8

# Below this norm a vector counts as zero for similarity purposes.
NORM_FLOOR = 1e-12


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot over the last axis, broadcast over the leading axes.

    numpy's matmul hands each (1, P) @ (P, 1) core to the same BLAS dot
    routine as the one-vector `a @ b` and `np.linalg.norm`, so every entry
    is bit-identical to the scalar computation. A Gram product (gemm) would
    sum in a different order."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: sqrt of each row's self-dot, the
    same bits as `np.linalg.norm` of that row."""
    x = np.asarray(x, dtype=np.float64)
    return np.sqrt(_dot(x, x))


def cosine_sim(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity over the last axis of `a` and `b` (..., P), with
    the leading axes broadcast; 0 where either norm is below NORM_FLOOR.

    Each row's norm is computed once, so `cosine_sim(x[:, None], x[None])`
    gives all N^2 pairs of the rows of x.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    na = norm(a)
    nb = norm(b)
    dot = _dot(a, b)
    live = ~((na < NORM_FLOOR) | (nb < NORM_FLOOR))
    cos = np.divide(dot, na * nb, out=np.zeros(dot.shape), where=live)
    return np.clip(cos, -1.0, 1.0)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
