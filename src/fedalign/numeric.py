"""Dense numeric kernels shared by the model, clients, and server.

All math is float64. Every log/division denominator in the codebase is
floored at EPS; vectors with norm below NORM_FLOOR are treated as zero
(no consensus) rather than normalized. Cosines come from a Gram product,
which sums in BLAS's blocked order: an entry can differ from the one-pair
dot's result in its last bits; the all-pairs matrix is exactly symmetric
and does not depend on the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

# Single floor for logs and division denominators, used everywhere.
EPS = 1e-8

# Below this norm a vector counts as zero for similarity purposes.
NORM_FLOOR = 1e-12

# OpenBLAS computes the rows of a product that fall outside its kernel's
# full blocks with an edge kernel that rounds differently, and which rows
# those are depends on how the product is split across threads. Zero rows
# up to a multiple of this keep every row in a full block (the Haswell
# kernel's blocks are 8 rows), so cosine_sim's bits do not depend on the
# thread count.
GRAM_ROW_BLOCK = 16


def cosine_sim(x: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarity of the rows of x (N, P), as (N, N); 0
    where either row's norm is below NORM_FLOOR.

    One Gram product `x @ x.T` gives every dot, and its diagonal the
    squared norms. numpy hands a product with its own transpose to BLAS
    syrk, which computes one triangle and mirrors it, so each off-diagonal
    pair is computed once and the result is exactly symmetric.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (N, P) rows, got shape {x.shape}")
    n = x.shape[0]
    padded = np.zeros((-(-n // GRAM_ROW_BLOCK) * GRAM_ROW_BLOCK, x.shape[1]))
    padded[:n] = x
    gram = (padded @ padded.T)[:n, :n]
    nrm = np.sqrt(np.diagonal(gram))
    live = nrm >= NORM_FLOOR
    cos = np.divide(
        gram, np.outer(nrm, nrm), out=np.zeros(gram.shape), where=live[:, None] & live[None, :]
    )
    return np.clip(cos, -1.0, 1.0, out=cos)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    arr = np.asarray(x, dtype=np.float64)
    # e = exp(-|x|) cannot overflow; below 0, e / (1 + e) = exp(x) / (1 + exp(x)).
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0, 1.0, e) / (1.0 + e)
