"""Test tools: builders for client updates (a `ModelParams` of deltas made
from per-expert rows, and the model a delta leads to), for one client's
`client.Uploads` and for a round's, stacked from the clients' records, a
zero model to aggregate a round onto, row scales around NORM_FLOOR for
property tests, the `np.longdouble` conversion for 80-bit references and
the cosine's rounding bound, a plain softmax for building inputs, a model
whose gate scores are its inputs and `forward`'s routing softmax on it,
and the central finite-difference gradient checker."""

from dataclasses import fields

import numpy as np

from fedalign.client import Uploads
from fedalign.model import MoEConfig, ModelParams, forward
from fedalign.numeric import NORM_FLOOR

# Row scales that put norms at zero, on both sides of NORM_FLOOR, and well
# above it.
NORM_SCALES = (0.0, 0.3 * NORM_FLOOR, NORM_FLOOR, 3 * NORM_FLOOR, 1.0, 1e5)


def extended(x):
    """x as `np.longdouble`, checked to be wider than float64 (the x87 80-bit
    format, eps 1.1e-19), so an oracle run on it is an accurate reference."""
    assert np.finfo(np.longdouble).eps < 1e-18, "np.longdouble is no wider than float64"
    return np.asarray(x, dtype=np.longdouble)


def cosine_error_bound(p):
    """Largest float64 error of a cosine of length-p vectors computed as
    dot / (norm * norm), in any summation order. With u = eps / 2, each dot
    is off by at most p*u |a||b| (Cauchy-Schwarz) and each squared norm by
    p*u relative; the square roots, the product and the division add 4u
    relative. To first order the cosine is off by at most (2p + 4)u =
    (p + 2) eps; one eps more covers the second-order terms and the 80-bit
    reference's own rounding."""
    return (p + 3) * np.finfo(np.float64).eps


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
        getattr(out, b)[...] = part.reshape(getattr(out, b).shape)
    return out


def upload(delta, p_bar, margin, mu, mu_empty=None):
    """One client's `client.Uploads` with zero losses; mu_empty defaults to
    all False."""
    p_bar = np.asarray(p_bar, dtype=np.float64)
    empty = np.zeros(p_bar.shape, bool) if mu_empty is None else np.asarray(mu_empty, bool)
    return Uploads(delta, p_bar, np.asarray(margin, dtype=np.float64),
                   np.asarray(mu, dtype=np.float64), empty, 0.0, 0.0)


def stack_uploads(rows):
    """A round's `client.Uploads`: row i of every field is rows[i]'s."""
    stacked = (np.stack([getattr(r, f.name) for r in rows]) for f in fields(Uploads)[1:])
    return Uploads(stack_deltas([r.param_delta for r in rows]), *stacked)


def stack_deltas(deltas):
    """Client updates on one client axis: a `ModelParams` whose blocks lead
    with N."""
    return ModelParams.from_flat(np.stack([d.flat for d in deltas]), deltas[0].shapes)


def zero_model(deltas):
    """A model of zeros shaped like one client's update in the stacked
    `deltas`: aggregated from it, a round's new model is its own update."""
    return ModelParams(*(np.zeros(getattr(deltas, b).shape[1:]) for b in ModelParams.BLOCKS))


def apply_delta(params, delta):
    """start + delta for every block."""
    return ModelParams(*(getattr(params, b) + getattr(delta, b) for b in ModelParams.BLOCKS))


def softmax(scores):
    """Softmax over the last axis, for building routing inputs."""
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gate_model(s, top_k=1):
    """A model whose gate scores are its input rows: input, hidden and expert
    count S, identity `embed` and `gate`, zeros elsewhere. Returns the
    config and the parameters."""
    config = MoEConfig(input_dim=s, hidden_dim=s, num_experts=s, top_k=top_k,
                       num_classes=1, expert_hidden=1)
    params = ModelParams(
        embed=np.eye(s),
        gate=np.eye(s),
        expert_w1=np.zeros((s, s, 1)),
        expert_b1=np.zeros((s, 1)),
        expert_w2=np.zeros((s, 1, s)),
        expert_b2=np.zeros((s, s)),
        head=np.zeros((s, 1)),
    )
    return config, params


def gate_softmax(scores):
    """`forward`'s full routing softmax of the gate scores `scores` (B, S),
    run on `gate_model`."""
    trace, _ = forward(*gate_model(scores.shape[1]), scores)
    return trace.full_probs


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
