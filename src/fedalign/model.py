"""Toy MoE classifier: linear input projection, one sparse MoE layer with a
linear gate and two-layer tanh experts, residual connection, linear head.

Forward keeps everything needed for the hand-derived backward pass and for
the routing statistics. Gradients flow only through activated experts; the
backward pass covers both the cross-entropy objective and the masked,
renormalized KL regularizer on the gating softmax.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .numeric import EPS, softmax

CKPT_MAGIC = b"FMOE"
CKPT_VERSION = 1


@dataclass(frozen=True)
class MoEConfig:
    input_dim: int
    hidden_dim: int
    num_experts: int
    top_k: int
    num_classes: int
    expert_hidden: int

    def __post_init__(self):
        dims = (
            self.input_dim,
            self.hidden_dim,
            self.num_experts,
            self.top_k,
            self.num_classes,
            self.expert_hidden,
        )
        if any(d < 1 for d in dims):
            raise ValueError(f"all config dims must be >= 1, got {self}")
        if self.top_k > self.num_experts:
            raise ValueError(
                f"top_k={self.top_k} exceeds num_experts={self.num_experts}"
            )


@dataclass
class ModelParams:
    """All trainable tensors. Experts are stacked along the leading axis."""

    embed: np.ndarray  # (input_dim, hidden_dim)
    gate: np.ndarray  # (hidden_dim, num_experts)
    expert_w1: np.ndarray  # (S, hidden_dim, expert_hidden)
    expert_b1: np.ndarray  # (S, expert_hidden)
    expert_w2: np.ndarray  # (S, expert_hidden, hidden_dim)
    expert_b2: np.ndarray  # (S, hidden_dim)
    head: np.ndarray  # (hidden_dim, num_classes)

    BLOCKS = ("embed", "gate", "expert_w1", "expert_b1", "expert_w2", "expert_b2", "head")

    def copy(self) -> "ModelParams":
        return ModelParams(*(getattr(self, b).copy() for b in self.BLOCKS))

    def check_finite(self):
        for b in self.BLOCKS:
            if not np.all(np.isfinite(getattr(self, b))):
                raise FloatingPointError(f"non-finite entries in parameter block {b!r}")


EXPERT_BLOCKS = ("expert_w1", "expert_b1", "expert_w2", "expert_b2")


def expert_rows(params: ModelParams, experts: slice = slice(None)) -> np.ndarray:
    """One row per selected expert: its w1|b1|w2|b2 concatenated in row-major
    order, (S, P) by default. Update cosines and the upload payload use it."""
    parts = [getattr(params, b)[experts] for b in EXPERT_BLOCKS]
    n = parts[0].shape[0]
    return np.concatenate([p.reshape(n, -1) for p in parts], axis=1)


def init_params(config: MoEConfig, rng: np.random.Generator) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero."""
    d, h, s = config.input_dim, config.hidden_dim, config.num_experts
    eh, c = config.expert_hidden, config.num_classes
    return ModelParams(
        embed=rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h)),
        gate=rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, s)),
        expert_w1=rng.normal(0.0, 1.0 / np.sqrt(h), size=(s, h, eh)),
        expert_b1=np.zeros((s, eh)),
        expert_w2=rng.normal(0.0, 1.0 / np.sqrt(eh), size=(s, eh, h)),
        expert_b2=np.zeros((s, h)),
        head=rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, c)),
    )


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(*(np.zeros_like(getattr(params, b)) for b in ModelParams.BLOCKS))


def top_k_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken by ascending index.

    Returns the indices sorted ascending.
    """
    scores = np.asarray(scores)
    if k > scores.shape[-1]:
        raise ValueError(f"k={k} exceeds score length {scores.shape[-1]}")
    # Stable sort on negated scores keeps lower indices first among ties.
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


@dataclass
class ForwardTrace:
    """Per-batch record of everything backward and the statistics need."""

    inputs: np.ndarray  # (B, input_dim)
    labels: np.ndarray | None  # (B,) int or None for pure inference
    hidden: np.ndarray  # (B, hidden_dim)
    scores: np.ndarray  # (B, S) raw gate scores
    full_probs: np.ndarray  # (B, S) softmax over ALL experts
    topk_idx: np.ndarray  # (B, k) ascending expert indices
    topk_probs: np.ndarray  # (B, S) renormalized over the top-k, zero elsewhere
    logits: np.ndarray  # (B, num_classes)
    # per-expert caches: expert index -> (row indices, tanh activations, outputs)
    expert_cache: dict = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]


def forward(
    config: MoEConfig,
    params: ModelParams,
    x: np.ndarray,
    labels: np.ndarray | None = None,
) -> tuple[ForwardTrace, float | None]:
    """Run the model on a batch; returns the trace and mean cross-entropy.

    The loss is None when labels are omitted.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.embed.shape[0]:
        raise ValueError(
            f"batch feature width {x.shape} incompatible with input_dim {params.embed.shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("non-finite entries in input batch")
    s = config.num_experts
    k = config.top_k

    h = x @ params.embed  # (B, H)
    g = h @ params.gate  # (B, S)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite gate scores")
    fp = softmax(g)
    topk_idx = top_k_select(g, k)

    # Softmax restricted to the selected experts, zeros elsewhere.
    masked = np.full_like(g, -np.inf)
    rows = np.arange(x.shape[0])[:, None]
    masked[rows, topk_idx] = g[rows, topk_idx]
    shifted = masked - masked.max(axis=1, keepdims=True)
    ez = np.exp(shifted, where=np.isfinite(shifted), out=np.zeros_like(shifted))
    tp = ez / ez.sum(axis=1, keepdims=True)

    y = np.zeros_like(h)
    cache = {}
    for e in range(s):
        # Membership is defined by the top-k index set, not by tp > 0, so an
        # expert whose renormalized probability underflows still activates.
        sel = np.nonzero(np.any(topk_idx == e, axis=1))[0]
        if sel.size == 0:
            continue
        a = h[sel] @ params.expert_w1[e] + params.expert_b1[e]
        z = np.tanh(a)
        o = z @ params.expert_w2[e] + params.expert_b2[e]
        y[sel] += tp[sel, e][:, None] * o
        cache[e] = (sel, z, o)

    r = y + h  # residual connection around the MoE layer
    logits = r @ params.head
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits")

    loss = None
    lab = None
    if labels is not None:
        lab = np.asarray(labels, dtype=np.int64)
        c = params.head.shape[1]
        if lab.min() < 0 or lab.max() >= c:
            raise ValueError("labels outside [0, num_classes)")
        logp = logits - _logsumexp(logits)
        loss = float(-logp[np.arange(lab.size), lab].mean())

    trace = ForwardTrace(
        inputs=x,
        labels=lab,
        hidden=h,
        scores=g,
        full_probs=fp,
        topk_idx=topk_idx,
        topk_probs=tp,
        logits=logits,
        expert_cache=cache,
    )
    return trace, loss


def _logsumexp(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    return m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def masked_kl(
    fp_row: np.ndarray,
    p_g: np.ndarray,
    alpha: np.ndarray,
    k: int,
    want_grad: bool = False,
):
    """Masked, renormalized KL between one sample's full routing softmax and
    the global reference.

    Mask = top-k of the local probabilities union top-k of the reference;
    both distributions are renormalized over the mask so the comparison is a
    proper distribution pair. Returns the scalar value, and optionally its
    gradient with respect to the full softmax vector.
    """
    mask = np.union1d(top_k_select(fp_row, k), top_k_select(p_g, k))
    zp = fp_row[mask].sum()
    zq = max(p_g[mask].sum(), EPS)
    pt = fp_row[mask] / max(zp, EPS)
    qt = np.maximum(p_g[mask] / zq, EPS)
    terms = np.where(pt > 0.0, pt * np.log(np.maximum(pt, EPS) / qt), 0.0)
    val = float((alpha[mask] * terms).sum())
    if not want_grad:
        return val
    # d val / d pt, then back through the renormalization pt = fp/zp.
    dpt = alpha[mask] * (np.log(np.maximum(pt, EPS) / qt) + 1.0)
    dfp = np.zeros_like(fp_row)
    dfp[mask] = (dpt - (dpt * pt).sum()) / max(zp, EPS)
    return val, dfp


def backward(
    trace: ForwardTrace,
    params: ModelParams,
    config: MoEConfig,
    lam: float = 0.0,
    reg_ctx=None,
) -> ModelParams:
    """Exact gradients of L_total = L_local + lam * L_reg for one batch.

    `reg_ctx` must expose `p_g` and `alpha` arrays of length S; it is only
    consulted when lam > 0. Gradients of non-activated experts are zero.
    Returns a ModelParams-shaped gradient container.
    """
    if trace.labels is None:
        raise ValueError("backward requires a trace with labels")
    b = trace.batch_size
    grads = zeros_like_params(params)

    # Head and residual.
    probs = softmax(trace.logits)
    dlogits = probs.copy()
    dlogits[np.arange(b), trace.labels] -= 1.0
    dlogits /= b
    r = trace.hidden + _moe_output(trace)
    grads.head = r.T @ dlogits
    dr = dlogits @ params.head.T
    dy = dr
    dh = dr.copy()

    # Experts and the sparse mixture weights.
    dtp = np.zeros_like(trace.topk_probs)
    for e, (sel, z, o) in trace.expert_cache.items():
        dtp[sel, e] = np.einsum("ij,ij->i", dy[sel], o)
        do = trace.topk_probs[sel, e][:, None] * dy[sel]
        grads.expert_w2[e] = z.T @ do
        grads.expert_b2[e] = do.sum(axis=0)
        dz = do @ params.expert_w2[e].T
        da = dz * (1.0 - z * z)
        grads.expert_w1[e] = trace.hidden[sel].T @ da
        grads.expert_b1[e] = da.sum(axis=0)
        dh[sel] += da @ params.expert_w1[e].T

    # Through the top-k restricted softmax (selection set held fixed).
    rows = np.arange(b)[:, None]
    t = trace.topk_probs[rows, trace.topk_idx]  # (B, k)
    dt = dtp[rows, trace.topk_idx]
    dg_k = t * (dt - (t * dt).sum(axis=1, keepdims=True))
    dg = np.zeros_like(trace.scores)
    np.add.at(dg, (rows, trace.topk_idx), dg_k)

    # KL regularizer through the full softmax (batch mean).
    if lam > 0.0 and reg_ctx is not None:
        dfp = np.zeros_like(trace.full_probs)
        for i in range(b):
            _, dfp_i = masked_kl(
                trace.full_probs[i], reg_ctx.p_g, reg_ctx.alpha, config.top_k, want_grad=True
            )
            dfp[i] = dfp_i
        dfp *= lam / b
        fp = trace.full_probs
        dg += fp * (dfp - (fp * dfp).sum(axis=1, keepdims=True))

    grads.gate = trace.hidden.T @ dg
    dh += dg @ params.gate.T
    grads.embed = trace.inputs.T @ dh
    return grads


def _moe_output(trace: ForwardTrace) -> np.ndarray:
    y = np.zeros_like(trace.hidden)
    for e, (sel, _z, o) in trace.expert_cache.items():
        y[sel] += trace.topk_probs[sel, e][:, None] * o
    return y


def save_checkpoint(path, config: MoEConfig, params: ModelParams):
    """Binary checkpoint: magic, version, six uint32 config fields (LE),
    then all parameter blocks as float64 LE in ModelParams.BLOCKS order.
    """
    header = CKPT_MAGIC + struct.pack(
        "<7I",
        CKPT_VERSION,
        config.input_dim,
        config.hidden_dim,
        config.num_experts,
        config.top_k,
        config.num_classes,
        config.expert_hidden,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for b in ModelParams.BLOCKS:
            fh.write(np.ascontiguousarray(getattr(params, b), dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[MoEConfig, ModelParams]:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"truncated checkpoint header: {len(header)} of 32 bytes")
        if header[:4] != CKPT_MAGIC:
            raise ValueError(f"bad checkpoint magic {header[:4]!r}")
        version, d, h, s, k, c, eh = struct.unpack("<7I", header[4:])
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = MoEConfig(d, h, s, k, c, eh)
        shapes = {
            "embed": (d, h),
            "gate": (h, s),
            "expert_w1": (s, h, eh),
            "expert_b1": (s, eh),
            "expert_w2": (s, eh, h),
            "expert_b2": (s, h),
            "head": (h, c),
        }
        blocks = {}
        for name in ModelParams.BLOCKS:
            shape = shapes[name]
            n = int(np.prod(shape))
            buf = fh.read(8 * n)
            if len(buf) != 8 * n:
                raise ValueError(f"truncated checkpoint while reading {name!r}")
            blocks[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
        if fh.read(1):
            raise ValueError("trailing bytes in checkpoint")
    return config, ModelParams(**blocks)
