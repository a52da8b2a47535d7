"""Toy MoE classifier: linear input projection, one sparse MoE layer with a
linear gate and two-layer tanh experts, residual connection, linear head.

Forward keeps everything needed for the hand-derived backward pass and for
the routing statistics. Dispatch is dense: every expert runs on every row
and the outputs are mixed with the renormalized top-k weights, which are
zero off the selected set, so gradients reach only selected experts. The
backward pass covers both the cross-entropy objective and the masked,
renormalized KL regularizer on the gating softmax.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .numeric import EPS, kl_term, softmax

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


def expert_rows(params: ModelParams, experts=slice(None)) -> np.ndarray:
    """One row per selected expert: its w1|b1|w2|b2 concatenated in row-major
    order, (S, P) by default. `experts` may be any index into the blocks'
    leading axes: with a leading client axis, `np.s_[:, e]` gives expert e
    of every client as (N, P). The update cosines use it."""
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
    residual: np.ndarray  # (B, hidden_dim) MoE output + hidden, the head's input
    logits: np.ndarray  # (B, num_classes)
    expert_act: np.ndarray  # (S, B, expert_hidden) tanh activations, every expert
    expert_out: np.ndarray  # (S, B, hidden_dim) expert outputs, every expert

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

    # Every expert on every row; tp is zero off the top-k, so only the
    # selected experts reach the mixture.
    z = h @ params.expert_w1  # (S, B, EH)
    z += params.expert_b1[:, None, :]
    np.tanh(z, out=z)
    o = z @ params.expert_w2  # (S, B, H)
    o += params.expert_b2[:, None, :]
    y = np.einsum("bs,sbh->bh", tp, o)

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
        logp = _log_softmax(logits)
        loss = float(-logp[np.arange(lab.size), lab].mean())

    trace = ForwardTrace(
        inputs=x,
        labels=lab,
        hidden=h,
        scores=g,
        full_probs=fp,
        topk_idx=topk_idx,
        topk_probs=tp,
        residual=r,
        logits=logits,
        expert_act=z,
        expert_out=o,
    )
    return trace, loss


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax. The row's largest term, exp(0) = 1, is left out
    of the sum and added back through log1p, so a confident row's small
    log-probabilities are not rounded to an ulp of its largest logit."""
    rows, top = np.arange(logits.shape[0]), logits.argmax(axis=1)
    shifted = logits - logits[rows, top][:, None]
    rest = np.exp(shifted)
    rest[rows, top] = 0.0
    return shifted - np.log1p(rest.sum(axis=1, keepdims=True))


def _softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Row-wise `p * (dp - sum(p * dp))`, the gradient through p = softmax.

    dp is first shifted by its value at the row's largest weight, which
    leaves the result unchanged since each row of p sums to 1. Unshifted, a
    near one-hot row subtracts two nearly equal numbers."""
    d = dp - dp[np.arange(p.shape[0]), p.argmax(axis=1)][:, None]
    return p * (d - (p * d).sum(axis=1, keepdims=True))


def masked_kl(
    fp: np.ndarray,
    p_g: np.ndarray,
    alpha: np.ndarray,
    k: int,
    want_grad: bool = False,
):
    """Masked, renormalized KL between each sample's full routing softmax and
    the global reference.

    `fp` is one softmax row (S,) or a batch (B, S). A row's mask is its own
    top-k OR the top-k of `p_g`; both distributions are renormalized over
    the mask so the comparison is a proper distribution pair. Returns the
    value (a float for a row, (B,) for a batch) and, with `want_grad`, its
    gradient with respect to `fp`, shaped like `fp`.

    Every sum runs over a row's mask members, gathered in ascending index
    order into a zero-padded (B, min(2k, S)) array, not over the dense row:
    numpy sums 8 or more entries pairwise, so dense rows of a wide S would
    change the last bits of the result.
    """
    fp = np.asarray(fp, dtype=np.float64)
    batch = np.atleast_2d(fp)
    b, s = batch.shape
    mask = np.zeros((b, s), dtype=bool)
    mask[np.arange(b)[:, None], top_k_select(batch, k)] = True
    mask[:, top_k_select(p_g, k)] = True
    r, c = np.nonzero(mask)  # row-major, so ascending index within a row
    slot = np.cumsum(mask, axis=1)[r, c] - 1

    def gather(values):
        out = np.zeros((b, min(2 * k, s)))
        out[r, slot] = values
        return out

    f, q, a = gather(batch[r, c]), gather(p_g[c]), gather(alpha[c])
    zp = np.maximum(f.sum(axis=1, keepdims=True), EPS)
    zq = np.maximum(q.sum(axis=1, keepdims=True), EPS)
    pt = f / zp
    qt = np.maximum(q / zq, EPS)
    val = (a * kl_term(pt, qt)).sum(axis=1)
    if fp.ndim == 1:
        val = float(val[0])
    if not want_grad:
        return val
    # d val / d pt, then back through the renormalization pt = fp/zp.
    dpt = a * (np.log(np.maximum(pt, EPS) / qt) + 1.0)
    g = (dpt - (dpt * pt).sum(axis=1, keepdims=True)) / zp
    dfp = np.zeros((b, s))
    dfp[r, c] = g[r, slot]
    return val, dfp.reshape(fp.shape)


def backward(
    trace: ForwardTrace,
    params: ModelParams,
    config: MoEConfig,
    lam: float = 0.0,
    reg_ctx=None,
) -> ModelParams:
    """Exact gradients of L_total = L_local + lam * L_reg for one batch.

    `reg_ctx` must expose `p_g` and `alpha` arrays of length S; it is only
    consulted when lam > 0. Gradients of experts outside every row's top-k
    are zero.
    Returns a ModelParams-shaped gradient container.
    """
    if trace.labels is None:
        raise ValueError("backward requires a trace with labels")
    b = trace.batch_size

    # Head and residual.
    dlogits = softmax(trace.logits)
    dlogits[np.arange(b), trace.labels] -= 1.0
    dlogits /= b
    dy = dlogits @ params.head.T
    dh = dy.copy()

    # Experts and the mixture weights, batched over the expert axis.
    tp, z = trace.topk_probs, trace.expert_act
    dtp = np.einsum("bh,sbh->bs", dy, trace.expert_out)
    do = tp.T[:, :, None] * dy  # (S, B, H), zero off the top-k
    da = do @ params.expert_w2.transpose(0, 2, 1)
    da *= 1.0 - z * z
    dh += (da @ params.expert_w1.transpose(0, 2, 1)).sum(axis=0)

    # Through the top-k restricted softmax (selection set held fixed); tp is
    # zero off the top-k, so dg is too.
    dg = _softmax_backward(tp, dtp)

    # KL regularizer through the full softmax (batch mean).
    if lam > 0.0 and reg_ctx is not None:
        _, dfp = masked_kl(
            trace.full_probs, reg_ctx.p_g, reg_ctx.alpha, config.top_k, want_grad=True
        )
        dfp *= lam / b
        dg += _softmax_backward(trace.full_probs, dfp)

    dh += dg @ params.gate.T
    return ModelParams(
        embed=trace.inputs.T @ dh,
        gate=trace.hidden.T @ dg,
        expert_w1=trace.hidden.T @ da,
        expert_b1=da.sum(axis=1),
        expert_w2=z.transpose(0, 2, 1) @ do,
        expert_b2=do.sum(axis=1),
        head=trace.residual.T @ dlogits,
    )


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
    """Read a `save_checkpoint` file. The size the header implies is checked
    against the file's size before the body is read, so a corrupt header
    fails with a named ValueError instead of a huge allocation."""
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
        # Python ints: a product of uint32 dims can wrap in int64.
        sizes = [math.prod(shapes[name]) for name in ModelParams.BLOCKS]
        want = 32 + 8 * sum(sizes)
        have = os.fstat(fh.fileno()).st_size
        if have < want:
            raise ValueError(f"truncated checkpoint: {have} bytes, header needs {want}")
        if have > want:
            raise ValueError(
                f"{have - want} trailing bytes in checkpoint: {have} bytes, header needs {want}"
            )
        body = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    parts = np.split(body, np.cumsum(sizes)[:-1])
    return config, ModelParams(
        *(part.reshape(shapes[name]) for name, part in zip(ModelParams.BLOCKS, parts))
    )
