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
from dataclasses import astuple, dataclass

import numpy as np

from .numeric import EPS

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
        if any(d < 1 for d in astuple(self)):
            raise ValueError(f"all config dims must be >= 1, got {self}")
        if self.top_k > self.num_experts:
            raise ValueError(
                f"top_k={self.top_k} exceeds num_experts={self.num_experts}"
            )

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Each parameter block's shape, in ModelParams.BLOCKS order: the
        layout of a model's buffer and of a checkpoint's body."""
        d, h, s = self.input_dim, self.hidden_dim, self.num_experts
        eh, c = self.expert_hidden, self.num_classes
        return ((d, h), (h, s), (s, h, eh), (s, eh), (s, eh, h), (s, h), (h, c))


@dataclass(frozen=True)
class ModelParams:
    """All trainable tensors. Experts are stacked along the leading axis.

    The seven blocks are views of one float64 buffer `flat`, in BLOCKS
    order, which is also the checkpoint's byte order; an update, a copy or
    a finiteness check is one array operation on it. Frozen: a block is
    written in place (`params.gate[...] = w`), never rebound off the buffer.
    `shapes` holds each block's shape (`MoEConfig.shapes`) without the
    buffer's leading axes: `from_flat` can lay the blocks over an (N, P)
    buffer, where row i is one model and each block leads with N.
    """

    embed: np.ndarray
    gate: np.ndarray
    expert_w1: np.ndarray
    expert_b1: np.ndarray
    expert_w2: np.ndarray
    expert_b2: np.ndarray
    head: np.ndarray

    BLOCKS = ("embed", "gate", "expert_w1", "expert_b1", "expert_w2", "expert_b2", "head")

    def __post_init__(self):
        blocks = [np.asarray(getattr(self, b)) for b in self.BLOCKS]
        flat = np.concatenate([a.ravel() for a in blocks], dtype=np.float64)
        self.__dict__.update(ModelParams.from_flat(flat, [a.shape for a in blocks]).__dict__)

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes) -> "ModelParams":
        """Blocks of the given shapes as views of `flat` (..., P), in BLOCKS
        order; the buffer's leading axes lead every block."""
        shapes = tuple(shapes)
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) != flat.shape[-1]:
            raise ValueError(
                f"block shapes need {sum(sizes)} entries, buffer rows hold {flat.shape[-1]}"
            )
        self = object.__new__(cls)
        self.__dict__.update(flat=flat, shapes=shapes)
        lead, end = flat.shape[:-1], 0
        for b, shape, size in zip(cls.BLOCKS, shapes, sizes):
            self.__dict__[b] = flat[..., end : end + size].reshape(lead + shape)
            end += size
        return self

    def __reduce__(self):
        return ModelParams.from_flat, (self.flat, self.shapes)

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.shapes)

    def check_finite(self):
        if not np.isfinite(self.flat).all():
            bad = next(b for b in self.BLOCKS if not np.isfinite(getattr(self, b)).all())
            raise FloatingPointError(f"non-finite entries in parameter block {bad!r}")


EXPERT_BLOCKS = ("expert_w1", "expert_b1", "expert_w2", "expert_b2")


def expert_columns(params: ModelParams, experts=slice(None)) -> list[np.ndarray]:
    """One row per selected expert, as four column blocks: its w1, b1, w2
    and b2 in row-major order, each (S, ·) by default; their concatenation
    is the expert's row. `experts` may be any index into the blocks'
    leading axes: with a leading client axis, `np.s_[:, e]` gives expert e
    of every client, (N, ·) each. Basic indexing keeps every block a view
    of `flat`; `cosine_sim` gathers them for the update cosines."""
    parts = [getattr(params, b)[experts] for b in EXPERT_BLOCKS]
    return [p.reshape(parts[0].shape[0], -1) for p in parts]


def init_params(config: MoEConfig, rng: np.random.Generator) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in), a weight's second-to-last
    axis, drawn in BLOCKS order; the biases start at zero and draw nothing."""
    return ModelParams(*(
        np.zeros(shape) if name in ("expert_b1", "expert_b2")
        else rng.normal(0.0, 1.0 / np.sqrt(shape[-2]), size=shape)
        for name, shape in zip(ModelParams.BLOCKS, config.shapes)
    ))


def top_k_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores in dispatch order: descending score,
    ties to the lower index, so entry 0 is the argmax."""
    scores = np.asarray(scores)
    if k > scores.shape[-1]:
        raise ValueError(f"k={k} exceeds score length {scores.shape[-1]}")
    if k == 1:  # argmax also takes the lowest index among ties, without a sort
        return scores.argmax(axis=-1)[..., None]
    # Stable sort on negated scores keeps lower indices first among ties.
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


@dataclass
class ForwardTrace:
    """Per-batch record of everything backward and the statistics need."""

    inputs: np.ndarray  # (B, input_dim)
    labels: np.ndarray | None  # (B,) int or None for pure inference
    hidden: np.ndarray  # (B, hidden_dim)
    full_probs: np.ndarray  # (B, S) softmax over ALL experts
    topk_idx: np.ndarray  # (B, k) each row's dispatch set; column 0 is the routing argmax
    topk_probs: np.ndarray  # (B, S) renormalized over the top-k, zero elsewhere
    residual: np.ndarray  # (B, hidden_dim) MoE output + hidden, the head's input
    logits: np.ndarray  # (B, num_classes)
    logit_exp: np.ndarray | None  # (B, num_classes) exp(logits - row max); None without labels
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
    if not np.isfinite(x).all():
        raise FloatingPointError("non-finite entries in input batch")
    k = config.top_k
    rows = np.arange(x.shape[0])[:, None]

    h = x @ params.embed  # (B, H)
    g = h @ params.gate  # (B, S)
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gate scores")
    # One exp serves both softmaxes: the row's largest score is always among
    # its top k, so the top-k softmax shifts by the same maximum.
    ez = np.exp(g - g.max(axis=1, keepdims=True))
    fp = ez / ez.sum(axis=1, keepdims=True)
    topk_idx = top_k_select(g, k)
    tp = np.zeros_like(g)
    tp[rows, topk_idx] = ez[rows, topk_idx]
    tp /= tp.sum(axis=1, keepdims=True)

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
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")

    loss = lab = logit_exp = None
    if labels is not None:
        lab = np.asarray(labels, dtype=np.int64)
        c = params.head.shape[1]
        if lab.min() < 0 or lab.max() >= c:
            raise ValueError("labels outside [0, num_classes)")
        logp, logit_exp = _log_softmax(logits)
        loss = float(-logp[rows[:, 0], lab].mean())

    trace = ForwardTrace(
        inputs=x,
        labels=lab,
        hidden=h,
        full_probs=fp,
        topk_idx=topk_idx,
        topk_probs=tp,
        residual=r,
        logits=logits,
        logit_exp=logit_exp,
        expert_act=z,
        expert_out=o,
    )
    return trace, loss


def _log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-softmax, and exp(logits - row max), from which backward
    forms the softmax. The row's largest term, exp(0) = 1, is left out of the
    log's sum and added back through log1p, so a confident row's small
    log-probabilities are not rounded to an ulp of its largest logit."""
    rows, top = np.arange(logits.shape[0]), logits.argmax(axis=1)
    shifted = logits - logits[rows, top][:, None]
    e = np.exp(shifted)
    rest = e.copy()
    rest[rows, top] = 0.0
    return shifted - np.log1p(rest.sum(axis=1, keepdims=True)), e


def _softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Row-wise `p * (dp - sum(p * dp))`, the gradient through p = softmax.

    dp is first shifted by its value at the row's largest weight, which
    leaves the result unchanged since each row of p sums to 1. Unshifted, a
    near one-hot row subtracts two nearly equal numbers."""
    d = dp - dp[np.arange(p.shape[0]), p.argmax(axis=1)][:, None]
    return p * (d - (p * d).sum(axis=1, keepdims=True))


def _expert_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of a C-contiguous (S, B) array. numpy adds the rows
    one after another, in ascending expert order; a single column would be
    summed pairwise, so it is accumulated instead."""
    return x.sum(axis=0) if x.shape[1] > 1 else np.add.accumulate(x, axis=0)[-1]


def _kl_pair(fp, topk_idx, ref, p_g):
    """Each softmax row of `fp` (B, S) and `p_g`, renormalized over the row's
    mask: its dispatch set `topk_idx` (B, k), the experts `forward` routed
    it to, OR the reference set `ref`, the top-k of `p_g`. Returns the mask
    and the row's `pt`, expert-major (S, B) and zero off the mask, its mass
    on the mask `zp` (B,) and log(pt / qt), the reference `qt` floored at EPS.

    Every sum over experts adds them one at a time in ascending index order
    (`_expert_sum`), and an entry off the mask adds an exact 0, so a row's
    sums are those of its mask members alone, in index order, for any S.
    """
    b, s = fp.shape
    mask = np.zeros((s, b), dtype=bool)
    mask[topk_idx.T, np.arange(b)] = True
    mask[ref] = True
    f = np.where(mask, fp.T, 0.0)
    q = np.where(mask, p_g[:, None], 0.0)
    zp = np.maximum(_expert_sum(f), EPS)
    zq = np.maximum(_expert_sum(q), EPS)
    pt = f / zp
    return mask, pt, zp, np.log(np.maximum(pt, EPS) / np.maximum(q / zq, EPS))


def masked_kl_values(fp, topk_idx, ref, p_g, alpha):
    """The masked, renormalized KL (B,) of each softmax row of `fp` (B, S)
    against the global reference `p_g` (`_kl_pair`), weighted by `alpha`."""
    _, pt, _, log_ratio = _kl_pair(fp, topk_idx, ref, p_g)
    return _expert_sum(alpha[:, None] * np.where(pt > 0.0, pt * log_ratio, 0.0))


def masked_kl(fp, topk_idx, ref, p_g, alpha):
    """The gradient (B, S) of `masked_kl_values` with respect to `fp`."""
    mask, pt, zp, log_ratio = _kl_pair(fp, topk_idx, ref, p_g)
    # d val / d pt, then back through the renormalization pt = fp/zp.
    dpt = alpha[:, None] * (log_ratio + 1.0)
    dfp = np.zeros(fp.shape)
    np.copyto(dfp.T, (dpt - _expert_sum(dpt * pt)) / zp, where=mask)
    return dfp


def backward(
    trace: ForwardTrace, params: ModelParams, *, lam: float = 0.0, reg_ctx=None
) -> ModelParams:
    """Exact gradients of L_total = L_local + lam * L_reg for one batch.

    `reg_ctx` must expose `p_g`, `alpha` and the reference set `ref`; it is
    required when lam > 0 and only consulted then (`masked_kl`). Gradients
    of experts outside every row's top-k are zero. Returns the gradients as
    a ModelParams laid out like `params`, each block written into its view
    of one buffer.
    """
    if trace.labels is None:
        raise ValueError("backward requires a trace with labels")
    if lam > 0.0 and reg_ctx is None:
        raise ValueError(f"backward with lam={lam} > 0 requires reg_ctx (p_g and alpha)")
    b = trace.batch_size
    grads = ModelParams.from_flat(np.empty_like(params.flat), params.shapes)

    # Head and residual.
    dlogits = trace.logit_exp / trace.logit_exp.sum(axis=1, keepdims=True)
    dlogits[np.arange(b), trace.labels] -= 1.0
    dlogits /= b
    np.matmul(trace.residual.T, dlogits, out=grads.head)
    dy = dlogits @ params.head.T
    dh = dy.copy()

    # Experts and the mixture weights, batched over the expert axis.
    tp, z = trace.topk_probs, trace.expert_act
    dtp = np.einsum("bh,sbh->bs", dy, trace.expert_out)
    do = tp.T[:, :, None] * dy  # (S, B, H), zero off the top-k
    np.matmul(z.transpose(0, 2, 1), do, out=grads.expert_w2)
    do.sum(axis=1, out=grads.expert_b2)
    da = do @ params.expert_w2.transpose(0, 2, 1)
    da *= 1.0 - z * z
    np.matmul(trace.hidden.T, da, out=grads.expert_w1)
    da.sum(axis=1, out=grads.expert_b1)
    dh += (da @ params.expert_w1.transpose(0, 2, 1)).sum(axis=0)

    # Through the top-k restricted softmax (selection set held fixed); tp is
    # zero off the top-k, so dg is too.
    dg = _softmax_backward(tp, dtp)

    # KL regularizer through the full softmax (batch mean).
    if lam > 0.0:
        dfp = masked_kl(trace.full_probs, trace.topk_idx, reg_ctx.ref, reg_ctx.p_g, reg_ctx.alpha)
        dfp *= lam / b
        dg += _softmax_backward(trace.full_probs, dfp)

    np.matmul(trace.hidden.T, dg, out=grads.gate)
    dh += dg @ params.gate.T
    np.matmul(trace.inputs.T, dh, out=grads.embed)
    return grads


def save_checkpoint(path, config: MoEConfig, params: ModelParams):
    """Binary checkpoint: magic, version, MoEConfig's six fields in
    declaration order (uint32 LE), then the body: all parameter blocks as
    float64 LE, laid out as `config.shapes`.
    """
    header = CKPT_MAGIC + struct.pack("<7I", CKPT_VERSION, *astuple(config))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


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
        version, *dims = struct.unpack("<7I", header[4:])
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = MoEConfig(*dims)
        # Python ints: a product of uint32 dims can wrap in int64.
        want = 32 + 8 * sum(math.prod(shape) for shape in config.shapes)
        have = os.fstat(fh.fileno()).st_size
        if have < want:
            raise ValueError(f"truncated checkpoint: {have} bytes, header needs {want}")
        if have > want:
            raise ValueError(
                f"{have - want} trailing bytes in checkpoint: {have} bytes, header needs {want}"
            )
        body = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    return config, ModelParams.from_flat(body, config.shapes)
