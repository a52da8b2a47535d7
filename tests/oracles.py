"""Independent oracle values for the worked-example tests.

Everything here is computed with plain ``math`` arithmetic, written out
step by step and never calling into the package, so the test suite checks
the implementation against an independent derivation rather than against
itself. Statistics-level values are asserted to 1e-9 by the tests;
training-touching values to 1e-6.
"""

import math

# softmax([ln 2, 0]): exp gives (2, 1), total 3.
SOFTMAX_LN2_0 = (2.0 / 3.0, 1.0 / 3.0)

# Single KL summand p*ln(p/q) at p=0.8, q=0.2.
KL_TERM_08_02 = 0.8 * math.log(0.8 / 0.2)

# sigmoid(-ln 3) = 1 / (1 + 3).
SIGMOID_NEG_LN3 = 0.25

# sigmoid(ln 3) = 3 / 4; doubles as the adaptive-alpha closed form at
# overlap = eta + ln 3.
SIGMOID_LN3 = 0.75

# Mean routing mass over two samples: ([0.8,0.2,0] + [0.4,0.6,0]) / 2.
P_BAR_TWO_SAMPLES = (0.6, 0.4, 0.0)

# Mean top-1 margin over samples [0.6,0.3,0.1] and [0.2,0.5,0.3]:
# sample 1 ranks expert 0 first with gap 0.6-0.3=0.3; sample 2 ranks
# expert 1 first with gap 0.5-0.3=0.2. Per-expert means: (0.3/2, 0.2/2, 0).
MARGIN_TWO_SAMPLES = (0.15, 0.1, 0.0)

# Masked KL with mask {0,1}, p=[0.9,0.1], target [0.5,0.5], alpha 1.
MASKED_KL_09_05 = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)

# Consistency weights for one expert, two clients:
# p_bar=(0.6,0.2) so the cross-client mean mass is 0.4,
# o = (0.6*0.4, 0.2*0.4) = (0.24, 0.08), margins (0.3, 0.1),
# s = (0.072, 0.008), total 0.08, omega = (0.9, 0.1).
OMEGA_TWO_CLIENTS = (0.072 / 0.08, 0.008 / 0.08)

# cos([1,0], [1,1]) = 1 / sqrt(2).
COS_UNIT_DIAG = 1.0 / math.sqrt(2.0)

# Threshold stats for pairwise entries {1, 0.5, 0.5, 1} at beta=1:
# mean 0.75, population variance ((0.25)^2 * 4)/4 so std 0.25, tau 0.5.
TAU_MEAN = 0.75
TAU_STD = 0.25
TAU_BETA1 = 0.5

# Gate value at S - tau = ln 3, D = 0.5: sigmoid(ln 3) * 0.5.
GAMMA_LN3_HALF = SIGMOID_LN3 * 0.5

# Weighted expert update: w=(0.75,0.25) on deltas [2,0] and [0,2].
EXPERT_UPDATE = (0.75 * 2.0, 0.25 * 2.0)


def dense_mixture_loss(params, x, labels):
    """Dense soft-mixture reference model: softmax-weighted sum over all
    experts with no top-k restriction. Used as the k=S oracle. Implemented
    with plain loops over numpy arrays pulled out of ModelParams so it
    shares no forward-pass code with the package."""
    import numpy as np

    h = x @ params.embed
    scores = h @ params.gate
    b, s = scores.shape
    loss = 0.0
    for n in range(b):
        sc = scores[n] - scores[n].max()
        probs = np.exp(sc) / np.exp(sc).sum()
        y = np.zeros(h.shape[1])
        for e in range(s):
            z = np.tanh(h[n] @ params.expert_w1[e] + params.expert_b1[e])
            y += probs[e] * (z @ params.expert_w2[e] + params.expert_b2[e])
        logits = (y + h[n]) @ params.head
        logits = logits - logits.max()
        logp = logits - math.log(np.exp(logits).sum())
        loss += -logp[labels[n]]
    return loss / b


EXPERT_BLOCKS = ("expert_w1", "expert_b1", "expert_w2", "expert_b2")


def flat_expert_rows(params):
    """(S, P) rows of w1|b1|w2|b2 per expert, each block raveled row-major
    (the README's per-expert vector layout)."""
    import numpy as np

    s = params.expert_w1.shape[0]
    return np.stack([
        np.concatenate([getattr(params, b)[e].ravel() for b in EXPERT_BLOCKS])
        for e in range(s)
    ])


def aggregate_round_flat(global_params, deltas, weights, updated, sizes):
    """Reference for the server's per-block kernel: the round computed one
    expert at a time. Experts go through flattened (S, P) update rows:
    theta_e += sum_i w_i(e) * delta_i(e) in ascending client order, then
    unflattened into the four expert blocks; experts not updated are left
    alone. embed, gate and head get the size-weighted mean of the deltas,
    weights normalized from `sizes`. Returns a dict of the seven new
    blocks."""
    import numpy as np

    flats = [flat_expert_rows(d) for d in deltas]
    out = {b: getattr(global_params, b).copy() for b in EXPERT_BLOCKS}
    for e in range(weights.shape[0]):
        if not updated[e]:
            continue
        acc = np.zeros_like(flats[0][e])
        for i in range(len(flats)):
            acc += weights[e, i] * flats[i][e]
        cur = np.concatenate([out[b][e].ravel() for b in EXPERT_BLOCKS]) + acc
        cuts = np.cumsum([out[b][e].size for b in EXPERT_BLOCKS])[:-1]
        for b, part in zip(EXPERT_BLOCKS, np.split(cur, cuts)):
            out[b][e] = part.reshape(out[b][e].shape)
    sizes = np.asarray(sizes, dtype=np.float64)
    w = sizes / sizes.sum()
    for b in ("embed", "gate", "head"):
        acc = np.zeros_like(getattr(deltas[0], b))
        for wi, d in zip(w, deltas):
            acc += wi * getattr(d, b)
        out[b] = getattr(global_params, b) + acc
    return out
