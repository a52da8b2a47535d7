"""Independent oracle values for the worked-example tests.

Everything here is computed with plain ``math`` arithmetic, written out
step by step and never calling into the package, so the test suite checks
the implementation against an independent derivation rather than against
itself. Statistics-level values are asserted to 1e-9 by the tests;
training-touching values to 1e-6. The two exceptions call into the
package for its kernels and redo only what is around them:
`local_round_per_block`, a reference for the training loop alone, calls
the package's forward, backward and statistics, and redoes everything
around them one block at a time; `semantic_chain_batched`, a reference for
the server's one-expert-at-a-time gating, calls the package's `cosine_sim`
and `sigmoid` and redoes the rest on (S, N, N) arrays.
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
# p_bar=(0.6,0.2), margins (0.3, 0.1), scores p_bar * margin =
# (0.18, 0.02), total 0.2, omega = (0.9, 0.1).
OMEGA_TWO_CLIENTS = (0.18 / 0.2, 0.02 / 0.2)

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


def masked_kl_row(fp_row, dispatch, p_g, alpha, k, want_grad=False):
    """Reference for `model.masked_kl_values` and its gradient
    `model.masked_kl`: one sample at a time.

    Mask = the row's dispatch set (the experts it was routed to) union the
    top-k of p_g (ties to the lower index); both distributions renormalized
    over the mask, every denominator and log argument floored at 1e-8, and
    0 * log 0 = 0. Returns the value and, optionally, the gradient with
    respect to the full row."""
    import numpy as np

    eps = 1e-8
    mask = np.union1d(dispatch, np.sort(np.argsort(-p_g, kind="stable")[:k]))
    zp = fp_row[mask].sum()
    zq = max(p_g[mask].sum(), eps)
    pt = fp_row[mask] / max(zp, eps)
    qt = np.maximum(p_g[mask] / zq, eps)
    terms = np.where(pt > 0.0, pt * np.log(np.maximum(pt, eps) / qt), 0.0)
    val = float((alpha[mask] * terms).sum())
    if not want_grad:
        return val
    dpt = alpha[mask] * (np.log(np.maximum(pt, eps) / qt) + 1.0)
    dfp = np.zeros_like(fp_row)
    dfp[mask] = (dpt - (dpt * pt).sum()) / max(zp, eps)
    return val, dfp


def sigmoid_scatter(x):
    """Reference for `numeric.sigmoid`: the two boolean-mask scatters it
    replaced, 1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x))
    elsewhere."""
    import numpy as np

    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def coinciding_means_loop(means):
    """Reference for `data.SyntheticTask`'s coinciding-means check: the
    pairwise `np.allclose` loop it replaced. Returns the first coinciding
    pair (i, j), i < j in lexicographic order, or None."""
    import numpy as np

    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            if np.allclose(means[i], means[j]):
                return i, j
    return None


NORM_FLOOR = 1e-12


def consistency_weights_loop(p_bar, margin):
    """Reference for `server.consistency_weights`: for each expert e, each
    client's score p_bar[i, e] * margin[i, e], summed over clients in
    ascending order; omega[i, e] is the score over that sum, or 1/N when
    the sum is below 1e-12. Computed in the inputs' dtype, at least
    float64, so `np.longdouble` inputs give an 80-bit reference."""
    import numpy as np

    dtype = np.result_type(np.asarray(p_bar), np.asarray(margin), np.float64)
    p_bar = np.asarray(p_bar, dtype=dtype)
    margin = np.asarray(margin, dtype=dtype)
    n, s = p_bar.shape
    omega = np.zeros((n, s), dtype=dtype)
    for e in range(s):
        scores = [p_bar[i, e] * margin[i, e] for i in range(n)]
        total = dtype.type(0.0)
        for score in scores:
            total += score
        for i in range(n):
            omega[i, e] = scores[i] / total if total >= NORM_FLOOR else dtype.type(1.0) / n
    return omega


def cosine_sim_scalar(a, b):
    """Reference for the Gram-form `numeric.cosine_sim`: one pair of
    vectors, 0 if either norm is below 1e-12, else the clipped cosine.
    Computed in the inputs' dtype, at least float64, so `np.longdouble`
    inputs give an 80-bit reference."""
    import numpy as np

    dtype = np.result_type(np.asarray(a), np.asarray(b), np.float64)
    a = np.asarray(a, dtype=dtype).ravel()
    b = np.asarray(b, dtype=dtype).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        return dtype.type(0.0)
    return np.clip(a @ b / (na * nb), -1.0, 1.0)


def pairwise_semantics_loop(mu, mu_empty, deltas):
    """Reference for `server.pairwise_semantics`: the double loop over client
    pairs i <= j, one `cosine_sim_scalar` call per pair and quantity, both
    entries set to 0 where either client's mu is empty or update row has
    norm below 1e-12. Takes mu (N, S, H), mu_empty (N, S) and the N
    clients' updates. Computed in the dtype of the mu rows and update
    blocks, at least float64; `deltas` need only carry the four expert
    blocks, so both may be `np.longdouble`."""
    import numpy as np

    n, s = mu_empty.shape
    flats = [flat_expert_rows(d) for d in deltas]
    dtype = np.result_type(mu, flats[0], np.float64)
    sim = np.zeros((s, n, n), dtype=dtype)
    dcons = np.zeros((s, n, n), dtype=dtype)
    for e in range(s):
        rows = [f[e] for f in flats]
        valid = [
            not mu_empty[i, e] and np.linalg.norm(rows[i]) >= NORM_FLOOR
            for i in range(n)
        ]
        for i in range(n):
            for j in range(i, n):
                if valid[i] and valid[j]:
                    sv = cosine_sim_scalar(mu[i, e], mu[j, e])
                    dv = cosine_sim_scalar(rows[i], rows[j])
                    sim[e, i, j] = sim[e, j, i] = sv
                    dcons[e, i, j] = dcons[e, j, i] = dv
    return sim, dcons


def semantic_chain_batched(mu, mu_empty, deltas, beta, fixed_tau=None, use_direction=True):
    """Reference for the server's semantic gating, which takes one expert at
    a time: the whole chain on (S, N, N) arrays, as the server once ran it.
    Pairwise semantics (both entries 0 where either mu is empty or either
    update row is zero), then per expert tau = M - beta * Sigma over all
    N^2 entries (every tau replaced by fixed_tau when set), the gate
    sigmoid(S - tau) * max(0, D) (the D factor dropped without
    use_direction), gamma's row sums over the partner axis and the weights
    w_i(e) = row_i(e) / sum_i row_i(e), experts below NORM_FLOOR not
    updated. Takes mu (N, S, H), mu_empty (N, S) and the stacked deltas
    (blocks lead with N); the cosines and the gate come from the package's
    kernels, so slice e of each output is bit-identical to a correct
    per-expert split. Returns a SimpleNamespace of sim, dcons, tau,
    mean_sim, disp, gamma, gamma_row_sums, weights and updated."""
    from types import SimpleNamespace

    import numpy as np

    from fedalign.numeric import cosine_sim, sigmoid

    n, s = mu_empty.shape
    sim = np.empty((s, n, n))
    dcons = np.empty((s, n, n))
    for e in range(s):
        rows = np.concatenate(
            [getattr(deltas, b)[:, e].reshape(n, -1) for b in EXPERT_BLOCKS], axis=1
        )
        d = cosine_sim(rows)
        valid = ~mu_empty[:, e] & (np.diagonal(d) > 0.0)
        pair = valid[:, None] & valid[None, :]
        sim[e] = np.where(pair, cosine_sim(mu[:, e]), 0.0)
        dcons[e] = np.where(pair, d, 0.0)
    mean_sim = sim.reshape(s, -1).mean(axis=1)
    disp = np.sqrt(((sim.reshape(s, -1) - mean_sim[:, None]) ** 2).mean(axis=1))
    tau = mean_sim - beta * disp
    if fixed_tau is not None:
        tau = np.full(s, float(fixed_tau))
    gamma = sigmoid(sim - tau[:, None, None])
    if use_direction:
        gamma = gamma * np.maximum(0.0, dcons)
    row = gamma.sum(axis=2)
    total = row.sum(axis=1)
    updated = total >= NORM_FLOOR
    weights = np.zeros_like(row)
    weights[updated] = row[updated] / total[updated, None]
    return SimpleNamespace(
        sim=sim, dcons=dcons, tau=tau, mean_sim=mean_sim, disp=disp, gamma=gamma,
        gamma_row_sums=row, weights=weights, updated=updated,
    )


def compute_margin_sort(fp):
    """Reference for `client.compute_margin`: each sample's top expert and
    runner-up by a stable sort of its full-softmax row `fp` (B, S), the
    positive gap added onto the top expert in sample order, over B."""
    import numpy as np

    s = fp.shape[1]
    rows = np.arange(fp.shape[0])
    order = np.argsort(-fp, axis=1, kind="stable")
    top = order[:, 0]
    gap = fp[rows, top] - (fp[rows, order[:, 1]] if s > 1 else 0.0)
    margin = np.zeros(s)
    np.add.at(margin, top, np.maximum(gap, 0.0))
    return margin / fp.shape[0]


def compute_mu_loop(scores, hidden):
    """Reference for `client.compute_mu`: one expert at a time, the mean of
    the hidden rows whose argmax score (ties to the lower index) is that
    expert; an empty expert gets a zero row and the flag."""
    import numpy as np

    s = scores.shape[1]
    assign = np.argmax(scores, axis=1)
    mu = np.zeros((s, hidden.shape[1]))
    empty = np.ones(s, dtype=bool)
    for e in range(s):
        rows = np.nonzero(assign == e)[0]
        if rows.size:
            mu[e] = hidden[rows].mean(axis=0)
            empty[e] = False
    return mu, empty


def init_params_explicit(config, rng):
    """Reference for `model.init_params`: each of the seven blocks written
    out with its own shape and fan-in, in BLOCKS order. Returns the blocks
    as a tuple of arrays."""
    import numpy as np

    d, h, s = config.input_dim, config.hidden_dim, config.num_experts
    eh, c = config.expert_hidden, config.num_classes
    return (
        rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h)),  # embed
        rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, s)),  # gate
        rng.normal(0.0, 1.0 / np.sqrt(h), size=(s, h, eh)),  # expert_w1
        np.zeros((s, eh)),  # expert_b1
        rng.normal(0.0, 1.0 / np.sqrt(eh), size=(s, eh, h)),  # expert_w2
        np.zeros((s, h)),  # expert_b2
        rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, c)),  # head
    )


def sparse_forward(params, x, k, labels=None):
    """Reference for `model.forward`: the per-expert sparse dispatch it
    replaced. Each expert runs only on the rows whose top-k (ties to the
    lower index) holds it, and its output is added with the row's top-k
    renormalized weight. Membership is the top-k set, not weight > 0, so an
    expert whose weight underflows to 0 is still in the cache. Returns a
    dict of the intermediates, `cache` (expert -> (rows, tanh activations,
    outputs)) and `loss` (mean cross-entropy, or None without labels)."""
    import numpy as np

    h = x @ params.embed
    g = h @ params.gate
    b, s = g.shape
    ez = np.exp(g - g.max(axis=1, keepdims=True))
    fp = ez / ez.sum(axis=1, keepdims=True)
    # Dispatch order: descending score, ties to the lower index.
    topk_idx = np.argsort(-g, axis=1, kind="stable")[:, :k]
    masked = np.full_like(g, -np.inf)
    rows = np.arange(b)[:, None]
    masked[rows, topk_idx] = g[rows, topk_idx]
    shifted = masked - masked.max(axis=1, keepdims=True)
    ez = np.exp(shifted, where=np.isfinite(shifted), out=np.zeros_like(shifted))
    tp = ez / ez.sum(axis=1, keepdims=True)

    y = np.zeros_like(h)
    cache = {}
    for e in range(s):
        sel = np.nonzero(np.any(topk_idx == e, axis=1))[0]
        if sel.size == 0:
            continue
        z = np.tanh(h[sel] @ params.expert_w1[e] + params.expert_b1[e])
        o = z @ params.expert_w2[e] + params.expert_b2[e]
        y[sel] += tp[sel, e][:, None] * o
        cache[e] = (sel, z, o)
    r = y + h
    logits = r @ params.head
    loss = None
    if labels is not None:
        # The row's largest term goes back in through log1p, which keeps a
        # confident row's log-probabilities accurate.
        top = np.argmax(logits, axis=1)
        shifted = logits - logits[np.arange(b), top][:, None]
        rest = np.exp(shifted)
        rest[np.arange(b), top] = 0.0
        logp = shifted - np.log1p(rest.sum(axis=1, keepdims=True))
        loss = float(-logp[np.arange(b), labels].mean())
    return dict(x=x, h=h, fp=fp, topk_idx=topk_idx, tp=tp, r=r, logits=logits,
                cache=cache, loss=loss)


def sparse_backward(fwd, params, labels, k, lam=0.0, p_g=None, alpha=None):
    """Reference for `model.backward` on a `sparse_forward` result: one
    expert at a time over its cached rows, the top-k softmax backward on the
    gathered (B, k) weights scattered back with `np.add.at`, and the masked
    KL gradient from `masked_kl_row` one sample at a time, each over its own
    top-k dispatch set. Returns a dict of the seven gradient blocks."""
    import numpy as np

    b = fwd["x"].shape[0]
    e_x = np.exp(fwd["logits"] - fwd["logits"].max(axis=1, keepdims=True))
    dlogits = e_x / e_x.sum(axis=1, keepdims=True)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    grads = {name: np.zeros_like(getattr(params, name)) for name in
             ("embed", "gate", *EXPERT_BLOCKS)}
    grads["head"] = fwd["r"].T @ dlogits
    dy = dlogits @ params.head.T
    dh = dy.copy()
    tp = fwd["tp"]
    dtp = np.zeros_like(tp)
    for e, (sel, z, o) in fwd["cache"].items():
        dtp[sel, e] = np.einsum("ij,ij->i", dy[sel], o)
        do = tp[sel, e][:, None] * dy[sel]
        grads["expert_w2"][e] = z.T @ do
        grads["expert_b2"][e] = do.sum(axis=0)
        da = (do @ params.expert_w2[e].T) * (1.0 - z * z)
        grads["expert_w1"][e] = fwd["h"][sel].T @ da
        grads["expert_b1"][e] = da.sum(axis=0)
        dh[sel] += da @ params.expert_w1[e].T

    def softmax_backward(p, dp):
        # dp shifted by its value at the row's largest weight; unshifted, a
        # near one-hot row cancels in the subtraction.
        d = dp - dp[np.arange(b), np.argmax(p, axis=1)][:, None]
        return p * (d - (p * d).sum(axis=1, keepdims=True))

    idx = (np.arange(b)[:, None], fwd["topk_idx"])
    dg = np.zeros_like(tp)
    np.add.at(dg, idx, softmax_backward(tp[idx], dtp[idx]))
    if lam > 0.0:
        fp = fwd["fp"]
        dfp = np.stack([
            masked_kl_row(row, dispatch, p_g, alpha, k, want_grad=True)[1]
            for row, dispatch in zip(fp, fwd["topk_idx"])
        ])
        dfp *= lam / b
        dg += softmax_backward(fp, dfp)
    grads["gate"] = fwd["h"].T @ dg
    dh += dg @ params.gate.T
    grads["embed"] = fwd["x"].T @ dh
    return grads


def local_round_per_block(config, params_in, shard, ctx, epochs, lr, rng, batch_size=32,
                          prox_mu=0.0):
    """Reference for `client.local_round`: the per-block loop it replaced.

    Each step gathers its batch from the shard with two fancy-index lookups,
    adds the proximal gradient `prox_mu * (theta - params_in)` block by
    block, updates each of the seven blocks on its own and checks each for
    finite entries. The model math is the package's `forward`/`backward`,
    and the statistics come from the client's helpers. Returns one client's
    `client.Uploads`."""
    import numpy as np

    from fedalign import client as C
    from fedalign import model as M

    blocks = M.ModelParams.BLOCKS
    params = M.ModelParams(*(getattr(params_in, b).copy() for b in blocks))
    n = shard.size
    for _epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            trace, loss = M.forward(config, params, shard.features[idx], shard.labels[idx])
            if loss is None or not np.isfinite(loss):
                raise FloatingPointError("non-finite training loss, aborting round")
            grads = M.backward(trace, params, lam=ctx.lam, reg_ctx=ctx)
            if prox_mu > 0.0:
                grads = M.ModelParams(*(
                    getattr(grads, b) + prox_mu * (getattr(params, b) - getattr(params_in, b))
                    for b in blocks
                ))
            for b in blocks:
                getattr(params, b)[...] -= lr * getattr(grads, b)
            for b in blocks:
                if not np.all(np.isfinite(getattr(params, b))):
                    raise FloatingPointError(f"non-finite entries in parameter block {b!r}")

    trace, mean_local = M.forward(config, params, shard.features, shard.labels)
    mu, empty = C.compute_mu(trace)
    return C.Uploads(
        param_delta=M.ModelParams(
            *(getattr(params, b) - getattr(params_in, b) for b in blocks)
        ),
        p_bar=C.compute_p_bar(trace),
        margin=C.compute_margin(trace),
        mu=mu,
        mu_empty=empty,
        mean_local_loss=mean_local,
        mean_reg_loss=C.reg_loss(trace, ctx),
    )


def dirichlet_partition_unique(features, labels, num_clients, concentration, rng):
    """Reference for `data.dirichlet_partition`'s shards: the same draws
    over the classes `np.unique(labels)`, as (features, labels) per client;
    None when each of its 100 draws leaves a client empty."""
    import numpy as np

    clients = np.arange(num_clients)
    for _ in range(100):
        owner = np.empty(labels.size, dtype=np.intp)
        for c in np.unique(labels):
            idx = np.nonzero(labels == c)[0]
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(num_clients, concentration, dtype=np.float64))
            cuts = (np.cumsum(props)[:-1] * idx.size).astype(int)
            owner[idx] = np.repeat(clients, np.diff(cuts, prepend=0, append=idx.size))
        if np.bincount(owner, minlength=num_clients).min() >= 1:
            return [(features[owner == i], labels[owner == i]) for i in clients]
    return None
