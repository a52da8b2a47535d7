"""Model tests: top-k selection, forward degenerate cases, exact gradients
against finite differences, dense-mixture equivalence at k=S, the dense
expert dispatch against the per-expert sparse oracle, the batched masked KL
against the per-sample oracle, and the byte-exact checkpoint format."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import grad_check
from fedalign.model import (
    MoEConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    masked_kl,
    save_checkpoint,
    top_k_select,
)
from fedalign.numeric import softmax


def small_config(**kw):
    base = dict(
        input_dim=3, hidden_dim=4, num_experts=3, top_k=2, num_classes=3, expert_hidden=4
    )
    base.update(kw)
    return MoEConfig(**base)


def small_batch(config, seed=0, batch=4):
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    x = rng.normal(size=(batch, config.input_dim))
    labels = rng.integers(0, config.num_classes, size=batch)
    return params, x, labels


class TestConfig:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            small_config(hidden_dim=0)
        with pytest.raises(ValueError):
            small_config(top_k=4, num_experts=3)


class TestTopKSelect:
    def test_plain(self):
        assert top_k_select(np.array([3.0, 1.0, 2.0]), 2).tolist() == [0, 2]

    def test_tie_break_all_equal(self):
        assert top_k_select(np.array([5.0, 5.0, 5.0]), 1).tolist() == [0]

    def test_tie_break_partial(self):
        assert top_k_select(np.array([0.1, 0.9, 0.9, 0.2]), 2).tolist() == [1, 2]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            top_k_select(np.array([1.0, 2.0]), 3)


class TestForward:
    def test_k_equals_s_matches_full_softmax(self):
        config = small_config(top_k=3)
        params, x, labels = small_batch(config)
        trace, _ = forward(config, params, x, labels)
        np.testing.assert_allclose(trace.topk_probs, trace.full_probs, atol=1e-12)

    def test_zero_gate_uniform_and_tie_break(self):
        config = small_config()
        params, x, labels = small_batch(config)
        params.gate[...] = 0.0
        trace, _ = forward(config, params, x, labels)
        np.testing.assert_allclose(trace.full_probs, 1.0 / 3.0, atol=1e-12)
        assert np.all(trace.topk_idx == np.array([0, 1]))

    def test_singleton_softmax(self):
        config = small_config(num_experts=2, top_k=1)
        params, x, labels = small_batch(config, batch=1)
        # Force gate scores [2.0, 1.0] for the single sample.
        trace, _ = forward(config, params, x, labels)
        h = trace.hidden
        params.gate[...] = np.linalg.lstsq(h, np.array([[2.0, 1.0]]), rcond=None)[0]
        trace, _ = forward(config, params, x, labels)
        np.testing.assert_allclose(trace.scores, [[2.0, 1.0]], atol=1e-9)
        assert trace.topk_idx.tolist() == [[0]]
        np.testing.assert_allclose(trace.topk_probs, [[1.0, 0.0]], atol=1e-12)

    def test_sparsity(self):
        config = small_config()
        params, x, labels = small_batch(config, batch=8)
        trace, _ = forward(config, params, x, labels)
        assert np.all(np.count_nonzero(trace.topk_probs, axis=1) == config.top_k)
        np.testing.assert_allclose(trace.topk_probs.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(trace.full_probs.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        config = small_config()
        params, x, labels = small_batch(config)
        t1, l1 = forward(config, params, x, labels)
        t2, l2 = forward(config, params, x, labels)
        assert l1 == l2
        assert np.array_equal(t1.logits, t2.logits)

    def test_rejects_bad_inputs(self):
        config = small_config()
        params, x, labels = small_batch(config)
        with pytest.raises(ValueError):
            forward(config, params, x[:, :2], labels)
        with pytest.raises(FloatingPointError):
            forward(config, params, np.full_like(x, np.nan), labels)
        with pytest.raises(ValueError):
            forward(config, params, x, labels + 100)


class RegCtx:
    def __init__(self, p_g, alpha):
        self.p_g = p_g
        self.alpha = alpha


def total_loss(config, params, x, labels, lam, ctx):
    trace, ce = forward(config, params, x, labels)
    if lam == 0.0:
        return ce
    reg = np.mean(
        [masked_kl(fp, ctx.p_g, ctx.alpha, config.top_k) for fp in trace.full_probs]
    )
    return ce + lam * reg


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
def test_gradients_match_finite_differences(lam):
    config = small_config()
    rng = np.random.default_rng(7)
    p_g = rng.dirichlet(np.ones(config.num_experts))
    alpha = rng.uniform(0.2, 1.0, size=config.num_experts)
    ctx = RegCtx(p_g, alpha)
    for seed in range(4):
        params, x, labels = small_batch(config, seed=seed)
        trace, _ = forward(config, params, x, labels)
        grads = backward(trace, params, config, lam=lam, reg_ctx=ctx)
        for block in ModelParams.BLOCKS:
            def f(w, block=block):
                probe = params.copy()
                setattr(probe, block, w)
                return total_loss(config, probe, x, labels, lam, ctx)

            disc = grad_check(f, getattr(params, block), getattr(grads, block), eps=1e-5)
            assert disc < 1e-5, f"block {block} lam {lam} seed {seed}: {disc}"


def test_lambda_zero_matches_pure_cross_entropy():
    config = small_config()
    params, x, labels = small_batch(config)
    trace, _ = forward(config, params, x, labels)
    g0 = backward(trace, params, config, lam=0.0)
    g1 = backward(trace, params, config, lam=0.0, reg_ctx=None)
    for block in ModelParams.BLOCKS:
        assert np.array_equal(getattr(g0, block), getattr(g1, block))


def test_non_activated_expert_gradient_zero():
    config = small_config(num_experts=3, top_k=1)
    params, x, labels = small_batch(config, batch=6)
    trace, _ = forward(config, params, x, labels)
    grads = backward(trace, params, config)
    activated = set(trace.topk_idx.ravel().tolist())
    for e in range(config.num_experts):
        if e not in activated:
            assert np.all(grads.expert_w1[e] == 0.0)
            assert np.all(grads.expert_b1[e] == 0.0)
            assert np.all(grads.expert_w2[e] == 0.0)
            assert np.all(grads.expert_b2[e] == 0.0)


def test_dense_mixture_equivalence_at_k_equals_s():
    config = small_config(top_k=3)
    for seed in range(3):
        params, x, labels = small_batch(config, seed=seed)
        _, ce = forward(config, params, x, labels)
        dense = oracles.dense_mixture_loss(params, x, labels)
        assert abs(ce - dense) < 1e-9


def assert_close_rel(actual, expected, what):
    """Agreement within 1e-12 of the largest entry of `expected`."""
    scale = max(np.abs(expected).max(initial=0.0), np.finfo(float).tiny)
    worst = np.abs(np.asarray(actual) - expected).max(initial=0.0)
    assert worst <= 1e-12 * scale, f"{what}: {worst:.3g} against scale {scale:.3g}"


class TestDenseDispatchOracle:
    """The dense dispatch of `forward`/`backward` against the per-expert
    sparse dispatch it replaced (`oracles.sparse_forward`/`sparse_backward`),
    with tied gate scores from rounded weights and inputs, and top-k
    weights that underflow to 0 under a x400 gate."""

    @settings(max_examples=150, deadline=None)
    # Confident rows: a near one-hot top-k under a x400 gate, where the
    # unshifted softmax backward cancelled, and losses of 1.2e-8 and 1.8e-4,
    # where the log-softmax rounded to ulps of the largest logit.
    @example(s=19, k_frac=0.5, b=13, seed=1128, rounded=False, gate_scale=400.0)
    @example(s=1, k_frac=0.0, b=1, seed=1500304, rounded=True, gate_scale=1.0)
    @example(s=19, k_frac=0.0, b=1, seed=749824, rounded=False, gate_scale=1.0)
    @given(
        s=st.integers(1, 32),
        k_frac=st.floats(0.0, 1.0),
        b=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        rounded=st.booleans(),
        gate_scale=st.sampled_from([1.0, 400.0]),
    )
    def test_matches_sparse_oracle(self, s, k_frac, b, seed, rounded, gate_scale):
        k = 1 + min(s - 1, int(k_frac * s))
        config = MoEConfig(input_dim=3, hidden_dim=4, num_experts=s, top_k=k,
                           num_classes=3, expert_hidden=3)
        rng = np.random.default_rng(seed)
        params = init_params(config, rng)
        x = rng.normal(size=(b, config.input_dim))
        labels = rng.integers(0, config.num_classes, size=b)
        if rounded:
            x = np.round(x)
            params.embed = np.round(params.embed * 2.0)
            params.gate = np.round(params.gate * 2.0)
        params.gate *= gate_scale
        p_g = rng.dirichlet(np.ones(s))
        alpha = rng.uniform(0.0, 1.0, size=s)
        lam = 0.3

        trace, loss = forward(config, params, x, labels)
        grads = backward(trace, params, config, lam, RegCtx(p_g, alpha))
        ref = oracles.sparse_forward(params, x, k, labels)
        ref_grads = oracles.sparse_backward(ref, params, labels, k, lam, p_g, alpha)

        assert np.array_equal(trace.topk_idx, ref["topk_idx"])
        assert_close_rel(trace.logits, ref["logits"], "logits")
        assert_close_rel(loss, ref["loss"], "loss")
        for block in ModelParams.BLOCKS:
            assert_close_rel(getattr(grads, block), ref_grads[block], block)
        off = np.setdiff1d(np.arange(s), list(ref["cache"]))
        for block in ("expert_w1", "expert_b1", "expert_w2", "expert_b2"):
            assert not np.any(getattr(grads, block)[off])


def test_backward_requires_labels():
    config = small_config()
    params, x, _ = small_batch(config)
    trace, _ = forward(config, params, x)
    with pytest.raises(ValueError):
        backward(trace, params, config)


class TestMaskedKl:
    def test_equal_on_mask_is_zero(self):
        p = np.array([0.5, 0.3, 0.2])
        assert masked_kl(p, p.copy(), np.ones(3), 2) == 0.0

    def test_alpha_zero(self):
        p = np.array([0.9, 0.05, 0.05])
        q = np.array([0.1, 0.4, 0.5])
        assert masked_kl(p, q, np.zeros(3), 2) == 0.0

    def test_hand_value(self):
        # k=2 so the mask covers both experts; renormalization is then a
        # no-op and the value is the plain two-term KL.
        val = masked_kl(
            np.array([0.9, 0.1]), np.array([0.5, 0.5]), np.ones(2), 2
        )
        assert abs(val - oracles.MASKED_KL_09_05) < 1e-9

    def test_shapes(self):
        rng = np.random.default_rng(0)
        fp = softmax(rng.normal(size=(3, 5)))
        p_g, alpha = softmax(rng.normal(size=5)), rng.uniform(size=5)
        val, dfp = masked_kl(fp[0], p_g, alpha, 2, want_grad=True)
        assert isinstance(val, float) and dfp.shape == (5,)
        assert isinstance(masked_kl(fp[0], p_g, alpha, 2), float)
        assert masked_kl(fp, p_g, alpha, 2).shape == (3,)
        one, done = masked_kl(fp[:1], p_g, alpha, 2, want_grad=True)
        assert one.shape == (1,) and one[0] == val
        assert np.array_equal(done[0], dfp)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.integers(1, 20),
        k_frac=st.floats(0.0, 1.0),
        b=st.integers(1, 8),
        logit_scale=st.sampled_from([0.0, 0.5, 3.0, 400.0]),
        pg_zeros=st.booleans(),
        alpha_kind=st.sampled_from(["zero", "uniform", "some-zero"]),
    )
    def test_batch_matches_row_oracle(
        self, seed, s, k_frac, b, logit_scale, pg_zeros, alpha_kind
    ):
        # Integer logits tie often; the large scale underflows entries of fp
        # to exactly 0.
        rng = np.random.default_rng(seed)
        k = 1 + min(int(k_frac * s), s - 1)
        fp = softmax(logit_scale * rng.integers(-3, 4, size=(b, s)))
        p_g = rng.dirichlet(np.ones(s))
        if pg_zeros:
            p_g[rng.uniform(size=s) < 0.5] = 0.0
            p_g[rng.integers(s)] += 1.0
            p_g /= p_g.sum()
        alpha = {
            "zero": np.zeros(s),
            "uniform": rng.uniform(size=s),
            "some-zero": rng.uniform(size=s) * (rng.uniform(size=s) < 0.5),
        }[alpha_kind]
        vals, dfp = masked_kl(fp, p_g, alpha, k, want_grad=True)
        assert vals.shape == (b,) and dfp.shape == (b, s)
        for i in range(b):
            want_val, want_dfp = oracles.masked_kl_row(fp[i], p_g, alpha, k, want_grad=True)
            if 2 * k < 8:
                assert vals[i] == want_val
                assert np.array_equal(dfp[i], want_dfp)
            else:
                # The padded width reaches numpy's pairwise-sum threshold.
                assert abs(vals[i] - want_val) <= 1e-13
                assert np.max(np.abs(dfp[i] - want_dfp)) <= 1e-13
            assert masked_kl(fp[i], p_g, alpha, k) == vals[i]


class TestCheckpoint:
    def test_roundtrip_byte_exact(self, tmp_path):
        config = small_config()
        params, _, _ = small_batch(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        config2, params2 = load_checkpoint(path)
        assert config2 == config
        for block in ModelParams.BLOCKS:
            assert np.array_equal(getattr(params, block), getattr(params2, block))
        # Re-saving the loaded model must reproduce identical bytes.
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(path2, config2, params2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        config = small_config()
        params, _, _ = small_batch(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        raw = path.read_bytes()
        assert raw[:4] == b"FMOE"
        n_floats = sum(getattr(params, b).size for b in ModelParams.BLOCKS)
        assert len(raw) == 4 + 28 + 8 * n_floats

    def test_rejects_corruption(self, tmp_path):
        config = small_config()
        params, _, _ = small_batch(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ValueError):
            load_checkpoint(bad)
        bad.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(bad)
        bad.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    # Headers that claim far more floats than the 64-byte body holds. The
    # last one's float count wraps to 0 in int64.
    @pytest.mark.parametrize("dims", [
        (2**20, 2**20, 1, 1, 1, 1),
        (2**32 - 1,) * 6,
        (1, 2**21, 2**22, 1, 1, 2**21),
    ])
    def test_oversized_header_named(self, tmp_path, dims):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"FMOE" + struct.pack("<7I", 1, *dims) + b"\x00" * 64)
        with pytest.raises(ValueError, match=r"truncated checkpoint: 96 bytes, header needs \d+"):
            load_checkpoint(bad)

    def test_every_truncation_named(self, tmp_path):
        config = small_config()
        params, _, _ = small_batch(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in range(len(raw)):
            bad.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="truncated checkpoint"):
                load_checkpoint(bad)
        bad.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(bad)
