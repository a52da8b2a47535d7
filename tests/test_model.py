"""Model tests: top-k selection, forward degenerate cases, exact gradients
against finite differences, dense-mixture equivalence at k=S, and the
byte-exact checkpoint format."""

import numpy as np
import pytest

import oracles
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
    zeros_like_params,
)
from fedalign.numeric import grad_check, softmax


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


def test_zeros_like_params():
    config = small_config()
    params, _, _ = small_batch(config)
    z = zeros_like_params(params)
    for block in ModelParams.BLOCKS:
        arr = getattr(z, block)
        assert arr.shape == getattr(params, block).shape
        assert np.all(arr == 0.0)
