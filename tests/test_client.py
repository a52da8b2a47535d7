"""Client-side tests: routing statistics, the regularizer and local training
behaviour."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from helpers import apply_delta
from fedalign.client import (
    RegContext,
    compute_alpha,
    compute_margin,
    compute_mu,
    compute_p_bar,
    local_round,
    reg_loss,
)
from fedalign.data import ClientDataset
from fedalign.model import MoEConfig, ModelParams, expert_rows, forward, init_params


def make_setup(seed=0, n=32, s=3, k=1, classes=3):
    config = MoEConfig(
        input_dim=4, hidden_dim=6, num_experts=s, top_k=k, num_classes=classes,
        expert_hidden=6,
    )
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    x = rng.normal(size=(n, config.input_dim))
    y = rng.integers(0, classes, size=n)
    shard = ClientDataset(x, y)
    ctx = RegContext(p_g=np.full(s, 1.0 / s), lam=0.1, alpha=np.ones(s))
    return config, params, shard, ctx


class TestRegContext:
    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            RegContext(np.array([0.5, 0.5]), -1.0, np.ones(2))

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            RegContext(np.array([0.7, 0.7]), 0.1, np.ones(2))


class TestPBar:
    def test_single_expert(self):
        trace = SimpleNamespace(topk_probs=np.array([[1.0, 0, 0], [1.0, 0, 0]]))
        np.testing.assert_allclose(compute_p_bar(trace), [1.0, 0.0, 0.0])

    def test_uniform_k_equals_s(self):
        trace = SimpleNamespace(topk_probs=np.full((5, 4), 0.25))
        np.testing.assert_allclose(compute_p_bar(trace), 0.25)

    def test_hand_average(self):
        trace = SimpleNamespace(
            topk_probs=np.array([[0.8, 0.2, 0.0], [0.4, 0.6, 0.0]])
        )
        np.testing.assert_allclose(
            compute_p_bar(trace), oracles.P_BAR_TWO_SAMPLES, atol=1e-9
        )


class TestMargin:
    def test_constant_probs(self):
        trace = SimpleNamespace(full_probs=np.array([[0.7, 0.3], [0.7, 0.3]]))
        np.testing.assert_allclose(compute_margin(trace), [0.4, 0.0], atol=1e-9)

    def test_uniform_probs(self):
        trace = SimpleNamespace(full_probs=np.full((3, 4), 0.25))
        np.testing.assert_allclose(compute_margin(trace), 0.0, atol=1e-12)

    def test_single_expert_runner_up_is_zero(self):
        trace = SimpleNamespace(full_probs=np.ones((3, 1)))
        assert compute_margin(trace).tolist() == [1.0]

    def test_hand_average(self):
        trace = SimpleNamespace(
            full_probs=np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        )
        np.testing.assert_allclose(
            compute_margin(trace), oracles.MARGIN_TWO_SAMPLES, atol=1e-9
        )


class TestMu:
    def test_all_to_one_expert(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        trace = SimpleNamespace(scores=np.array([[2.0, 1.0], [3.0, 1.0]]), hidden=h)
        mu, empty = compute_mu(trace)
        np.testing.assert_allclose(mu[0], h.mean(axis=0))
        assert not empty[0] and empty[1]
        assert np.all(mu[1] == 0.0)

    def test_one_sample_per_expert(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        trace = SimpleNamespace(scores=np.array([[2.0, 1.0], [1.0, 2.0]]), hidden=h)
        mu, empty = compute_mu(trace)
        np.testing.assert_allclose(mu, h)
        assert not empty.any()

    def test_mean_of_two(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        trace = SimpleNamespace(scores=np.array([[0.0, 1.0], [0.0, 1.0]]), hidden=h)
        mu, _ = compute_mu(trace)
        np.testing.assert_allclose(mu[1], [0.5, 0.5])


class TestMuOracle:
    """The one-pass mean against the per-expert loop, on tied scores, empty
    experts and -0.0 hidden entries."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), h=st.integers(2, 6))
    def test_matches_loop_oracle(self, data, h):
        scores, hidden = data.draw(assignment_batch(h))
        mu, empty = compute_mu(SimpleNamespace(scores=scores, hidden=hidden))
        want_mu, want_empty = oracles.compute_mu_loop(scores, hidden)
        assert np.array_equal(mu, want_mu)
        # Byte equality also tells -0.0 from 0.0.
        assert mu.tobytes() == want_mu.tobytes()
        assert np.array_equal(empty, want_empty)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_single_column_within_rounding(self, data):
        # numpy's mean sums a lone column pairwise, the one pass in sample
        # order: the two agree up to rounding only.
        scores, hidden = data.draw(assignment_batch(1))
        mu, empty = compute_mu(SimpleNamespace(scores=scores, hidden=hidden))
        want_mu, want_empty = oracles.compute_mu_loop(scores, hidden)
        np.testing.assert_allclose(mu, want_mu, rtol=0, atol=1e-13)
        assert np.array_equal(empty, want_empty)


@st.composite
def assignment_batch(draw, h):
    """Gate scores from {0, 1, 2} (so ties are common and some experts get no
    sample) and hidden rows with -0.0 entries."""
    b = draw(st.integers(1, 40))
    s = draw(st.integers(1, 6))
    scores = draw(hnp.arrays(np.float64, (b, s), elements=st.sampled_from([0.0, 1.0, 2.0])))
    hidden = draw(hnp.arrays(
        np.float64, (b, h), elements=st.one_of(st.just(-0.0), st.floats(-10, 10))
    ))
    return scores, hidden


class TestAlpha:
    def test_at_threshold(self):
        assert compute_alpha(np.array([0.1]), 0.1)[0] == 0.5

    def test_closed_form(self):
        out = compute_alpha(np.array([0.1 + math.log(3.0)]), 0.1)
        assert abs(out[0] - oracles.SIGMOID_LN3) < 1e-9

    def test_monotone(self):
        o = np.linspace(0.0, 1.0, 11)
        a = compute_alpha(o, 0.3)
        assert np.all(np.diff(a) > 0)


class TestRegLoss:
    def test_zero_when_matching(self):
        p = np.array([0.5, 0.3, 0.2])
        trace = SimpleNamespace(batch_size=2, full_probs=np.stack([p, p]))
        ctx = RegContext(p, 0.1, np.ones(3))
        assert reg_loss(trace, ctx, 3) == 0.0

    def test_zero_alpha(self):
        trace = SimpleNamespace(batch_size=1, full_probs=np.array([[0.9, 0.1]]))
        ctx = RegContext(np.array([0.5, 0.5]), 0.1, np.zeros(2))
        assert reg_loss(trace, ctx, 1) == 0.0

    def test_hand_value(self):
        trace = SimpleNamespace(batch_size=1, full_probs=np.array([[0.9, 0.1]]))
        ctx = RegContext(np.array([0.5, 0.5]), 0.1, np.ones(2))
        assert abs(reg_loss(trace, ctx, 2) - oracles.MASKED_KL_09_05) < 1e-9


class TestLocalRound:
    def test_lr_zero_is_pure_evaluation(self):
        config, params, shard, ctx = make_setup()
        res = local_round(
            config, params, shard, ctx, epochs=2, lr=0.0,
            rng=np.random.default_rng(0),
        )
        assert np.all(expert_rows(res.param_delta) == 0.0)
        new = apply_delta(params, res.param_delta)
        for b in ModelParams.BLOCKS:
            assert np.array_equal(getattr(new, b), getattr(params, b))
        trace, _ = forward(config, params, shard.features, shard.labels)
        np.testing.assert_allclose(res.p_bar, compute_p_bar(trace), atol=1e-12)
        np.testing.assert_allclose(res.margin, compute_margin(trace), atol=1e-12)

    def test_lambda_zero_equals_alpha_zero(self):
        # The regularizer disappears both when lam=0 and when every alpha is
        # zero; the trained parameters must agree bitwise.
        config, params, shard, ctx = make_setup()
        ctx0 = RegContext(ctx.p_g, 0.0, np.ones(3))
        ctxa = RegContext(ctx.p_g, 0.5, np.zeros(3))
        r0 = local_round(config, params, shard, ctx0, 2, 0.1, np.random.default_rng(4))
        ra = local_round(config, params, shard, ctxa, 2, 0.1, np.random.default_rng(4))
        new0, newa = apply_delta(params, r0.param_delta), apply_delta(params, ra.param_delta)
        for b in ModelParams.BLOCKS:
            assert np.array_equal(getattr(new0, b), getattr(newa, b))
        assert ra.mean_reg_loss == 0.0

    def test_separable_task_trains(self):
        config = MoEConfig(
            input_dim=2, hidden_dim=8, num_experts=2, top_k=1, num_classes=2,
            expert_hidden=8,
        )
        rng = np.random.default_rng(11)
        n = 40
        labels = np.repeat([0, 1], n // 2)
        means = np.array([[-2.0, 0.0], [2.0, 0.0]])
        x = means[labels] + rng.normal(0.0, 0.3, size=(n, 2))
        shard = ClientDataset(x, labels)
        ctx = RegContext(np.array([0.5, 0.5]), 0.0, np.ones(2))
        params = init_params(config, rng)
        res = local_round(config, params, shard, ctx, epochs=20, lr=0.2,
                          rng=np.random.default_rng(12))
        trace, _ = forward(config, apply_delta(params, res.param_delta), x, labels)
        acc = float((np.argmax(trace.logits, axis=1) == labels).mean())
        assert acc >= 0.95

    def test_stats_invariant_to_sample_order(self):
        config, params, shard, ctx = make_setup(n=20)
        perm = np.random.default_rng(3).permutation(shard.size)
        shuffled = ClientDataset(shard.features[perm], shard.labels[perm])
        a = local_round(config, params, shard, ctx, 1, 0.0, np.random.default_rng(0))
        b = local_round(config, params, shuffled, ctx, 1, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(a.p_bar, b.p_bar, atol=1e-12)
        np.testing.assert_allclose(a.margin, b.margin, atol=1e-12)
        np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)
        assert np.array_equal(a.mu_empty, b.mu_empty)

    def test_never_activated_expert_quadruple(self):
        # Positive inputs and a positive embed keep the hidden state strictly
        # positive, so a strongly negative gate column gives expert 2 a score
        # far below the others for every sample; one low-lr epoch cannot pull
        # it back into the top-1 set.
        config, params, shard, ctx = make_setup(s=3, k=1)
        params.embed = np.abs(params.embed)
        shard = ClientDataset(np.abs(shard.features) + 0.1, shard.labels)
        params.gate[:, 2] = -100.0
        res = local_round(config, params, shard, ctx, epochs=1, lr=0.01,
                          rng=np.random.default_rng(0))
        assert res.p_bar[2] == 0.0
        assert res.margin[2] == 0.0
        assert res.mu_empty[2]
        assert np.all(expert_rows(res.param_delta)[2] == 0.0)

    def test_loss_linear_in_lambda(self):
        # d L_total / d lam equals the regularizer value at fixed parameters.
        config, params, shard, ctx = make_setup()
        trace, ce = forward(config, params, shard.features, shard.labels)
        reg = reg_loss(trace, ctx, config.top_k)
        h = 1e-3
        def total(lam):
            return ce + lam * reg_loss(trace, ctx, config.top_k)
        slope = (total(ctx.lam + h) - total(ctx.lam - h)) / (2 * h)
        assert abs(slope - reg) < 1e-9

    def test_disagreement_non_increasing_first_epoch(self):
        # With lam > 0 and a fixed disagreeing reference, one epoch on a
        # frozen batch must not increase TV(p_bar, p_g). Fixed seed.
        config, params, shard, ctx = make_setup(seed=5, n=24)
        p_g = np.array([0.7, 0.2, 0.1])
        strong = RegContext(p_g, 1.0, np.ones(3))
        before, _ = forward(config, params, shard.features, shard.labels)
        tv0 = 0.5 * np.abs(compute_p_bar(before) - p_g).sum()
        res = local_round(config, params, shard, strong, epochs=1, lr=0.05,
                          rng=np.random.default_rng(0), batch_size=shard.size)
        tv1 = 0.5 * np.abs(res.p_bar - p_g).sum()
        assert tv1 <= tv0 + 1e-12

    def test_negative_lr_rejected(self):
        config, params, shard, ctx = make_setup()
        with pytest.raises(ValueError):
            local_round(config, params, shard, ctx, 1, -0.1, np.random.default_rng(0))
