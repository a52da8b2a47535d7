"""Client-side tests: routing statistics, the regularizer, local training
behaviour and the training loop against the per-block loop it replaced."""

import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from helpers import apply_delta, gate_model, softmax, stack_uploads
from fedalign.client import (
    RegContext,
    Uploads,
    compute_alpha,
    compute_margin,
    compute_mu,
    compute_p_bar,
    local_round,
    reg_loss,
)
from fedalign import model as M
from fedalign.data import ClientDataset
from fedalign.model import (
    MoEConfig,
    ModelParams,
    expert_rows,
    forward,
    init_params,
    top_k_select,
)


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
    ctx = RegContext(p_g=np.full(s, 1.0 / s), lam=0.1, alpha=np.ones(s), top_k=k)
    return config, params, shard, ctx


class TestRegContext:
    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            RegContext(np.array([0.5, 0.5]), -1.0, np.ones(2), 1)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            RegContext(np.array([0.7, 0.7]), 0.1, np.ones(2), 1)

    def test_rejects_non_finite(self):
        # A NaN passes both the sign and the sum test.
        with pytest.raises(ValueError):
            RegContext(np.array([np.nan, 1.0]), 0.1, np.ones(2), 1)

    def test_reference_set_is_top_k_of_p_g(self):
        ctx = RegContext(np.array([0.3, 0.1, 0.6]), 0.1, np.ones(3), 2)
        assert ctx.ref.tolist() == [2, 0]


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


def margin_trace(full_probs):
    """A trace whose rows are routed first to their largest probability."""
    return SimpleNamespace(full_probs=full_probs, topk_idx=top_k_select(full_probs, 1))


class TestMargin:
    def test_constant_probs(self):
        trace = margin_trace(np.array([[0.7, 0.3], [0.7, 0.3]]))
        np.testing.assert_allclose(compute_margin(trace), [0.4, 0.0], atol=1e-9)

    def test_uniform_probs(self):
        trace = margin_trace(np.full((3, 4), 0.25))
        np.testing.assert_allclose(compute_margin(trace), 0.0, atol=1e-12)

    def test_single_expert_runner_up_is_zero(self):
        trace = margin_trace(np.ones((3, 1)))
        assert compute_margin(trace).tolist() == [1.0]

    def test_hand_average(self):
        trace = margin_trace(np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]]))
        np.testing.assert_allclose(
            compute_margin(trace), oracles.MARGIN_TWO_SAMPLES, atol=1e-9
        )


class TestMarginOracle:
    """The margin credited to the routing argmax against its own stable sort
    of the softmax, byte for byte, on `forward`'s routing of gate scores
    with tied columns, scales from 1e-18 to 400, all-zero rows, S = 1 and
    every k."""

    @staticmethod
    def check(scores, k):
        trace, _ = forward(*gate_model(scores.shape[1], k), scores)
        want = oracles.compute_margin_sort(trace.full_probs)
        assert compute_margin(trace).tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_sort_oracle(self, data):
        s = data.draw(st.integers(1, 8))
        scale = data.draw(st.sampled_from([1e-18, 1e-9, 1.0, 30.0, 400.0]))
        scores = data.draw(hnp.arrays(
            np.float64, (data.draw(st.integers(1, 20)), s),
            elements=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-3, 3)),
        )) * scale
        for j in data.draw(st.lists(st.integers(0, s - 1), max_size=3)):
            scores[:, j] = scores[:, 0]  # tied gate columns
        self.check(scores, data.draw(st.integers(1, s)))

    @pytest.mark.parametrize("s, k", [(1, 1), (4, 1), (4, 2), (4, 4)])
    def test_all_zero_scores(self, s, k):
        self.check(np.zeros((5, s)), k)


def routed(scores, hidden, k=1):
    """A trace whose rows are dispatched to the top k of their gate scores
    `scores` (B, S), as `forward` routes them."""
    return SimpleNamespace(full_probs=softmax(scores), topk_idx=top_k_select(scores, k),
                           hidden=hidden)


class TestMu:
    def test_all_to_one_expert(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        trace = routed(np.array([[2.0, 1.0], [3.0, 1.0]]), h)
        mu, empty = compute_mu(trace)
        np.testing.assert_allclose(mu[0], h.mean(axis=0))
        assert not empty[0] and empty[1]
        assert np.all(mu[1] == 0.0)

    def test_one_sample_per_expert(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        trace = routed(np.array([[2.0, 1.0], [1.0, 2.0]]), h)
        mu, empty = compute_mu(trace)
        np.testing.assert_allclose(mu, h)
        assert not empty.any()

    def test_mean_of_two(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        trace = routed(np.array([[0.0, 1.0], [0.0, 1.0]]), h)
        mu, _ = compute_mu(trace)
        np.testing.assert_allclose(mu[1], [0.5, 0.5])


class TestMuOracle:
    """The one-pass mean against the per-expert loop, on tied scores, empty
    experts and -0.0 hidden entries."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), h=st.integers(2, 6), k_frac=st.floats(0.0, 1.0))
    def test_matches_loop_oracle(self, data, h, k_frac):
        # The oracle assigns rows by their own argmax; the program by the
        # first expert of the dispatch set, for any k.
        scores, hidden = data.draw(assignment_batch(h))
        k = 1 + min(scores.shape[1] - 1, int(k_frac * scores.shape[1]))
        mu, empty = compute_mu(routed(scores, hidden, k))
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
        mu, empty = compute_mu(routed(scores, hidden))
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
        trace = SimpleNamespace(batch_size=2, full_probs=np.stack([p, p]),
                                topk_idx=np.array([[0, 1, 2]] * 2))
        ctx = RegContext(p, 0.1, np.ones(3), 3)
        assert reg_loss(trace, ctx) == 0.0

    def test_zero_alpha(self):
        trace = SimpleNamespace(batch_size=1, full_probs=np.array([[0.9, 0.1]]),
                                topk_idx=np.array([[0]]))
        ctx = RegContext(np.array([0.5, 0.5]), 0.1, np.zeros(2), 1)
        assert reg_loss(trace, ctx) == 0.0

    def test_hand_value(self):
        trace = SimpleNamespace(batch_size=1, full_probs=np.array([[0.9, 0.1]]),
                                topk_idx=np.array([[0, 1]]))
        ctx = RegContext(np.array([0.5, 0.5]), 0.1, np.ones(2), 2)
        assert abs(reg_loss(trace, ctx) - oracles.MASKED_KL_09_05) < 1e-9

    def test_mask_is_forward_dispatch_set(self):
        # Gate scores [1000, -5, 0] route the row to experts {0, 2}, but fp
        # is [1, 0, 0]: both other entries underflow. The mask is {0, 2} OR
        # the top 2 of p_g, {0, 1}, so it holds every expert and the value
        # is 1 * log(1 / 0.6). A top-k of fp would tie experts 1 and 2 at 0
        # and mask {0, 1}, giving log(1 / (0.6 / 0.9)) = log 1.5.
        config, params = gate_model(3, top_k=2)
        trace, _ = forward(config, params, np.array([[1000.0, -5.0, 0.0]]))
        assert trace.full_probs.tolist() == [[1.0, 0.0, 0.0]]
        assert trace.topk_idx.tolist() == [[0, 2]]
        ctx = RegContext(np.array([0.6, 0.3, 0.1]), 0.1, np.ones(3), 2)
        assert abs(reg_loss(trace, ctx) - math.log(1.0 / 0.6)) < 1e-12


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

    def test_steps_form_the_kl_gradient_only(self, monkeypatch):
        # Each SGD step with lam > 0 takes the KL gradient and never the
        # values; the round forms those once, on the whole shard, for
        # mean_reg_loss.
        calls = Counter()
        for name in ("masked_kl", "masked_kl_values"):
            def counted(*args, _fn=getattr(M, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(M, name, counted)
        config, params, shard, ctx = make_setup(n=32)
        local_round(config, params, shard, ctx, 2, 0.1, np.random.default_rng(0), batch_size=8)
        assert calls == {"masked_kl": 2 * 4, "masked_kl_values": 1}

    def test_lambda_zero_equals_alpha_zero(self):
        # The regularizer disappears both when lam=0 and when every alpha is
        # zero; the trained parameters must agree bitwise.
        config, params, shard, ctx = make_setup()
        ctx0 = RegContext(ctx.p_g, 0.0, np.ones(3), config.top_k)
        ctxa = RegContext(ctx.p_g, 0.5, np.zeros(3), config.top_k)
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
        ctx = RegContext(np.array([0.5, 0.5]), 0.0, np.ones(2), 1)
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
        np.abs(params.embed, out=params.embed)
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
        reg = reg_loss(trace, ctx)
        h = 1e-3
        def total(lam):
            return ce + lam * reg_loss(trace, ctx)
        slope = (total(ctx.lam + h) - total(ctx.lam - h)) / (2 * h)
        assert abs(slope - reg) < 1e-9

    def test_disagreement_non_increasing_first_epoch(self):
        # With lam > 0 and a fixed disagreeing reference, one epoch on a
        # frozen batch must not increase TV(p_bar, p_g). Fixed seed.
        config, params, shard, ctx = make_setup(seed=5, n=24)
        p_g = np.array([0.7, 0.2, 0.1])
        strong = RegContext(p_g, 1.0, np.ones(3), config.top_k)
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


class TestUploads:
    """A round's `Uploads`: every field leads with the client axis, and an
    index array writes a group's rows as single-row writes do."""

    def test_group_write_matches_single_writes(self):
        config, params, _, ctx = make_setup(k=2)
        rng = np.random.default_rng(7)
        rows = [
            local_round(config, params, ClientDataset(rng.normal(size=(n, 4)),
                                                      rng.integers(0, 3, size=n)),
                        ctx, 1, 0.1, np.random.default_rng(i), batch_size=8)
            for i, n in enumerate((5, 12, 9))
        ]
        single, grouped = Uploads.empty(3, config), Uploads.empty(3, config)
        for i in (2, 0, 1):
            single[i] = rows[i]
        grouped[[2, 0]] = stack_uploads([rows[2], rows[0]])
        grouped[1] = rows[1]
        for b in ModelParams.BLOCKS:
            assert getattr(grouped.param_delta, b).tobytes() == \
                getattr(single.param_delta, b).tobytes(), b
            for i, row in enumerate(rows):
                assert np.array_equal(getattr(single.param_delta, b)[i],
                                      getattr(row.param_delta, b)), b
        for name in ("p_bar", "margin", "mu", "mu_empty", "mean_local_loss", "mean_reg_loss"):
            got, want = getattr(grouped, name), getattr(single, name)
            assert got.shape[0] == 3 and got.tobytes() == want.tobytes(), name
            assert np.array_equal(want, [getattr(row, name) for row in rows]), name
            assert not np.shares_memory(want, single.param_delta.flat), name


class TestLocalRoundOracle:
    """`local_round` against the per-block loop it replaced
    (`oracles.local_round_per_block`): the same bits in every output. Shards
    are ragged, so a last batch of one row occurs; integer inputs and
    weights tie gate scores, and a x400 gate underflows entries of the
    routing softmax."""

    @settings(max_examples=60, deadline=None)
    # A one-row last batch at S = 16, k = 2: the masked KL's expert sums
    # over a single column.
    @example(s=16, k_frac=0.1, n=33, batch_size=32, seed=5, lam=0.3, prox=False,
             rounded=False, gate_scale=1.0)
    @given(
        s=st.integers(1, 20),
        k_frac=st.floats(0.0, 1.0),
        n=st.integers(1, 40),
        batch_size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([0.0, 0.3]),
        prox=st.booleans(),
        rounded=st.booleans(),
        gate_scale=st.sampled_from([1.0, 400.0]),
    )
    def test_matches_per_block_loop(
        self, s, k_frac, n, batch_size, seed, lam, prox, rounded, gate_scale
    ):
        k = 1 + min(s - 1, int(k_frac * s))
        config = MoEConfig(input_dim=3, hidden_dim=4, num_experts=s, top_k=k, num_classes=3,
                           expert_hidden=3)
        rng = np.random.default_rng(seed)
        params = init_params(config, rng)
        x = rng.normal(size=(n, config.input_dim))
        if rounded:
            x = np.round(x)
            params.embed[...] = np.round(params.embed * 2.0)
            params.gate[...] = np.round(params.gate * 2.0)
        params.gate[...] *= gate_scale
        shard = ClientDataset(x, rng.integers(0, config.num_classes, size=n))
        ctx = RegContext(rng.dirichlet(np.ones(s)), lam, rng.uniform(size=s), k)
        # The proximal term anchors at the start model, so it pulls from
        # the second step on.
        kw = dict(epochs=2, lr=0.05, batch_size=batch_size, prox_mu=0.1 if prox else 0.0)

        try:
            want = oracles.local_round_per_block(
                config, params, shard, ctx, rng=np.random.default_rng(seed), **kw
            )
        except FloatingPointError as exc:
            with pytest.raises(FloatingPointError, match=re.escape(str(exc))):
                local_round(config, params, shard, ctx, rng=np.random.default_rng(seed), **kw)
            return
        got = local_round(config, params, shard, ctx, rng=np.random.default_rng(seed), **kw)

        for b in ModelParams.BLOCKS:
            assert np.array_equal(getattr(got.param_delta, b), getattr(want.param_delta, b)), b
        for name in ("p_bar", "margin", "mu", "mu_empty"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.mean_local_loss == want.mean_local_loss
        assert got.mean_reg_loss == want.mean_reg_loss
