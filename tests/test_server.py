"""Server aggregation tests: consistency weights, the routing reference,
pairwise semantics, adaptive thresholds, gated expert aggregation, and the
permutation/homogeneity properties."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    NORM_SCALES,
    cosine_error_bound,
    expert_delta,
    expert_rows,
    extended,
    stack_deltas,
    stack_uploads,
    upload,
    zero_model,
)
from fedalign.model import EXPERT_BLOCKS, MoEConfig, expert_columns, init_params
from fedalign.numeric import NORM_FLOOR
from fedalign.server import (
    adaptive_threshold,
    aggregate_experts,
    aggregate_round,
    consistency_weights,
    expert_weights,
    gated_weights,
    global_routing,
    pairwise_semantics,
    weighted_average,
)


class TestConsistencyWeights:
    def test_identical_clients_uniform(self):
        omega = consistency_weights(np.tile([0.6, 0.4], (4, 1)), np.tile([0.3, 0.2], (4, 1)))
        np.testing.assert_allclose(omega, 0.25, atol=1e-9)

    def test_zero_mass_client_excluded(self):
        omega = consistency_weights(
            np.array([[0.0, 1.0], [0.6, 0.4]]), np.array([[0.0, 0.5], [0.3, 0.2]])
        )
        assert omega[0, 0] == 0.0
        assert abs(omega[1, 0] - 1.0) < 1e-9

    def test_hand_example(self):
        # Expert 0 carries the worked two-client example; expert 1 is inert.
        omega = consistency_weights(
            np.array([[0.6, 0.4], [0.2, 0.8]]), np.array([[0.3, 0.1], [0.1, 0.1]])
        )
        np.testing.assert_allclose(
            omega[:, 0], oracles.OMEGA_TWO_CLIENTS, atol=1e-9
        )

    def test_columns_sum_to_one(self):
        omega = consistency_weights(*random_routing(np.random.default_rng(0), 5, 4))
        np.testing.assert_allclose(omega.sum(axis=0), 1.0, atol=1e-9)

    def test_all_zero_column_falls_back_uniform(self):
        omega = consistency_weights(np.tile([0.0, 1.0], (4, 1)), np.tile([0.0, 0.5], (4, 1)))
        np.testing.assert_allclose(omega[:, 0], 0.25, atol=1e-12)


def random_routing(rng, n, s):
    """n clients' p_bar and margin (n, s), drawn client by client."""
    draws = [(rng.dirichlet(np.ones(s)), rng.uniform(0.05, 0.4, s)) for _ in range(n)]
    return tuple(np.stack(q) for q in zip(*draws))


def scale_to_floor(p_bar, margin, e, factor):
    """p_bar with expert e's column scaled so that its scores p_bar * margin
    sum to factor * NORM_FLOOR (an all-zero column is left as it is)."""
    out = p_bar.copy()
    total = (p_bar[:, e] * margin[:, e]).sum()
    if total > 0:
        out[:, e] *= factor * NORM_FLOOR / total
    return out


class TestConsistencyWeightsOracle:
    """`consistency_weights` against the scalar loop oracle, on draws with
    zero-mass clients and columns whose scores sum just below and just
    above NORM_FLOOR, and against the same oracle run in np.longdouble."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, s = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        p_bar = rng.dirichlet(np.ones(s), size=n) * (rng.random((n, s)) > 0.2)
        margin = rng.uniform(0.0, 0.5, (n, s)) * (rng.random((n, s)) > 0.2)
        for e, factor in zip(range(s), (1 - 1e-9, 1 + 1e-9, 0.5, 2.0)):
            p_bar = scale_to_floor(p_bar, margin, e, factor)
        omega = consistency_weights(p_bar, margin)
        np.testing.assert_allclose(
            omega, oracles.consistency_weights_loop(p_bar, margin), rtol=0, atol=1e-15
        )
        # Each score rounds once, the column sum adds n - 1 roundings of
        # non-negative terms and the quotient one more: (n + 1) u relative
        # to first order, (n + 2) eps with room for the rest.
        ref = oracles.consistency_weights_loop(extended(p_bar), extended(margin))
        err = np.abs(extended(omega) - ref)
        assert np.all(err <= (n + 2) * np.finfo(np.float64).eps * ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_scaling_a_p_bar_column_leaves_its_omega(self, seed):
        # Scaling expert e's p_bar column by c > 0 is what the cross-client
        # mean mass did (c = mean p_bar[:, e]); the column normalization
        # divides it out. Powers of two scale exactly, so nothing moves.
        rng = np.random.default_rng(seed)
        n, s = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        p_bar = rng.dirichlet(np.ones(s), size=n)
        margin = rng.uniform(0.05, 0.5, (n, s))
        omega = consistency_weights(p_bar, margin)
        for e in range(s):
            for c in (p_bar[:, e].mean(), 1e-3, 0.37, 3.0, 0.25, 8.0):
                scaled = p_bar.copy()
                scaled[:, e] *= c
                got = consistency_weights(scaled, margin)
                np.testing.assert_array_equal(np.delete(got, e, 1), np.delete(omega, e, 1))
                if c in (0.25, 8.0):
                    np.testing.assert_array_equal(got[:, e], omega[:, e])
                else:
                    np.testing.assert_allclose(
                        got[:, e], omega[:, e], rtol=(n + 3) * np.finfo(np.float64).eps, atol=0
                    )

    @pytest.mark.parametrize("factor, uniform", [(1 - 1e-9, True), (1 + 1e-9, False)])
    def test_fallback_boundary_is_the_score_sum(self, factor, uniform):
        # Expert 0's scores sum to factor * NORM_FLOOR. Each client's p_bar
        # is 0.01, so a score that also carried the mean mass would sum two
        # orders below the floor on both sides.
        share = np.array([0.1, 0.2, 0.3, 0.4])
        p_bar = np.array([[0.01, 0.5]] * 4)
        margin = np.column_stack([share * factor * NORM_FLOOR / 0.01, [0.1, 0.2, 0.3, 0.4]])
        omega = consistency_weights(p_bar, margin)
        if uniform:
            np.testing.assert_array_equal(omega[:, 0], np.full(4, 0.25))
        else:
            np.testing.assert_allclose(omega[:, 0], share, rtol=1e-12)
        np.testing.assert_allclose(omega[:, 1], share, rtol=1e-12)


class TestAggregateRoundRouting:
    """`aggregate_round`'s omega and p_g: p_g is `global_routing(p_bar,
    omega)` under every method, with uniform omega without consistency
    weighting."""

    def round(self, seed, consistency):
        rng = np.random.default_rng(seed)
        n, s, p = 5, 3, 6
        stats = [
            (rng.dirichlet(np.ones(s)), rng.uniform(0.05, 0.3, s), rng.normal(size=(s, 2)))
            for _ in range(n)
        ]
        up = stack_uploads([upload(expert_delta(rng.normal(size=(s, p))), *st) for st in stats])
        _, p_g, rep = aggregate_round(
            zero_model(up.param_delta), up, np.full(n, 1.0 / n), 1, beta=0.5,
            consistency=consistency,
        )
        return up, p_g, rep.omega

    @pytest.mark.parametrize("seed", range(4))
    def test_without_consistency(self, seed):
        up, p_g, omega = self.round(seed, consistency=False)
        n, s = up.p_bar.shape
        np.testing.assert_array_equal(omega, np.full((n, s), 1.0 / n))
        assert p_g.tobytes() == global_routing(up.p_bar, omega).tobytes()
        mean = up.p_bar.mean(axis=0)
        np.testing.assert_allclose(p_g, mean / mean.sum(), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_with_consistency(self, seed):
        up, p_g, omega = self.round(seed, consistency=True)
        np.testing.assert_array_equal(omega, consistency_weights(up.p_bar, up.margin))
        assert p_g.tobytes() == global_routing(up.p_bar, omega).tobytes()


class TestGlobalRouting:
    def test_single_client(self):
        p_bar, margin = np.array([[0.7, 0.3]]), np.array([[0.2, 0.1]])
        omega = consistency_weights(p_bar, margin)
        np.testing.assert_allclose(global_routing(p_bar, omega), [0.7, 0.3], atol=1e-9)

    def test_identical_clients(self):
        p_bar, margin = np.tile([0.7, 0.3], (3, 1)), np.tile([0.2, 0.1], (3, 1))
        omega = consistency_weights(p_bar, margin)
        np.testing.assert_allclose(global_routing(p_bar, omega), [0.7, 0.3], atol=1e-9)

    def test_renormalization(self):
        # Force raw = (0.3, 0.1) via one client with omega 1.
        omega = np.ones((1, 2))
        np.testing.assert_allclose(
            global_routing(np.array([[0.3, 0.1]]), omega), [0.75, 0.25], atol=1e-12
        )

    def test_simplex(self):
        p_bar, margin = random_routing(np.random.default_rng(1), 5, 4)
        p_g = global_routing(p_bar, consistency_weights(p_bar, margin))
        assert np.all(p_g >= 0) and abs(p_g.sum() - 1.0) < 1e-9


def two_client_semantics(mu1, mu2, d1, d2, empty1=False, empty2=False):
    rows = [
        upload(expert_delta(np.array([d, [1.0, 0.0]])), [0.5, 0.5], [0.1, 0.1],
               np.array([mu, [1.0, 0]]), [empty, False])
        for mu, d, empty in ((mu1, d1, empty1), (mu2, d2, empty2))
    ]
    return expert_semantics(stack_uploads(rows), 0)


def expert_semantics(up, e):
    """`pairwise_semantics` of expert e, as `aggregate_round` calls it."""
    return pairwise_semantics(
        up.mu[:, e], up.mu_empty[:, e], expert_columns(up.param_delta, np.s_[:, e])
    )


class TestPairwiseSemantics:
    def test_self_similarity(self):
        sim, dcons = two_client_semantics([1.0, 0], [1.0, 0], [1.0, 0], [1.0, 0])
        assert sim[0, 0] == 1.0 and dcons[0, 0] == 1.0

    def test_antipodal_deltas(self):
        sim, dcons = two_client_semantics([1.0, 0], [1.0, 0], [1.0, 0], [-1.0, 0])
        assert dcons[0, 1] == -1.0

    def test_hand_cosine(self):
        sim, _ = two_client_semantics([1.0, 0], [1.0, 1.0], [1.0, 0], [1.0, 0])
        assert abs(sim[0, 1] - oracles.COS_UNIT_DIAG) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        sim, dcons = two_client_semantics(
            rng.normal(size=2), rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
        )
        assert np.array_equal(sim, sim.T)
        assert np.array_equal(dcons, dcons.T)

    def test_empty_mu_excludes_pair(self):
        sim, dcons = two_client_semantics(
            [1.0, 0], [1.0, 0], [1.0, 0], [1.0, 0], empty1=True
        )
        assert np.all(sim[0, :] == 0.0) and np.all(dcons[0, :] == 0.0)

    def test_zero_delta_excludes_pair(self):
        sim, dcons = two_client_semantics([1.0, 0], [1.0, 0], [0.0, 0.0], [1.0, 0])
        assert np.all(sim[0, :] == 0.0) and np.all(dcons[0, :] == 0.0)


class TestPairwiseSemanticsOracle:
    """The Gram-form kernel against the old double loop over client pairs,
    on zero rows, empty mu, norms on both sides of NORM_FLOOR, duplicate
    clients and N=1: within 1e-12 of the loop in float64, and within the
    cosine's rounding bound of the loop run in `np.longdouble`."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        s=st.integers(1, 4),
        h=st.integers(1, 6),
        eh=st.integers(1, 6),
        empty_rate=st.floats(0.0, 1.0),
        duplicate=st.booleans(),
    )
    def test_matches_loop_oracle(self, seed, n, s, h, eh, empty_rate, duplicate):
        rng = np.random.default_rng(seed)
        like = init_params(MoEConfig(2, h, s, 1, 3, eh), rng)
        p = expert_rows(like).shape[1]

        def rows_at_scales(shape):
            scales = rng.choice(NORM_SCALES, size=shape[:-1] + (1,))
            return rng.normal(size=shape) * scales

        mus = rows_at_scales((n, s, h))
        upd = rows_at_scales((n, s, p))
        if duplicate:
            mus[-1], upd[-1] = mus[0], upd[0]
        empty = rng.uniform(size=(n, s)) < empty_rate
        deltas = [expert_delta(upd[i], like) for i in range(n)]

        up = stack_uploads([
            upload(deltas[i], np.full(s, 1.0 / s), np.zeros(s), mus[i], empty[i])
            for i in range(n)
        ])
        sim, dcons = (np.stack(q) for q in zip(*(expert_semantics(up, e) for e in range(s))))
        want_sim, want_dcons = oracles.pairwise_semantics_loop(up.mu, up.mu_empty, deltas)
        np.testing.assert_allclose(sim, want_sim, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dcons, want_dcons, rtol=0, atol=1e-12)
        assert np.array_equal(sim, sim.transpose(0, 2, 1))
        assert np.array_equal(dcons, dcons.transpose(0, 2, 1))

        wide_deltas = [
            SimpleNamespace(**{b: extended(getattr(d, b)) for b in EXPERT_BLOCKS})
            for d in deltas
        ]
        exact_sim, exact_dcons = oracles.pairwise_semantics_loop(
            extended(up.mu), up.mu_empty, wide_deltas
        )
        assert np.max(np.abs(sim - exact_sim)) <= cosine_error_bound(h)
        assert np.max(np.abs(dcons - exact_dcons)) <= cosine_error_bound(p)


class TestAdaptiveThreshold:
    def test_zero_dispersion(self):
        sim = np.full((3, 3), 0.8)
        tau, mean_sim, disp = adaptive_threshold(sim, 0.5)
        assert abs(tau - 0.8) < 1e-12 and disp == 0.0

    def test_beta_zero(self):
        sim = np.array([[1.0, 0.5], [0.5, 1.0]])
        tau, mean_sim, _ = adaptive_threshold(sim, 0.0)
        assert tau == mean_sim

    def test_hand_example(self):
        sim = np.array([[1.0, 0.5], [0.5, 1.0]])
        tau, mean_sim, disp = adaptive_threshold(sim, 1.0)
        assert abs(mean_sim - oracles.TAU_MEAN) < 1e-9
        assert abs(disp - oracles.TAU_STD) < 1e-9
        assert abs(tau - oracles.TAU_BETA1) < 1e-9

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            adaptive_threshold(np.zeros((2, 2)), -0.1)


class TestGatedWeights:
    def test_at_threshold(self):
        gamma = gated_weights(np.full((1, 1), 0.4), np.ones((1, 1)), 0.4)
        assert abs(gamma[0, 0] - 0.5) < 1e-12

    def test_negative_consensus_floors(self):
        gamma = gated_weights(np.full((1, 1), 5.0), np.full((1, 1), -0.9), 0.0)
        assert gamma[0, 0] == 0.0

    def test_hand_value(self):
        gamma = gated_weights(np.full((1, 1), math.log(3.0)), np.full((1, 1), 0.5), 0.0)
        assert abs(gamma[0, 0] - oracles.GAMMA_LN3_HALF) < 1e-9

    def test_direction_ablation(self):
        gamma = gated_weights(np.zeros((1, 1)), np.full((1, 1), -1.0), 0.0, use_direction=False)
        assert gamma[0, 0] == 0.5

    def test_range(self):
        rng = np.random.default_rng(3)
        sim = rng.uniform(-1, 1, size=(4, 4))
        dcons = rng.uniform(-1, 1, size=(4, 4))
        gamma = gated_weights(sim, dcons, rng.uniform(-1, 1))
        assert np.all(gamma >= 0.0) and np.all(gamma < 1.0)


class TestPerExpertMatchesBatchedOracle:
    """The server's one-expert-at-a-time gating against slice e of the
    batched (S, N, N) chain in `oracles.semantic_chain_batched`, bit for
    bit: each per-expert server function, `expert_weights` on the row sums
    and `aggregate_round`'s report and model. The explicit examples hold
    N = 1 and S = 1, an empty mu, a zero update row and a fixed tau."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        s=st.integers(1, 4),
        h=st.integers(1, 4),
        eh=st.integers(1, 4),
        empty_rate=st.floats(0.0, 1.0),
        zero_rate=st.floats(0.0, 1.0),
        beta=st.floats(0.0, 2.0),
        fixed_tau=st.none() | st.floats(-2.0, 2.0),
        use_direction=st.booleans(),
    )
    @example(seed=0, n=1, s=1, h=2, eh=2, empty_rate=0.0, zero_rate=0.0, beta=0.5,
             fixed_tau=None, use_direction=True)
    @example(seed=1, n=1, s=1, h=2, eh=2, empty_rate=1.0, zero_rate=0.0, beta=0.5,
             fixed_tau=None, use_direction=True)
    @example(seed=2, n=1, s=1, h=2, eh=2, empty_rate=0.0, zero_rate=1.0, beta=0.5,
             fixed_tau=0.5, use_direction=False)
    @example(seed=3, n=5, s=3, h=3, eh=2, empty_rate=0.2, zero_rate=0.2, beta=0.5,
             fixed_tau=0.5, use_direction=True)
    def test_slices_match(self, seed, n, s, h, eh, empty_rate, zero_rate, beta,
                          fixed_tau, use_direction):
        rng = np.random.default_rng(seed)
        like = init_params(MoEConfig(2, h, s, 1, 3, eh), rng)
        p = expert_rows(like).shape[1]
        upd = rng.normal(size=(n, s, p))
        upd[rng.uniform(size=(n, s)) < zero_rate] = 0.0
        empty = rng.uniform(size=(n, s)) < empty_rate
        up = stack_uploads([
            upload(expert_delta(upd[i], like), np.full(s, 1.0 / s), np.zeros(s),
                   rng.normal(size=(s, h)), empty[i])
            for i in range(n)
        ])
        want = oracles.semantic_chain_batched(
            up.mu, up.mu_empty, up.param_delta, beta, fixed_tau, use_direction
        )

        for e in range(s):
            sim, dcons = expert_semantics(up, e)
            assert np.array_equal(sim, want.sim[e])
            assert np.array_equal(dcons, want.dcons[e])
            tau, mean_sim, disp = adaptive_threshold(sim, beta)
            assert mean_sim == want.mean_sim[e] and disp == want.disp[e]
            if fixed_tau is None:
                assert tau == want.tau[e]
            gamma = gated_weights(sim, dcons, want.tau[e], use_direction)
            assert np.array_equal(gamma, want.gamma[e])
        size_w = np.full(n, 1.0 / n)
        new, _, rep = aggregate_round(
            zero_model(up.param_delta), up, size_w, 1, beta=beta, fixed_tau=fixed_tau,
            direction=use_direction,
        )
        for got, ref in ((rep.tau, want.tau), (rep.mean_sim, want.mean_sim),
                         (rep.dispersion, want.disp), (rep.gamma_row_sums, want.gamma_row_sums)):
            assert np.array_equal(got, ref)
        w, updated = expert_weights(rep.gamma_row_sums)
        assert np.array_equal(w, want.weights) and np.array_equal(updated, want.updated)
        ref = aggregate_experts(zero_model(up.param_delta), up.param_delta, want.weights,
                                want.updated, size_w)
        assert new.flat.tobytes() == ref.flat.tobytes()


class TestExpertAggregation:
    def test_weights_normalized(self):
        rows = np.random.default_rng(4).uniform(0.3, 2.7, size=(2, 3))
        w, updated = expert_weights(rows)
        assert updated.all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(w >= 0)

    def test_no_consensus_no_update(self):
        w, updated = expert_weights(np.zeros((1, 2)))
        assert not updated[0]
        assert np.all(w == 0.0)

    def test_hand_weighted_sum(self):
        config = MoEConfig(2, 2, 1, 1, 2, 1)
        params = init_params(config, np.random.default_rng(0))
        base = expert_rows(params)[0]
        p = base.size
        d1 = np.zeros(p); d1[0] = 2.0
        d2 = np.zeros(p); d2[1] = 2.0
        deltas = stack_deltas(
            [expert_delta(d1[None, :], params), expert_delta(d2[None, :], params)]
        )
        w = np.array([[0.75, 0.25]])
        out = aggregate_experts(params, deltas, w, np.array([True]), w[0])
        got = expert_rows(out)[0] - base
        np.testing.assert_allclose(got[:2], oracles.EXPERT_UPDATE, atol=1e-12)
        assert np.all(got[2:] == 0.0)

    def test_identical_deltas_pass_through(self):
        config = MoEConfig(2, 2, 1, 1, 2, 1)
        params = init_params(config, np.random.default_rng(0))
        base = expert_rows(params)[0]
        d = np.random.default_rng(1).normal(size=base.size)
        deltas = stack_deltas([expert_delta(d[None, :], params)] * 3)
        w = np.full((1, 3), 1.0 / 3.0)
        out = aggregate_experts(params, deltas, w, np.array([True]), w[0])
        np.testing.assert_allclose(expert_rows(out)[0] - base, d, atol=1e-12)

    def test_skipped_expert_frozen(self):
        config = MoEConfig(2, 2, 2, 1, 2, 1)
        params = init_params(config, np.random.default_rng(0))
        before = expert_rows(params)[1]
        d = np.ones((2, before.size))
        deltas = stack_deltas([expert_delta(d, params)])
        out = aggregate_experts(params, deltas, np.ones((2, 1)),
                                np.array([True, False]), np.ones(1))
        assert np.array_equal(expert_rows(out)[1], before)

    def test_single_client_self_consensus(self):
        config = MoEConfig(2, 2, 1, 1, 2, 1)
        params = init_params(config, np.random.default_rng(0))
        base = expert_rows(params)[0]
        d = np.random.default_rng(2).normal(size=base.size)
        deltas = stack_deltas([expert_delta(d[None, :], params)])
        w, updated = expert_weights(np.full((1, 1), 0.5))
        out = aggregate_experts(params, deltas, w, updated, np.ones(1))
        np.testing.assert_allclose(expert_rows(out)[0] - base, d, atol=1e-12)


class TestWeightedAverage:
    def test_identity(self):
        blocks = [np.array([1.0, 2.0])] * 3
        np.testing.assert_allclose(
            weighted_average(blocks, np.full(3, 1.0 / 3.0)), [1.0, 2.0], atol=1e-12
        )

    def test_cancellation(self):
        theta = np.array([3.0, -1.0])
        out = weighted_average([theta, -theta], np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_weighted_mean(self):
        out = weighted_average([np.array([0.0]), np.array([4.0])], np.array([0.25, 0.75]))
        assert abs(out[0] - 3.0) < 1e-12


class TestAggregationKernel:
    """The per-block kernel against the flat per-expert oracle, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        s=st.integers(1, 4),
        h=st.integers(1, 3),
        eh=st.integers(1, 3),
        zero_rows=st.floats(0.0, 1.0),
        freeze=st.sampled_from(["none", "random", "all"]),
    )
    def test_matches_flat_oracle(self, seed, n, s, h, eh, zero_rows, freeze):
        rng = np.random.default_rng(seed)
        config = MoEConfig(2, h, s, 1, 3, eh)
        start = init_params(config, rng)
        # Negative zeros in the start model: frozen experts must keep them.
        start.expert_b1[...] = -0.0
        deltas = [
            expert_delta(rng.normal(size=expert_rows(start).shape), start) for _ in range(n)
        ]
        for d in deltas:
            for b in ("embed", "gate", "head"):
                getattr(d, b)[...] = rng.normal(size=getattr(start, b).shape)
        raw = rng.uniform(0.0, 1.0, size=(s, n))
        raw[rng.uniform(size=s) < zero_rows] = 0.0
        weights = raw / np.maximum(raw.sum(axis=1, keepdims=True), 1.0)
        updated = {"none": np.ones(s, bool), "all": np.zeros(s, bool),
                   "random": rng.uniform(size=s) < 0.5}[freeze]
        sizes = rng.integers(1, 50, size=n).astype(np.float64)

        got = aggregate_experts(
            start, stack_deltas(deltas), weights, updated, sizes / sizes.sum()
        )
        want = oracles.aggregate_round_flat(start, deltas, weights, updated, sizes)
        for b, arr in want.items():
            # Byte equality also tells -0.0 from 0.0.
            assert getattr(got, b).tobytes() == arr.tobytes(), b
            assert np.array_equal(getattr(got, b), arr), b

    def test_rows_follow_readme_order(self):
        params = init_params(MoEConfig(3, 4, 3, 2, 3, 5), np.random.default_rng(0))
        assert np.array_equal(expert_rows(params), oracles.flat_expert_rows(params))
        assert np.array_equal(
            expert_rows(params, slice(1, 2)), oracles.flat_expert_rows(params)[1:2]
        )
        # The column blocks are views of the buffer: `cosine_sim` makes the one copy.
        assert all(np.shares_memory(c, params.flat) for c in expert_columns(params))


class TestPermutationEquivariance:
    def test_shuffled_clients_same_aggregates(self):
        rng = np.random.default_rng(7)
        n, s, p = 5, 3, 8
        stats = [
            (rng.dirichlet(np.ones(s)), rng.uniform(0.05, 0.3, s), rng.normal(size=(s, 2)))
            for _ in range(n)
        ]
        rows = [upload(expert_delta(rng.normal(size=(s, p))), *st) for st in stats]

        def pipeline(rows):
            up = stack_uploads(rows)
            new, p_g, rep = aggregate_round(
                zero_model(up.param_delta), up, np.full(n, 1.0 / n), 1, beta=0.5
            )
            return p_g, rep.tau, expert_rows(new)

        perm = [3, 1, 4, 0, 2]
        base = pipeline(rows)
        shuf = pipeline([rows[i] for i in perm])
        # The server sums in the order the clients arrive, so the reduction
        # order changes; demand 1e-12 closeness.
        np.testing.assert_allclose(base[0], shuf[0], atol=1e-12)
        np.testing.assert_allclose(base[1], shuf[1], atol=1e-12)
        np.testing.assert_allclose(base[2], shuf[2], atol=1e-12)


class TestHomogeneityFixedPoint:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_clients(self, seed):
        rng = np.random.default_rng(seed)
        n, s, p = 4, 3, 6
        p_bar = rng.dirichlet(np.ones(s))
        margin = rng.uniform(0.05, 0.3, s)
        mu = rng.normal(size=(s, 2))
        d = rng.normal(size=(s, p))
        up = stack_uploads([upload(expert_delta(d), p_bar, margin, mu) for _ in range(n)])
        new, p_g, rep = aggregate_round(
            zero_model(up.param_delta), up, np.full(n, 1.0 / n), 1, beta=0.5
        )
        np.testing.assert_allclose(rep.omega, 1.0 / n, atol=1e-9)
        np.testing.assert_allclose(p_g, p_bar, atol=1e-9)
        np.testing.assert_allclose(rep.tau, 1.0, atol=1e-9)
        np.testing.assert_allclose(rep.dispersion, 0.0, atol=1e-9)
        # From a zero model the new expert rows are the aggregated update; an
        # expert left not updated would keep zero rows.
        np.testing.assert_allclose(expert_rows(new)[:, :p], d, atol=1e-9)
