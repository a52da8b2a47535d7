"""FedAvg aggregation and the FedProx proximal term."""

import numpy as np
import pytest

from fedalign.baselines import fedavg_aggregate, prox_term
from fedalign.model import MoEConfig, ModelParams, init_params


def make_params(seed):
    config = MoEConfig(2, 3, 2, 1, 2, 3)
    return init_params(config, np.random.default_rng(seed))


class TestFedavgAggregate:
    def test_identity(self):
        p = make_params(0)
        out = fedavg_aggregate([p, p.copy()], np.array([3.0, 5.0]))
        for b in ModelParams.BLOCKS:
            np.testing.assert_allclose(getattr(out, b), getattr(p, b), atol=1e-12)

    def test_cancellation(self):
        p = make_params(0)
        neg = ModelParams(*(-getattr(p, b) for b in ModelParams.BLOCKS))
        out = fedavg_aggregate([p, neg], np.array([2.0, 2.0]))
        for b in ModelParams.BLOCKS:
            np.testing.assert_allclose(getattr(out, b), 0.0, atol=1e-12)

    def test_size_weighting(self):
        zero = make_params(0)
        for b in ModelParams.BLOCKS:
            getattr(zero, b)[...] = 0.0
        four = zero.copy()
        for b in ModelParams.BLOCKS:
            getattr(four, b)[...] = 4.0
        out = fedavg_aggregate([zero, four], np.array([1.0, 3.0]))
        for b in ModelParams.BLOCKS:
            np.testing.assert_allclose(getattr(out, b), 3.0, atol=1e-12)


class TestProxTerm:
    def test_zero_at_reference(self):
        p = make_params(1)
        loss, grads = prox_term(p, p.copy(), mu=0.5)
        assert loss == 0.0
        for b in ModelParams.BLOCKS:
            assert np.all(getattr(grads, b) == 0.0)

    def test_mu_zero(self):
        p, q = make_params(1), make_params(2)
        loss, grads = prox_term(p, q, mu=0.0)
        assert loss == 0.0
        for b in ModelParams.BLOCKS:
            assert np.all(getattr(grads, b) == 0.0)

    def test_hand_value(self):
        p = make_params(1)
        ref = p.copy()
        # Shift two embed entries by +1: loss (mu/2)*2, gradient mu there.
        p.embed[0, 0] += 1.0
        p.embed[0, 1] += 1.0
        loss, grads = prox_term(p, ref, mu=2.0)
        assert abs(loss - 2.0) < 1e-12
        np.testing.assert_allclose(grads.embed[0, :2], [2.0, 2.0], atol=1e-12)
        assert np.all(grads.gate == 0.0)

    def test_rejects_negative_mu(self):
        p = make_params(1)
        with pytest.raises(ValueError):
            prox_term(p, p, mu=-0.1)
