"""Data generation and Dirichlet partitioning tests."""

import math

import numpy as np
import pytest

from fedalign.data import (
    ClientDataset,
    SyntheticTask,
    dirichlet_partition,
    generate,
    make_default_task,
)


def make_task(seed=0, num_classes=8, input_dim=16, per_class=200, noise=2.0):
    return make_default_task(
        num_classes, input_dim, per_class, noise, np.random.default_rng(seed)
    )


class TestTask:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SyntheticTask(2, 3, np.zeros((2, 4)), 1.0, 5)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            SyntheticTask(2, 3, np.array([[0.0, 0, 0], [1.0, 0, 0]]), 0.0, 5)

    def test_rejects_coincident_means(self):
        with pytest.raises(ValueError):
            SyntheticTask(2, 2, np.zeros((2, 2)), 1.0, 5)


class TestGenerate:
    def test_degenerate_noise(self):
        task = make_task(noise=1e-12, num_classes=3, input_dim=4, per_class=5)
        x, y = generate(task, np.random.default_rng(1))
        np.testing.assert_allclose(x, task.class_means[y], atol=1e-9)

    def test_determinism(self):
        task = make_task()
        x1, y1 = generate(task, np.random.default_rng(3))
        x2, y2 = generate(task, np.random.default_rng(3))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_counts_and_histogram(self):
        task = make_task(num_classes=8, input_dim=16, per_class=200)
        x, y = generate(task, np.random.default_rng(0))
        assert x.shape == (1600, 16)
        assert np.bincount(y, minlength=8).tolist() == [200] * 8


class TestPartition:
    def test_true_partition(self):
        task = make_task(per_class=50)
        x, y = generate(task, np.random.default_rng(0))
        shards = dirichlet_partition(x, y, 10, 0.1, np.random.default_rng(5))
        sizes = sum(s.size for s in shards)
        assert sizes == x.shape[0]
        # Disjointness + exhaustion: every pool row appears in exactly one shard.
        all_rows = np.concatenate([s.features for s in shards])
        assert sorted(map(tuple, all_rows)) == sorted(map(tuple, x))

    def test_iid_limit(self):
        task = make_task(per_class=200)
        x, y = generate(task, np.random.default_rng(0))
        shards = dirichlet_partition(x, y, 10, 1e6, np.random.default_rng(5))
        for shard in shards:
            counts = np.bincount(shard.labels, minlength=8)
            assert counts.min() > 0
            assert counts.max() / counts.min() < 1.5

    def test_skew_entropy_statistics(self):
        # At concentration 0.1 the mean per-client label entropy over 100
        # seeded draws sits well below the uniform pool entropy ln(8).
        task = make_task(per_class=50)
        x, y = generate(task, np.random.default_rng(0))
        pool_entropy = math.log(8)
        entropies = []
        for seed in range(100):
            shards = dirichlet_partition(x, y, 10, 0.1, np.random.default_rng(seed))
            for shard in shards:
                p = np.bincount(shard.labels, minlength=8) / shard.size
                entropies.append(float(-(p[p > 0] * np.log(p[p > 0])).sum()))
        assert np.mean(entropies) < 0.5 * pool_entropy

    def test_proportions_converge_to_uniform(self):
        # Law of large numbers: each client's mean class-proportion vector
        # over 1000 draws approaches 1/N within 3 sigma of the Dirichlet
        # marginal std (Beta(a, a(N-1)) with a=0.5, N=4).
        n_clients, a, draws = 4, 0.5, 1000
        rng = np.random.default_rng(42)
        props = np.stack([rng.dirichlet(np.full(n_clients, a)) for _ in range(draws)])
        marginal_std = math.sqrt(
            (1.0 / n_clients) * (1 - 1.0 / n_clients) / (a * n_clients + 1)
        )
        tol = 3.0 * marginal_std / math.sqrt(draws)
        assert np.all(np.abs(props.mean(axis=0) - 1.0 / n_clients) < tol)

    def test_determinism(self):
        task = make_task(per_class=50)
        x, y = generate(task, np.random.default_rng(0))
        s1 = dirichlet_partition(x, y, 5, 0.1, np.random.default_rng(9))
        s2 = dirichlet_partition(x, y, 5, 0.1, np.random.default_rng(9))
        for a, b in zip(s1, s2):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_rejects_bad_args(self):
        task = make_task(per_class=10)
        x, y = generate(task, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dirichlet_partition(x, y, 10, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dirichlet_partition(x, y, 0, 0.1, np.random.default_rng(0))

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            ClientDataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
