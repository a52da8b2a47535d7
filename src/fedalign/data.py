"""Synthetic Gaussian-cluster classification data and Dirichlet label-skew
partitioning across clients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Partition draws before dirichlet_partition gives up on an empty client.
PARTITION_DRAWS = 100


@dataclass(frozen=True)
class SyntheticTask:
    num_classes: int
    input_dim: int
    class_means: np.ndarray  # (num_classes, input_dim)
    noise_std: float
    samples_per_class: int

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=np.float64)
        if means.shape != (self.num_classes, self.input_dim):
            raise ValueError(f"class_means shape {means.shape} inconsistent with task dims")
        if self.noise_std <= 0:
            raise ValueError("noise_std must be > 0")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        for i in range(self.num_classes):
            for j in range(i + 1, self.num_classes):
                if np.allclose(means[i], means[j]):
                    raise ValueError(f"class means {i} and {j} coincide")
        object.__setattr__(self, "class_means", means)


@dataclass
class ClientDataset:
    features: np.ndarray  # (n, input_dim)
    labels: np.ndarray  # (n,) int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features/labels length mismatch")
        if self.size < 1:
            raise ValueError("empty shard")

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def make_default_task(
    num_classes: int,
    input_dim: int,
    samples_per_class: int,
    noise_std: float,
    rng: np.random.Generator,
    mean_scale: float = 2.0,
) -> SyntheticTask:
    """Random, pairwise-distinct class means drawn once per experiment."""
    means = rng.normal(0.0, mean_scale, size=(num_classes, input_dim))
    return SyntheticTask(num_classes, input_dim, means, noise_std, samples_per_class)


def generate(task: SyntheticTask, rng: np.random.Generator):
    """Gaussian clusters: sample = class_mean + N(0, noise_std^2 I).

    Returns (features, labels) with samples_per_class per class, grouped by
    class in ascending label order.
    """
    n = task.num_classes * task.samples_per_class
    labels = np.repeat(np.arange(task.num_classes), task.samples_per_class)
    noise = rng.normal(0.0, task.noise_std, size=(n, task.input_dim))
    features = task.class_means[labels] + noise
    return features, labels


def dirichlet_partition(
    features: np.ndarray,
    labels: np.ndarray,
    num_clients: int,
    concentration: float,
    rng: np.random.Generator,
) -> list[ClientDataset]:
    """Label-skew split: per class, proportions ~ Dir(concentration * 1_N).

    The shards are disjoint and jointly exhaust the pool. If any client ends
    up empty the draw is retried, up to PARTITION_DRAWS draws, then ValueError.
    """
    if concentration <= 0:
        raise ValueError("concentration must be > 0")
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    classes = np.unique(labels)
    clients = np.arange(num_clients)
    for _ in range(PARTITION_DRAWS):
        owner = np.empty(labels.size, dtype=np.intp)  # client index of each sample
        for c in classes:
            idx = np.nonzero(labels == c)[0]
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(num_clients, concentration))
            cuts = (np.cumsum(props)[:-1] * idx.size).astype(int)
            owner[idx] = np.repeat(clients, np.diff(cuts, prepend=0, append=idx.size))
        if np.bincount(owner, minlength=num_clients).min() >= 1:
            return [ClientDataset(features[m], labels[m]) for m in (owner == i for i in clients)]
    raise ValueError(
        f"dirichlet_partition: {num_clients} clients at dirichlet_alpha={concentration} "
        f"left a client empty in each of {PARTITION_DRAWS} draws; raise the alpha or lower "
        "the client count"
    )
