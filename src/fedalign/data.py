"""Synthetic Gaussian-cluster classification data and Dirichlet label-skew
partitioning across clients."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


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
    client_id: int
    features: np.ndarray  # (n, input_dim)
    labels: np.ndarray  # (n,) int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features/labels length mismatch")
        if self.size < 1:
            raise ValueError(f"client {self.client_id} has an empty shard")

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
    max_retries: int = 100,
) -> list[ClientDataset]:
    """Label-skew split: per class, proportions ~ Dir(concentration * 1_N).

    The shards are disjoint and jointly exhaust the pool. If any client ends
    up empty the draw is retried up to max_retries times, then ValueError.
    """
    if concentration <= 0:
        raise ValueError("concentration must be > 0")
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    classes = np.unique(labels)
    for _ in range(max_retries):
        assignment = [[] for _ in range(num_clients)]
        for c in classes:
            idx = np.nonzero(labels == c)[0]
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(num_clients, concentration))
            cuts = (np.cumsum(props)[:-1] * idx.size).astype(int)
            for client, chunk in enumerate(np.split(idx, cuts)):
                assignment[client].append(chunk)
        sizes = [sum(ch.size for ch in chunks) for chunks in assignment]
        if min(sizes) >= 1:
            shards = []
            for client, chunks in enumerate(assignment):
                idx = np.sort(np.concatenate(chunks))
                shards.append(ClientDataset(client, features[idx], labels[idx].copy()))
            return shards
    raise ValueError(
        f"dirichlet_partition: {num_clients} clients at dirichlet_alpha={concentration} "
        f"left a client empty in each of {max_retries} draws; raise the alpha or lower "
        "the client count"
    )


def dump_clients_csv(shards: list[ClientDataset], path):
    """CSV dump with header client_id,label,f0..f{d-1}."""
    d = shards[0].features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "label"] + [f"f{i}" for i in range(d)])
        for shard in shards:
            for row, lab in zip(shard.features, shard.labels):
                writer.writerow(
                    [shard.client_id, int(lab)] + [repr(float(v)) for v in row]
                )


def load_clients_csv(path) -> list[ClientDataset]:
    by_client: dict[int, tuple[list, list]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = len(header) - 2
        for row in reader:
            cid, lab = int(row[0]), int(row[1])
            feats = [float(v) for v in row[2 : 2 + d]]
            by_client.setdefault(cid, ([], []))
            by_client[cid][0].append(feats)
            by_client[cid][1].append(lab)
    shards = []
    for cid in sorted(by_client):
        feats, labs = by_client[cid]
        shards.append(
            ClientDataset(cid, np.array(feats, dtype=np.float64), np.array(labs, dtype=np.int64))
        )
    return shards
