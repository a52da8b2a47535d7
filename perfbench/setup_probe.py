"""Times one set-up in a fresh interpreter: importing the package, generating
the task and the train and test sets, partitioning, and initializing the
model, with the same calls and seed streams `run_experiment` uses.

Usage: python3 setup_probe.py '<ExperimentConfig fields as JSON>'
Prints the elapsed seconds. The caller sets PYTHONPATH to the package source.
"""

import json
import sys
import time

t0 = time.perf_counter()

from dataclasses import replace  # noqa: E402

from fedalign import model as M  # noqa: E402
from fedalign.data import dirichlet_partition, generate, make_default_task  # noqa: E402
from fedalign.harness import ExperimentConfig, child_rng  # noqa: E402

cfg = ExperimentConfig(**json.loads(sys.argv[1]))
task = make_default_task(
    cfg.num_classes,
    cfg.input_dim,
    cfg.samples_per_class,
    cfg.noise_std,
    child_rng(cfg.seed, "task"),
    mean_scale=cfg.mean_scale,
)
train_x, train_y = generate(task, child_rng(cfg.seed, "data"))
test_x, test_y = generate(
    replace(task, samples_per_class=cfg.test_samples_per_class), child_rng(cfg.seed, "test")
)
shards = dirichlet_partition(
    train_x, train_y, cfg.num_clients, cfg.dirichlet_alpha, child_rng(cfg.seed, "partition")
)
params = M.init_params(cfg.model_config(), child_rng(cfg.seed, "init"))
print(repr(time.perf_counter() - t0))
