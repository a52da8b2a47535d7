"""Traced memory of one run's phases.

    python3 tools/phase_memory.py [CONFIG]

CONFIG is a JSON object of `ExperimentConfig` fields, inline
('{"num_clients": 100}') or the path of a file holding one; without it the
default config runs. The run is `harness.run_experiment`, without output
files, under `tracemalloc`, which counts the allocations of Python and of
numpy's array buffers rather than the process's resident size, so the
figures are the same on every run.

A phase is every call of its functions: local training is
`client.local_round`, the server `server.aggregate_round`, and the metrics
`harness.shard_routing` and `harness.evaluate`. For each phase the script
prints, in MiB, its highest call's peak (the largest traced size before
that call returns), its base (the traced size when it was entered) and the
difference, then the whole run's peak. Everything the run allocates is
counted, set-up included; the interpreter's and numpy's own are not.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedalign import client, harness, server  # noqa: E402

MIB = 2.0**20
# (phase, module, function): each function is patched where the harness
# looks it up.
PHASES = (
    ("local training", client, "local_round"),
    ("server", server, "aggregate_round"),
    ("metrics", harness, "shard_routing"),
    ("metrics", harness, "evaluate"),
)


def measure(cfg: harness.ExperimentConfig) -> tuple[dict[str, tuple[int, int]], int]:
    """{phase: (peak, base)} of each phase's highest call, and the run's
    peak, in bytes."""
    phases: dict[str, tuple[int, int]] = {}
    run_peak = 0

    def wrap(phase, fn):
        def measured(*args, **kwargs):
            nonlocal run_peak
            base, peak = tracemalloc.get_traced_memory()
            run_peak = max(run_peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                if peak > phases.get(phase, (-1, 0))[0]:
                    phases[phase] = (peak, base)

        return measured

    saved = [(module, name, getattr(module, name)) for _, module, name in PHASES]
    for phase, module, name in PHASES:
        setattr(module, name, wrap(phase, getattr(module, name)))
    tracemalloc.start()
    try:
        harness.run_experiment(cfg)
        run_peak = max(run_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        for module, name, fn in saved:
            setattr(module, name, fn)
    return phases, max([run_peak, *(peak for peak, _ in phases.values())])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("config", nargs="?", default="{}", help="JSON object or file of config fields")
    args = p.parse_args(argv)
    text = args.config
    if not text.lstrip().startswith("{"):
        text = Path(text).read_text()
    cfg = harness.ExperimentConfig(**json.loads(text))
    phases, run_peak = measure(cfg)
    print(f"{'phase':<16}{'peak MiB':>10}{'base MiB':>10}{'peak-base':>11}")
    for phase in dict.fromkeys(phase for phase, _, _ in PHASES):
        peak, base = phases[phase]
        print(f"{phase:<16}{peak / MIB:>10.3f}{base / MIB:>10.3f}{(peak - base) / MIB:>11.3f}")
    print(f"{'run':<16}{run_peak / MIB:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
