"""Round-loop benchmark for fedalign: drives `harness.run_experiment` from
outside the package, checks its outputs, and reports end-to-end metrics or,
with --trace 1, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload fedalign-default --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its `src/` directory. One operation is one complete
`run_experiment(cfg, out_dir)`. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

import os

# One BLAS thread, set before numpy loads: the workloads are single-process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
from tracing import OFF_PATH, RUN, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Config overrides per workload; everything else is the ExperimentConfig
# default (N=10 clients, S=4 experts, k=1, alpha=0.1, 25 rounds).
WORKLOADS = {
    # The paper's headline setting; the per-sample masked-KL loop dominates.
    "fedalign-default": {"method": "fedalign"},
    # Same setting with lam=0: forward, backward and expert dispatch dominate.
    "fedavg-default": {"method": "fedavg"},
    # Many small shards and the O(S*N^2) pairwise server step; k=2 routing.
    "fedalign-wide": {
        "method": "fedalign",
        "num_clients": 100,
        "num_experts": 16,
        "top_k": 2,
        "dirichlet_alpha": 0.3,
        "rounds": 8,
    },
}
SEEDS_PER_RUN = 3
# Set-ups timed before the first run and after each run.
SETUP_FIRST = 3
SETUP_BETWEEN = 2
MIB = 1024.0  # ru_maxrss is in KiB on Linux


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(cfg_fields, repeats) -> list[float]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(cfg_fields)]
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def another_fits(deadline, last_seconds):
    """Start another cycle or operation only if it should end in the window."""
    return perf_counter() + last_seconds <= deadline


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".ratio"):
        return "fraction"
    return "s"


class Bench:
    """One workload at one --seed: its configs, an output directory, and the
    bookkeeping of attempted and failed operations.

    --seed n stands for the experiment seeds SEEDS_PER_RUN*n .. SEEDS_PER_RUN*n
    + SEEDS_PER_RUN-1. An untraced run repeats whole cycles over them, so its
    medians are not those of a single data split; the traced run uses the
    first."""

    def __init__(self, workload, seed):
        from dataclasses import asdict

        from fedalign import client, harness, model, server

        self.modules = {"harness": harness, "model": model, "client": client, "server": server}
        self.cfgs = [
            harness.ExperimentConfig(**WORKLOADS[workload], seed=SEEDS_PER_RUN * seed + j)
            for j in range(SEEDS_PER_RUN)
        ]
        self.fields = [asdict(cfg) for cfg in self.cfgs]
        self.out = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0

    def run(self, fn, cfg, out_dir):
        """One operation; returns (seconds, result) or None if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn(cfg, out_dir)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        return perf_counter() - t0, result

    def untraced(self, seconds):
        run_dir = self.out / "run"
        run_experiment = self.modules["harness"].run_experiment
        times, digests, accuracy = [], {}, {}
        deadline = perf_counter() + seconds
        # Set-ups are spread over the window, so their median spans the same
        # stretch of machine time as the runs.
        setup = time_setup(self.fields[0], SETUP_FIRST)
        while True:
            cycle_start = perf_counter()
            for cfg, fields in zip(self.cfgs, self.fields):
                done = self.run(run_experiment, cfg, run_dir)
                if done is not None:
                    times.append(done[0])
                    digest = checks.digest(run_dir)
                    if cfg.seed in digests:
                        checks.check_same(digests[cfg.seed], digest, f"repeat at seed {cfg.seed}")
                    else:
                        accuracy[cfg.seed] = checks.check_outputs(run_dir, fields)
                        digests[cfg.seed] = digest
                setup += time_setup(fields, SETUP_BETWEEN)
            if not another_fits(deadline, perf_counter() - cycle_start):
                break
        checks.require(times, "every run failed")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MIB
        print(f"setup_s per set-up: {' '.join(f'{t:.4f}' for t in setup)}", file=sys.stderr)
        print(f"run_s per run: {' '.join(f'{t:.4f}' for t in times)}", file=sys.stderr)
        print(f"final_accuracy per seed: {accuracy}", file=sys.stderr)
        return {
            "setup_s": metric(statistics.median(setup), "s"),
            "run_s": metric(statistics.median(times), "s"),
            "final_accuracy": metric(statistics.median(accuracy.values()), "fraction"),
            "peak_rss_mib": metric(peak, "MiB"),
        }

    def traced(self, seconds):
        from fedalign import baselines, cli

        modules = {**self.modules, "baselines": baselines, "cli": cli}
        run_experiment = self.modules["harness"].run_experiment
        cfg, fields = self.cfgs[0], self.fields[0]
        ref_dir, run_dir = self.out / "untraced", self.out / "traced"
        rows, plain, traced, ref = [], [], [], None
        deadline = perf_counter() + seconds
        # Untraced and traced operations alternate, so that the overhead is
        # measured over the same stretch of machine time.
        while True:
            pair_start = perf_counter()
            done = self.run(run_experiment, cfg, ref_dir)
            if done is not None:
                plain.append(done[0])
                if ref is None:
                    checks.check_outputs(ref_dir, fields)
                    ref = checks.digest(ref_dir)
                else:
                    checks.check_same(ref, checks.digest(ref_dir), "repeat run")
            agg = checks.AggregationCheck(fields)
            tracer = Tracer(
                modules,
                observers={
                    "client.local_round": agg.on_local_round,
                    "server.expert_weights": agg.on_expert_weights,
                },
            )
            tracer.install()
            try:
                done = self.run(tracer.wrap(run_experiment, RUN), cfg, run_dir)
            finally:
                tracer.uninstall()
            if done is not None:
                agg.finish(done[1].final_params)
                if ref is not None:
                    checks.check_same(ref, checks.digest(run_dir), "traced run against untraced")
                traced.append(done[0])
                rows.append(tracer.metrics())
                rows[-1]["server.experts_updated.ratio"] = agg.experts_updated / (
                    cfg.num_experts * cfg.rounds
                )
                off_path = {name: tracer.calls[name] for name in OFF_PATH}
            if not another_fits(deadline, perf_counter() - pair_start):
                break
        checks.require(plain and rows, "every untraced or every traced run failed")
        print(f"untraced run_s per run: {' '.join(f'{t:.4f}' for t in plain)}", file=sys.stderr)
        print(f"traced run_s per run: {' '.join(f'{t:.4f}' for t in traced)}", file=sys.stderr)
        print(f"calls off the run_experiment path: {off_path}", file=sys.stderr)
        out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        out["trace.overhead.s"] = statistics.median(traced) - statistics.median(plain)
        return {name: metric(v, per_layer_unit(name)) for name, v in out.items()}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed)
    correct = True
    try:
        if args.trace:
            metrics = bench.traced(args.seconds)
        else:
            metrics = bench.untraced(args.seconds)
    except checks.CheckFailed as exc:
        print(f"{args.workload}: check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    finally:
        shutil.rmtree(bench.out, ignore_errors=True)
        try:
            OUT.rmdir()  # only if no other run is using it
        except OSError:
            pass
    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:36s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 and not lines:
            summary["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"] and done.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            summary["metrics"][f"{name}/{metric_name}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedalign" / "__init__.py").is_file():
        print(f"error: no fedalign package under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
