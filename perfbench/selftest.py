"""Shows that each correctness check of the benchmark fails on a deliberately
corrupted output, and passes on the clean one.

    python3 perfbench/selftest.py

Runs a few small experiments (a few seconds in all), then corrupts copies of
their output files one way at a time. Prints one line per case and exits 0
only when the clean outputs pass and every corruption is caught by the check
it targets.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import RUN, Tracer  # noqa: E402

from fedalign import baselines, cli, client, harness, model, server  # noqa: E402

SMALL = dict(num_clients=4, rounds=3, samples_per_class=60, test_samples_per_class=25)
WORK = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"


def ckpt(edit):
    """Corruption that rewrites final.ckpt as edit(bytearray, cfg)."""

    def corrupt(d, cfg):
        path = d / "final.ckpt"
        path.write_bytes(bytes(edit(bytearray(path.read_bytes()), cfg)))

    return corrupt


def jsonl(name, edit):
    """Corruption that rewrites one JSON-lines file after edit(rows)."""

    def corrupt(d, cfg):
        rows = checks.read_jsonl(d / name)
        edit(rows)
        (d / name).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))

    return corrupt


def edit_summary(d, row, col, value):
    lines = (d / "summary.csv").read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    (d / "summary.csv").write_text("\n".join(lines) + "\n")


def truncate(raw, cfg):
    return raw[:-8]


def rename_magic(raw, cfg):
    raw[:4] = b"XMOE"
    return raw


def bump_input_dim(raw, cfg):
    raw[8] ^= 1
    return raw


def flip_head_signs(raw, cfg):
    shapes = checks.block_shapes(cfg)
    head = 32 + 8 * sum(int(np.prod(shapes[b])) for b in checks.BLOCK_ORDER[:-1])
    for i in range(head + 7, len(raw), 8):
        raw[i] ^= 0x80
    return raw


def one_less_correct(d, cfg):
    """The last global_accuracy one test sample lower, in metrics.jsonl and
    summary.csv alike, so that only the recount can see it."""
    n = cfg["num_classes"] * cfg["test_samples_per_class"]
    rows = checks.read_jsonl(d / "metrics.jsonl")
    rows[-1]["global_accuracy"] = new = (round(rows[-1]["global_accuracy"] * n) - 1) / n
    (d / "metrics.jsonl").write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    edit_summary(d, -1, 1, repr(new))


def bad_schema(rows):
    rows[0]["schema"] = "x/1"


def swap_rounds(rows):
    rows[1], rows[2] = rows[2], rows[1]


def accuracy_above_one(rows):
    rows[1]["local_accuracy_mean"] = 1.5


def omega_off_simplex(rows):
    rows[0]["omega"][0][0] += 0.01


def negative_omega(rows):
    omega = rows[0]["omega"]
    x = omega[0][0]
    omega[0][0] = -x - 1e-3
    omega[1][0] += 2 * x + 1e-3


def nonuniform_omega(rows):
    omega = rows[0]["omega"]
    omega[0][0] += 1e-3
    omega[1][0] -= 1e-3


def tau_above_mean(rows):
    rows[0]["tau"][0] = rows[0]["mean_sim"][0] + 0.1


def negative_dispersion(rows):
    rows[0]["dispersion"][0] = -0.1


def negative_gamma(rows):
    rows[0]["gamma_row_sums"][0][0] = -0.1


# (name, run, corruption of the copied output directory, expected message)
CASES = [
    ("checkpoint size", "fedalign", ckpt(truncate), "bytes, expected"),
    ("checkpoint magic", "fedalign", ckpt(rename_magic), "magic"),
    ("checkpoint header", "fedalign", ckpt(bump_input_dim), "checkpoint header"),
    ("recount (head signs flipped)", "fedalign", ckpt(flip_head_signs), "independent forward"),
    ("recount (reported count moved)", "fedalign", one_less_correct, "independent forward"),
    ("metrics schema header", "fedalign", jsonl("metrics.jsonl", bad_schema), "metrics header"),
    ("metrics round order", "fedalign", jsonl("metrics.jsonl", swap_rounds), "1..R in order"),
    ("accuracy range", "fedalign", jsonl("metrics.jsonl", accuracy_above_one), "outside [0, 1]"),
    ("summary.csv agreement", "fedalign", lambda d, c: edit_summary(d, 2, 3, "0.125"),
     "disagrees"),
    ("omega column sum", "fedalign", jsonl("aggregation.jsonl", omega_off_simplex), "column sum"),
    ("omega non-negative", "fedalign", jsonl("aggregation.jsonl", negative_omega),
     "negative omega"),
    ("omega uniform under fedavg", "fedavg", jsonl("aggregation.jsonl", nonuniform_omega),
     "not uniform"),
    ("tau <= mean_sim", "fedalign", jsonl("aggregation.jsonl", tau_above_mean), "tau > mean_sim"),
    ("dispersion >= 0", "fedalign", jsonl("aggregation.jsonl", negative_dispersion),
     "negative dispersion"),
    ("gamma row sums >= 0", "fedalign", jsonl("aggregation.jsonl", negative_gamma),
     "negative gamma"),
]


def run_traced(cfg, out_dir):
    """Traced run with the aggregation check attached; returns (check, result)."""
    fields = asdict(cfg)
    agg = checks.AggregationCheck(fields)
    mods = {
        "harness": harness,
        "model": model,
        "client": client,
        "server": server,
        "baselines": baselines,
        "cli": cli,
    }
    tracer = Tracer(
        mods,
        observers={
            "client.local_round": agg.on_local_round,
            "server.expert_weights": agg.on_expert_weights,
        },
    )
    tracer.install()
    try:
        result = tracer.wrap(harness.run_experiment, RUN)(cfg, out_dir)
    finally:
        tracer.uninstall()
    return agg, result


def expect_failure(name, fn, expected, results):
    try:
        fn()
    except checks.CheckFailed as exc:
        ok = expected in str(exc)
        results.append(ok)
        print(f"{'caught' if ok else 'WRONG CHECK'}: {name}: {exc}")
        return
    results.append(False)
    print(f"MISSED: {name}")


def main() -> int:
    results = []
    clean = {}
    try:
        for method in ("fedalign", "fedavg"):
            cfg = harness.ExperimentConfig(method=method, seed=3, **SMALL)
            agg, result = run_traced(cfg, WORK / method)
            agg.finish(result.final_params)
            checks.check_outputs(WORK / method, asdict(cfg))
            clean[method] = (asdict(cfg), checks.digest(WORK / method))
            print(f"clean {method} run passes every check")

        for name, method, corrupt, expected in CASES:
            fields, digest = clean[method]
            d = WORK / "case"
            shutil.rmtree(d, ignore_errors=True)
            shutil.copytree(WORK / method, d)
            corrupt(d, fields)
            expect_failure(name, lambda: checks.check_outputs(d, fields), expected, results)

        fields, digest = clean["fedalign"]
        d = WORK / "case"
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(WORK / "fedalign", d)
        ckpt(lambda raw, cfg: raw[:100] + bytes([raw[100] ^ 1]) + raw[101:])(d, fields)
        expect_failure("determinism (one checkpoint byte flipped)",
                       lambda: checks.check_same(digest, checks.digest(d), "repeat"),
                       "final.ckpt", results)

        for method in ("fedalign", "fedavg"):
            cfg = harness.ExperimentConfig(method=method, seed=3, **SMALL)
            agg, result = run_traced(cfg, WORK / "again")
            result.final_params.embed[0, 0] += 1e-9
            expect_failure(f"aggregation recompute ({method}, embed moved by 1e-9)",
                           lambda: agg.finish(result.final_params), "aggregate off", results)
        cfg = harness.ExperimentConfig(method="fedavg", seed=3, **SMALL)
        agg, result = run_traced(cfg, WORK / "again")
        result.final_params.expert_w1[0, 0, 0] += 1e-9
        expect_failure("aggregation recompute (fedavg, expert moved by 1e-9)",
                       lambda: agg.finish(result.final_params), "aggregate off", results)
        cfg = harness.ExperimentConfig(method="fedalign", seed=3, **SMALL)
        agg, result = run_traced(cfg, WORK / "again")
        agg.on_expert_weights((), {}, (None, np.zeros(cfg.num_experts, dtype=bool)))
        expect_failure("frozen experts (last round reported no expert updated)",
                       lambda: agg.finish(result.final_params), "not updated", results)

        untrained = harness.ExperimentConfig(method="fedavg", seed=3, lr=1e-9, **SMALL)
        harness.run_experiment(untrained, WORK / "untrained")
        expect_failure("learning (untrained model)",
                       lambda: checks.check_outputs(WORK / "untrained", asdict(untrained)),
                       "well above chance", results)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    print(f"{sum(results)}/{len(results)} corruptions caught by their check")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
