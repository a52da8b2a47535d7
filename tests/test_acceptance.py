"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-8 share full 25-round runs at the default configuration through
the session run cache, warmed in parallel once per session.
"""

import math
import time

import numpy as np
import pytest

import oracles
from helpers import (
    expert_delta, expert_rows, gate_softmax, grad_check, stack_uploads, upload, zero_model,
)
from fedalign import client as C
from fedalign import model as M
from fedalign import server as S
from fedalign.harness import ExperimentConfig, run_experiment
from fedalign.numeric import cosine_sim, sigmoid

SEEDS = range(5)


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, printed past pytest's capture."""

    def _report(num, name, ok, detail):
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def runs(run_cache):
    configs = [dict(method=m, seed=s) for m in ("fedalign", "fedprox", "fedavg")
               for s in SEEDS]
    configs += [dict(method=m, seed=s, dirichlet_alpha=1.0)
                for m in ("fedalign", "fedavg") for s in SEEDS]
    start = time.monotonic()
    run_cache.warm(configs)
    run_cache.warm_seconds = time.monotonic() - start
    return run_cache


def final_acc(runs, **kw):
    return runs.get(**kw).records[-1].global_accuracy


def median_acc(runs, method, alpha=0.1):
    return float(np.median([
        final_acc(runs, method=method, seed=s, dirichlet_alpha=alpha)
        for s in SEEDS
    ]))


def steady_acc(runs, method, alpha=0.1):
    """Median over seeds of each run's last-10-round mean accuracy. Printed
    next to the gates as a readout of the round-to-round swing; no gate
    reads it."""
    return float(np.median([
        np.mean([r.global_accuracy for r in
                 runs.get(method=method, seed=s, dirichlet_alpha=alpha).records[-10:]])
        for s in SEEDS
    ]))


class RegCtx:
    def __init__(self, p_g, alpha, k):
        self.p_g = p_g
        self.alpha = alpha
        self.ref = M.top_k_select(p_g, k)


def test_criterion_1_gradient_fidelity(report):
    config = M.MoEConfig(3, 4, 3, 2, 3, 4)
    start = time.monotonic()
    worst = 0.0
    instances = 0
    for lam in (0.0, 0.1, 1.0):
        for seed in range(7):
            rng = np.random.default_rng(100 * seed + int(lam * 10))
            params = M.init_params(config, rng)
            x = rng.normal(size=(3, config.input_dim))
            labels = rng.integers(0, config.num_classes, size=3)
            p_g = rng.dirichlet(np.ones(config.num_experts))
            alpha = rng.uniform(0.2, 1.0, size=config.num_experts)
            ctx = RegCtx(p_g, alpha, config.top_k)
            trace, _ = M.forward(config, params, x, labels)
            grads = M.backward(trace, params, lam=lam, reg_ctx=ctx)

            def loss_fn(w, block):
                probe = params.copy()
                getattr(probe, block)[...] = w
                t, ce = M.forward(config, probe, x, labels)
                if lam == 0.0:
                    return ce
                vals = M.masked_kl_values(t.full_probs, t.topk_idx, ctx.ref, p_g, alpha)
                return ce + lam * vals.mean()

            for block in M.ModelParams.BLOCKS:
                g = getattr(grads, block)
                disc = grad_check(
                    lambda w, b=block: loss_fn(w, b), getattr(params, block), g
                )
                rel = disc / max(1.0, float(np.abs(g).max()))
                worst = max(worst, rel)
            instances += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 10.0 and instances >= 20
    report(1, "gradient fidelity", ok,
           f"{instances} instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_formula_oracles(report):
    # The routing softmax is forward's, on gate scores [ln 2, 0]; the KL
    # summand is masked_kl_values', with the mask on both experts and alpha [1, 0].
    both = np.array([0, 1])
    checks = []
    checks.append(abs(gate_softmax(np.array([[math.log(2), 0.0]]))[0, 0]
                      - oracles.SOFTMAX_LN2_0[0]) < 1e-9)
    kl = M.masked_kl_values(
        np.array([[0.8, 0.2]]), both[None], both, np.array([0.2, 0.8]), np.array([1.0, 0.0])
    )
    checks.append(abs(kl[0] - oracles.KL_TERM_08_02) < 1e-9)
    checks.append(abs(sigmoid(-math.log(3.0)) - oracles.SIGMOID_NEG_LN3) < 1e-9)
    checks.append(abs(cosine_sim(np.array([[1.0, 0], [1.0, 1.0]]))[0, 1]
                      - oracles.COS_UNIT_DIAG) < 1e-9)
    checks.append(np.allclose(
        C.compute_p_bar(type("T", (), {"topk_probs": np.array(
            [[0.8, 0.2, 0.0], [0.4, 0.6, 0.0]])})),
        oracles.P_BAR_TWO_SAMPLES, atol=1e-9))
    checks.append(np.allclose(
        C.compute_margin(type("T", (), {"full_probs": np.array(
            [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]]), "topk_idx": np.array([[0], [1]])})),
        oracles.MARGIN_TWO_SAMPLES, atol=1e-9))
    kl = M.masked_kl_values(
        np.array([[0.9, 0.1]]), both[None], both, np.array([0.5, 0.5]), np.ones(2)
    )
    checks.append(abs(kl[0] - oracles.MASKED_KL_09_05) < 1e-9)
    checks.append(abs(C.compute_alpha(np.array([0.1 + math.log(3)]), 0.1)[0]
                      - oracles.SIGMOID_LN3) < 1e-9)

    omega = S.consistency_weights(
        np.array([[0.6, 0.4], [0.2, 0.8]]), np.array([[0.3, 0.1], [0.1, 0.1]])
    )
    checks.append(np.allclose(omega[:, 0], oracles.OMEGA_TWO_CLIENTS, atol=1e-9))
    tau, mean_sim, disp = S.adaptive_threshold(np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0)
    checks.append(
        abs(mean_sim - oracles.TAU_MEAN) < 1e-9
        and abs(disp - oracles.TAU_STD) < 1e-9
        and abs(tau - oracles.TAU_BETA1) < 1e-9
    )
    gamma = S.gated_weights(np.full((1, 1), math.log(3.0)), np.full((1, 1), 0.5), 0.0)
    checks.append(abs(gamma[0, 0] - oracles.GAMMA_LN3_HALF) < 1e-9)

    # Training-touching oracle at 1e-6: dense-mixture equivalence when k=S.
    config = M.MoEConfig(3, 4, 3, 3, 3, 4)
    rng = np.random.default_rng(0)
    params = M.init_params(config, rng)
    x = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    _, ce = M.forward(config, params, x, labels)
    checks.append(abs(ce - oracles.dense_mixture_loss(params, x, labels)) < 1e-6)

    ok = all(checks)
    report(2, "formula oracle suite", ok,
           f"{sum(checks)}/{len(checks)} oracle examples match")


def test_criterion_3_fedavg_equivalence(run_cache, report):
    run_cache.warm([
        dict(method="fedalign", rounds=5, lam=0.0, ablations=("uniform_gamma",)),
        dict(method="fedavg", rounds=5),
    ])
    deg = run_cache.get(method="fedalign", rounds=5, lam=0.0,
                        ablations=("uniform_gamma",))
    ref = run_cache.get(method="fedavg", rounds=5)
    params_equal = all(
        np.array_equal(getattr(deg.final_params, b), getattr(ref.final_params, b))
        for b in M.ModelParams.BLOCKS
    )
    trajectory_equal = all(
        a.global_accuracy == b.global_accuracy
        and a.local_accuracy_mean == b.local_accuracy_mean
        for a, b in zip(deg.records, ref.records)
    )
    ok = params_equal and trajectory_equal
    report(3, "fedavg equivalence", ok,
           f"5-round params bit-identical={params_equal}, "
           f"per-round metrics identical={trajectory_equal}")


def test_criterion_4_homogeneity_fixed_point(report):
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n, s, p = 5, 4, 7
        p_bar = rng.dirichlet(np.ones(s))
        margin = rng.uniform(0.05, 0.3, s)
        mu = rng.normal(size=(s, 3))
        d = rng.normal(size=(s, p))
        up = stack_uploads([upload(expert_delta(d), p_bar, margin, mu) for _ in range(n)])
        new, p_g, rep = S.aggregate_round(
            zero_model(up.param_delta), up, np.full(n, 1.0 / n), 1, beta=0.5
        )
        # From a zero model the new expert rows are the aggregated update; an
        # expert left not updated would keep zero rows, a deviation of |d|.
        worst = max(
            worst,
            float(np.abs(rep.omega - 1.0 / n).max()),
            float(np.abs(p_g - p_bar).max()),
            float(np.abs(rep.tau - 1.0).max()),
            float(np.abs(expert_rows(new) - d).max()),
        )
    ok = worst < 1e-9
    report(4, "homogeneity fixed point", ok, f"max deviation {worst:.2e}")


def test_criterion_5_permutation_equivariance(report):
    rng = np.random.default_rng(11)
    n, s, p = 6, 4, 9

    def draw_stats():
        st = rng.dirichlet(np.ones(s)), rng.uniform(0.05, 0.3, s), rng.normal(size=(s, 3))
        rng.integers(5, 20)  # drawn and dropped, so every later draw keeps its value
        return st

    stats = [draw_stats() for _ in range(n)]
    rows = [upload(expert_delta(rng.normal(size=(s, p))), *st) for st in stats]

    def pipeline(order):
        up = stack_uploads([rows[i] for i in order])
        new, p_g, rep = S.aggregate_round(
            zero_model(up.param_delta), up, np.full(n, 1.0 / n), 1, beta=0.5
        )
        # Per-client columns back in original client-id order.
        inv = np.argsort(order)
        return p_g, rep.tau, expert_rows(new), rep.omega[inv], rep.gamma_row_sums[:, inv]

    base = pipeline(np.arange(n))
    shuf = pipeline(np.array([4, 0, 5, 2, 1, 3]))
    worst = max(float(np.abs(a - b).max()) for a, b in zip(base, shuf))
    ok = worst <= 1e-12
    report(5, "permutation equivariance", ok, f"max deviation {worst:.2e}")


def test_criterion_6_directional_non_iid(runs, report):
    fa = median_acc(runs, "fedalign")
    fp = median_acc(runs, "fedprox")
    fv = median_acc(runs, "fedavg")
    gap = fa - fv
    ok = fa >= fp >= fv and gap >= 0.02 and runs.warm_seconds < 300.0
    steady = ", ".join(f"{m}={steady_acc(runs, m):.4f}" for m in ("fedalign", "fedprox", "fedavg"))
    report(6, "directional non-IID ordering", ok,
           f"median acc fedalign={fa:.4f} >= fedprox={fp:.4f} >= fedavg={fv:.4f}, "
           f"gap={gap * 100:.1f} pts, runs warmed in {runs.warm_seconds:.0f}s "
           f"(last-10-round mean, not gated: {steady})")


def test_criterion_7_heterogeneity_robustness(runs, report):
    drop_fa = median_acc(runs, "fedalign", alpha=1.0) - median_acc(runs, "fedalign")
    drop_fv = median_acc(runs, "fedavg", alpha=1.0) - median_acc(runs, "fedavg")
    ok = drop_fa < drop_fv
    steady = ", ".join(
        f"{m} {steady_acc(runs, m, alpha=1.0):.4f}->{steady_acc(runs, m):.4f}"
        for m in ("fedalign", "fedavg")
    )
    report(7, "heterogeneity robustness", ok,
           f"accuracy drop 1.0->0.1: fedalign {drop_fa:.4f} < fedavg {drop_fv:.4f} "
           f"(last-10-round mean at 1.0->0.1, not gated: {steady})")


def test_criterion_8_aggregation_degrades_routing(runs, report):
    # Routing disagreement is a property of the global model: the mean total
    # variation of its per-shard routing distributions about their centroid.
    # Its pre-aggregation value is measured on the initial broadcast model,
    # before any aggregation has happened. Under plain averaging the
    # disagreement of the aggregated model exceeds that level nearly every
    # round; the distribution-alignment regularizer holds it near the
    # pre-aggregation level.
    fracs = {}
    for method in ("fedavg", "fedalign"):
        result = runs.get(method=method, seed=0)
        base = result.initial_disagreement
        fracs[method] = float(np.mean([
            r.routing_spread_post > base for r in result.records
        ]))
    ok = fracs["fedavg"] >= 0.8 and fracs["fedalign"] < 0.8
    report(8, "aggregation degrades routing", ok,
           f"rounds above pre-aggregation disagreement: "
           f"fedavg {fracs['fedavg']:.2f} (need >= 0.8), "
           f"fedalign {fracs['fedalign']:.2f} (need < 0.8)")


def test_criterion_9_determinism(tmp_path, report):
    cfg = dict(
        input_dim=4, hidden_dim=6, num_experts=3, top_k=1, num_classes=3,
        expert_hidden=6, samples_per_class=30, test_samples_per_class=10,
        num_clients=3, rounds=3, local_epochs=1, seed=12,
    )
    run_experiment(ExperimentConfig(**cfg), out_dir=tmp_path / "a")
    run_experiment(ExperimentConfig(**cfg), out_dir=tmp_path / "b")
    same = (tmp_path / "a/metrics.jsonl").read_bytes() == \
        (tmp_path / "b/metrics.jsonl").read_bytes()
    report(9, "determinism", same, "two runs produced byte-identical metrics.jsonl")
