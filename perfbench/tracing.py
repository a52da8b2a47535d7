"""Per-layer tracing from outside the package.

`Tracer.install()` replaces public functions of the fedalign modules with
timing wrappers, each patched under the name its caller looks up (a name
imported with `from .x import f` lives in the importing module), and
`uninstall()` puts the originals back. Each wrapper records a call count and
a self time: its own duration minus the durations of wrapped calls made
beneath it. Calls made directly by `run_experiment` are also summed
inclusively into the three round-loop phases.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

RUN = "harness.run_experiment"

# (module, attribute, span name). A span name of None means the name is
# chosen per call by `_dynamic_name`.
PATCHES = [
    ("harness", "generate", "data.generate"),
    ("harness", "dirichlet_partition", "data.dirichlet_partition"),
    ("harness", "evaluate", "harness.evaluate"),
    ("harness", "write_outputs", "harness.write_outputs"),
    ("model", "forward", None),
    ("model", "backward", None),
    ("model", "masked_kl", "model.masked_kl"),
    ("model", "top_k_select", "model.top_k_select"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("client", "local_round", "client.local_round"),
    ("client", "reg_loss", "client.reg_loss"),
    ("client", "compute_mu", "client.stats"),
    ("client", "compute_margin", "client.stats"),
    ("client", "compute_p_bar", "client.stats"),
    ("server", "consistency_weights", "server.consistency_weights"),
    ("server", "global_routing", "server.global_routing"),
    ("server", "pairwise_semantics", "server.pairwise_semantics"),
    ("server", "adaptive_threshold", "server.adaptive_threshold"),
    ("server", "gated_weights", "server.gated_weights"),
    ("server", "expert_weights", "server.expert_weights"),
    ("server", "aggregate_experts", "server.aggregate_experts"),
    ("server", "weighted_average", "server.weighted_average"),
    ("server", "cosine_sim", "numeric.cosine_sim"),
    # Off the path of run_experiment: counted, not reported as metrics.
    ("baselines", "fedavg_aggregate", "baselines.fedavg_aggregate"),
    ("baselines", "prox_term", "baselines.prox_term"),
    ("cli", "main", "cli.main"),
]
OFF_PATH = ("baselines.fedavg_aggregate", "baselines.prox_term", "cli.main")

LAYERS = [
    "model.forward",
    "model.backward_ce",
    "model.backward_kl",
    "model.masked_kl",
    "model.top_k_select",
    "model.save_checkpoint",
    "client.local_round",
    "client.reg_loss",
    "client.stats",
    "server.consistency_weights",
    "server.global_routing",
    "server.pairwise_semantics",
    "server.adaptive_threshold",
    "server.gated_weights",
    "server.expert_weights",
    "server.aggregate_experts",
    "server.weighted_average",
    "numeric.cosine_sim",
    "harness.evaluate",
    "harness.metrics_forward",
    "harness.write_outputs",
    RUN,
    "data.generate",
    "data.dirichlet_partition",
]

# Phase of each span called directly by run_experiment; the phase time is
# the inclusive time of those calls.
PHASES = {
    "client.local_round": "local_training",
    "server.consistency_weights": "server_aggregation",
    "server.global_routing": "server_aggregation",
    "server.pairwise_semantics": "server_aggregation",
    "server.adaptive_threshold": "server_aggregation",
    "server.gated_weights": "server_aggregation",
    "server.expert_weights": "server_aggregation",
    "server.aggregate_experts": "server_aggregation",
    "server.weighted_average": "server_aggregation",
    "harness.metrics_forward": "metrics",
    "harness.evaluate": "metrics",
    "client.stats": "metrics",
}
PHASE_NAMES = ("local_training", "server_aggregation", "metrics")


def _dynamic_name(attr, parent, args, kwargs):
    if attr == "forward":
        return "harness.metrics_forward" if parent == RUN else "model.forward"
    lam = kwargs.get("lam", args[3] if len(args) > 3 else 0.0)
    return "model.backward_kl" if lam > 0.0 else "model.backward_ce"


class Tracer:
    """Spans kept in memory as per-name totals; one instance per traced run."""

    def __init__(self, modules, observers=None):
        self.modules = modules  # {"harness": module, ...}
        self.observers = observers or {}  # span name -> f(args, kwargs, result)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.phase_s = defaultdict(float)
        self._stack = []  # [span name, time covered by wrapped children]
        self._saved = []

    def wrap(self, fn, name, attr=None):
        stack = self._stack
        observer = self.observers.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span = name or _dynamic_name(attr, parent, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                self.calls[span] += 1
                self.self_s[span] += dt - frame[1]
                if parent == RUN and span in PHASES:
                    self.phase_s[PHASES[span]] += dt
            if observer is not None:
                observer(args, kwargs, out)
                # The check's own time is charged to nobody.
                dt = perf_counter() - t0
            if stack:
                stack[-1][1] += dt
            return out

        return traced

    def install(self):
        for mod_name, attr, name in PATCHES:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, attr))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = self.self_s[layer]
            out[f"{layer}.calls"] = float(self.calls[layer])
        for phase in PHASE_NAMES:
            out[f"phase.{phase}.s"] = self.phase_s[phase]
        return out
