"""Per-layer attribution: span wrappers around each layer's public entry points.

The benchmark's traced run installs :class:`LayerWrappers` before it builds
any executor pool, so forked workers inherit the wrapped functions.  Each
wrapper opens one ``repro.obs`` span named ``<layer>.<entry point>`` while
tracing is enabled and is a plain pass-through otherwise.  The spans join
the ones the program already emits (``engine.run``, ``engine.epoch``,
``federated.round``, ``federated.site_round``), and :func:`fold` turns the
whole trace into per-span call counts, total and self times.

Wrappers only read arguments and results; none of them draws a random
number, so a traced run samples exactly the rows an untraced run does.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import threading
from collections import defaultdict

from common import median
from repro.obs import span, tracing_enabled

__all__ = ["LayerWrappers", "fold", "layer_metrics", "span_table"]

# (module, owner attribute or None for a module-level function, function, span name).
# Every span name starts with the layer that owns the entry point.
ENTRY_POINTS = [
    ("repro.core.synthesizer", "KiNETGAN", "fit", "core.fit"),
    ("repro.core.synthesizer", "KiNETGAN", "sample", "core.sample"),
    ("repro.core.trainer", "KiNETGANStep", "step", "core.step"),
    ("repro.core.trainer", "KiNETGANTrainer", "generate_matrix", "core.generate"),
    ("repro.core.generator", "ConditionalGenerator", "forward", "core.generator.forward"),
    ("repro.core.generator", "ConditionalGenerator", "backward", "core.generator.backward"),
    ("repro.core.discriminator", "DataDiscriminator", "forward", "core.discriminator.forward"),
    ("repro.core.discriminator", "DataDiscriminator", "backward", "core.discriminator.backward"),
    ("repro.core.trainer", None, "condition_penalty", "core.condition_penalty"),
    (
        "repro.core.kg_discriminator",
        "KnowledgeGuidedDiscriminator",
        "train_step",
        "core.kg.train_step",
    ),
    (
        "repro.core.kg_discriminator",
        "KnowledgeGuidedDiscriminator",
        "generator_loss_and_grad",
        "core.kg.generator_loss",
    ),
    (
        "repro.core.kg_discriminator",
        "KnowledgeGuidedDiscriminator",
        "valid_set_loss_and_grad",
        "core.kg.valid_set_loss",
    ),
    ("repro.neural.optimizers", "Adam", "step", "neural.optimizer.step"),
    ("repro.neural.losses", "BinaryCrossEntropy", "forward", "neural.loss"),
    ("repro.neural.losses", "BinaryCrossEntropy", "backward", "neural.loss"),
    ("repro.tabular.sampler", "ConditionSampler", "sample", "tabular.sampler.sample"),
    (
        "repro.tabular.sampler",
        "ConditionSampler",
        "empirical_conditions",
        "tabular.sampler.conditions",
    ),
    ("repro.tabular.transformer", "DataTransformer", "fit", "tabular.transformer.fit"),
    ("repro.tabular.transformer", "DataTransformer", "transform", "tabular.transformer.transform"),
    ("repro.tabular.transformer", "DataTransformer", "harden", "tabular.transformer.harden"),
    (
        "repro.tabular.transformer",
        "DataTransformer",
        "inverse_transform",
        "tabular.transformer.inverse_transform",
    ),
    ("repro.knowledge.reasoner", "KGReasoner", "validity_mask", "knowledge.validity_mask"),
    ("repro.knowledge", None, "build_network_kg", "knowledge.build_kg"),
    ("repro.core.synthesizer", None, "build_network_kg", "knowledge.build_kg"),
    ("repro.federated.kinetgan", None, "build_network_kg", "knowledge.build_kg"),
    ("repro.datasets", None, "load_lab_iot", "datasets.load"),
    ("repro.federated.kinetgan", "FederatedKiNETGAN", "__init__", "federated.init"),
    ("repro.federated.kinetgan", "FederatedKiNETGAN", "add_site", "federated.add_site"),
    ("repro.federated.kinetgan", "FederatedKiNETGAN", "sample", "federated.sample"),
    ("repro.federated.kinetgan", "FederatedKiNETGAN", "release_transport", "federated.release"),
    ("repro.federated.parameters", "StateCodec", "encode", "federated.encode"),
    ("repro.federated.parameters", "StateCodec", "decode", "federated.decode"),
    ("repro.federated.parameters", "StateCodec", "decode_into", "federated.decode"),
    ("repro.federated.kinetgan", None, "weighted_average", "federated.aggregate"),
    ("repro.runtime.executor", "Executor", "map_tasks", "runtime.map_tasks"),
    ("repro.runtime.executor", "ProcessExecutor", "install", "runtime.install"),
    ("repro.serve.server", "SamplingHTTPServer", "admit", "serve.admit"),
    ("repro.serve.server", "SamplingHTTPServer", "await_result", "serve.await"),
    ("repro.serve.server", "ServingPool", "sample_batch", "serve.sample_batch"),
    ("repro.serve.server", None, "table_to_wire", "serve.wire_encode"),
]


def _validity_rows(handle, args, kwargs, result) -> None:
    handle.set_attr("rows", int(len(result)))


def _encode_bytes(handle, args, kwargs, result) -> None:
    out = kwargs.get("out", args[2] if len(args) > 2 else None)
    handle.set_attr("shared_bytes", int(out.nbytes) if out is not None else 0)


def _install_bytes(handle, args, kwargs, result) -> None:
    handle.set_attr("bytes", int(getattr(result, "nbytes", 0)))


def _admit_seed(handle, args, kwargs, result) -> None:
    handle.set_attr("seed", args[1].get("seed"))


def _await_request(handle, args, kwargs, result) -> None:
    admitted = args[1]
    handle.set_attr("seed", admitted.seed)
    handle.set_attr("enqueued", admitted.enqueued)


def _batch_size(handle, args, kwargs, result) -> None:
    handle.set_attr("requests", len(args[1]))


_ATTRS = {
    "knowledge.validity_mask": _validity_rows,
    "federated.encode": _encode_bytes,
    "runtime.install": _install_bytes,
    "serve.admit": _admit_seed,
    "serve.await": _await_request,
    "serve.sample_batch": _batch_size,
}


class LayerWrappers:
    """Installs (and removes) span wrappers around every entry point above.

    ``map_tasks`` payloads dispatched to a process pool are kept by
    reference and pickled only in :meth:`task_bytes`, after the traced
    phase, so measuring the transport's byte count costs the timed spans
    nothing.
    """

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self._payloads: list[list] = []

    def install(self) -> "LayerWrappers":
        for module_name, owner_name, attribute, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _wrap(self, name: str, original):
        add_attrs = _ATTRS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracing_enabled():
                return original(*args, **kwargs)
            with span(name, tid=threading.get_ident()) as handle:
                result = original(*args, **kwargs)
                if add_attrs is not None:
                    add_attrs(handle, args, kwargs, result)
                return result

        if name != "runtime.map_tasks":
            return traced
        payloads = self._payloads

        @functools.wraps(original)
        def map_tasks(executor, fn, tasks, *args, **kwargs):
            tasks = list(tasks)
            if tracing_enabled() and executor.name == "process":
                payloads.append(tasks)
            return traced(executor, fn, tasks, *args, **kwargs)

        return map_tasks

    def task_bytes(self) -> int:
        """Pickled size of every process-pool task payload dispatched so far."""
        return sum(
            len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            for tasks in self._payloads
            for payload in tasks
        )


# --------------------------------------------------------------------------- #
# Folding a trace
# --------------------------------------------------------------------------- #
def _tid(event: dict):
    return event.get("attrs", {}).get("tid")


def fold(events: list[dict]) -> list[dict]:
    """Annotate every span with ``self`` (seconds) and ``root`` (its root's name).

    A span's self time is its duration minus the durations of its children
    that ran on the same thread of the same process.  Children in another
    process (a pool worker's ``federated.site_round``) or on another thread
    (a thread-pool worker's sample task) ran concurrently with their
    parent and are not subtracted.  Spans the program emits carry no thread
    id and count as the parent's thread.
    """
    by_id = {event["span_id"]: event for event in events}
    covered: dict[str, float] = defaultdict(float)
    for event in events:
        parent = by_id.get(event["parent_id"])
        if parent is None or parent["pid"] != event["pid"]:
            continue
        child_tid, parent_tid = _tid(event), _tid(parent)
        if child_tid is None or parent_tid is None or child_tid == parent_tid:
            covered[parent["span_id"]] += event["duration"]
    for event in events:
        event["self"] = event["duration"] - covered[event["span_id"]]
        node = event
        while node["parent_id"] in by_id:
            node = by_id[node["parent_id"]]
        event["root"] = node["name"]
    return events


def span_table(events: list[dict]) -> dict[str, dict[str, float]]:
    """``{span name: {"calls", "total_s", "self_s"}}`` over folded events."""
    table: dict[str, dict[str, float]] = {}
    for event in events:
        row = table.setdefault(event["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += event["duration"]
        row["self_s"] += event["self"]
    return table


def layer_metrics(cycle: list[dict], setup: list[dict]) -> dict[str, float]:
    """Every per-layer metric that spans alone determine.

    ``cycle`` holds the folded spans of one measured cycle and ``setup``
    those of one traced set-up; only the data-generation and knowledge-graph
    build times read the set-up, because those two layers work only there
    on some workloads.  Serving, byte and counter metrics are filled in by
    the workload.
    """
    table = span_table(cycle)

    def self_s(*names: str) -> float:
        return sum(table.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    def total_s(events: list[dict], name: str) -> float:
        return sum(event["duration"] for event in events if event["name"] == name)

    site_rounds = [event["duration"] for event in cycle if event["name"] == "federated.site_round"]
    rounds = calls("federated.round")
    by_id = {event["span_id"]: event for event in cycle}

    def in_round(event: dict) -> bool:
        node = by_id.get(event["parent_id"])
        while node is not None and node["name"] != "federated.round":
            node = by_id.get(node["parent_id"])
        return node is not None

    shared_bytes = sum(
        event["attrs"].get("shared_bytes", 0)
        for event in cycle
        if event["name"] == "federated.encode" and in_round(event)
    )
    return {
        "engine.epochs": calls("engine.epoch"),
        "engine.loop.self_s": self_s("engine.run", "engine.epoch"),
        "core.step.calls": calls("core.step"),
        "core.step.self_s": self_s("core.step"),
        "core.generator.forward_s": self_s("core.generator.forward"),
        "core.generator.backward_s": self_s("core.generator.backward"),
        "core.discriminator.forward_s": self_s("core.discriminator.forward"),
        "core.discriminator.backward_s": self_s("core.discriminator.backward"),
        "core.condition_penalty_s": self_s("core.condition_penalty"),
        "core.kg.train_step_s": self_s("core.kg.train_step"),
        "core.kg.generator_loss_s": self_s("core.kg.generator_loss"),
        "core.kg.valid_set_loss_s": self_s("core.kg.valid_set_loss"),
        "core.fit.self_s": self_s("core.fit"),
        "core.generate.self_s": self_s("core.sample", "core.generate"),
        "neural.optimizer.step_s": self_s("neural.optimizer.step"),
        "neural.optimizer.calls": calls("neural.optimizer.step"),
        "neural.loss_s": self_s("neural.loss"),
        "tabular.sampler.sample_s": self_s("tabular.sampler.sample"),
        "tabular.sampler.calls": calls("tabular.sampler.sample"),
        "tabular.sampler.conditions_s": self_s("tabular.sampler.conditions"),
        "tabular.transformer.transform_s": self_s("tabular.transformer.transform"),
        "tabular.transformer.transform_calls": calls("tabular.transformer.transform"),
        "tabular.transformer.harden_s": self_s("tabular.transformer.harden"),
        "tabular.transformer.inverse_transform_s": self_s("tabular.transformer.inverse_transform"),
        "tabular.transformer.fit_s": self_s("tabular.transformer.fit"),
        "knowledge.validity_mask_s": self_s("knowledge.validity_mask"),
        "knowledge.validity_mask_rows": sum(
            event["attrs"].get("rows", 0)
            for event in cycle
            if event["name"] == "knowledge.validity_mask"
        ),
        "knowledge.build_kg_s": total_s(setup + cycle, "knowledge.build_kg"),
        "datasets.load_s": total_s(setup + cycle, "datasets.load"),
        "federated.encode_s": self_s("federated.encode"),
        "federated.decode_s": self_s("federated.decode"),
        "federated.aggregate_s": self_s("federated.aggregate"),
        "federated.round.self_s": self_s("federated.round"),
        "federated.site_round_p50_s": median(site_rounds) if site_rounds else 0.0,
        "federated.site_round_max_s": max(site_rounds, default=0.0),
        "runtime.map_tasks_s": total_s(cycle, "runtime.map_tasks"),
        "runtime.dispatch_overhead_s": _dispatch_overhead(cycle),
        "runtime.install_bytes": sum(
            event["attrs"].get("bytes", 0) for event in cycle if event["name"] == "runtime.install"
        ),
        "runtime.shared_bytes_per_round": shared_bytes / rounds if rounds else 0.0,
        **{name: 0.0 for name in WORKLOAD_FILLED},
    }


#: Per-layer metrics the workloads fill in from counters, pickled payloads
#: and the serving attribution; zero where a workload leaves a layer idle.
WORKLOAD_FILLED = (
    "federated.sites_dropped",
    "federated.bytes_per_round",
    "runtime.task_bytes_per_round",
    "runtime.tasks_failed",
    "runtime.task_retries",
    "runtime.respawns",
    "serve.admit_ms",
    "serve.queue_wait_ms",
    "serve.sample_batch_ms",
    "serve.requests_per_dispatch",
    "serve.wire_encode_ms",
    "serve.client_decode_ms",
    "serve.http_other_ms",
    "serve.rejected",
    "serve.timeouts",
    "serve.errors",
    "serve.generator_lag_ms",
    "trace.coverage",
    "trace.overhead_s",
    "trace.spans",
)


def _dispatch_overhead(events: list[dict]) -> float:
    """Process-pool dispatch cost: ``map_tasks`` wall minus its critical path.

    The critical path of one ``map_tasks`` call is the busiest worker's
    summed ``federated.site_round`` time; what remains of the call's wall
    is encode/pickle/queue/collect overhead plus idle worker time.
    """
    busy: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for event in events:
        if event["name"] == "federated.site_round":
            busy[event["parent_id"]][event["pid"]] += event["duration"]
    overhead = 0.0
    for event in events:
        if event["name"] == "runtime.map_tasks" and event["span_id"] in busy:
            overhead += event["duration"] - max(busy[event["span_id"]].values())
    return overhead
