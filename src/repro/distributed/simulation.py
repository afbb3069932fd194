"""End-to-end simulation of the distributed NIDS deployment.

``DistributedNIDSSimulation`` partitions a dataset bundle across several
device nodes (optionally with a non-IID skew, so each node observes a
different mix of events -- the realistic setting the paper targets), trains
a local synthesizer per node, pools the synthetic shares at the coordinator
and reports three detection accuracies on a common real test set:

* ``local_only`` -- mean accuracy of per-node detectors trained on their own
  (small, skewed) local data;
* ``synthetic_sharing`` -- the coordinator's detector trained on the pooled
  synthetic shares (the paper's proposal);
* ``centralised_real`` -- the upper bound where raw data could be pooled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import Synthesizer
from repro.core.config import KiNETGANConfig
from repro.core.synthesizer import KiNETGAN
from repro.datasets.base import DatasetBundle
from repro.distributed.coordinator import Coordinator
from repro.distributed.node import DeviceNode
from repro.distributed.protocol import SyntheticShare
from repro.nids.features import TabularFeaturizer
from repro.nids.metrics import accuracy_score, f1_score
from repro.nids.pipeline import make_classifier
from repro.runtime import Executor, map_with_quorum, resolve_executor, spawn_seeds
from repro.runtime.state import StateRef
from repro.tabular.split import train_test_split
from repro.tabular.table import Table

__all__ = ["SimulationResult", "DistributedNIDSSimulation"]


@dataclass
class _ResidentNodeTask:
    """Everything one device node does in a run, as one executor work unit.

    A node's pipeline (train the local detector, evaluate it, fit the local
    synthesizer, publish a synthetic share) is independent of every other
    node once its share seed is fixed, so the whole pipeline fans out as a
    single task.  The node pipeline and the test table (shared by *every*
    node) are installed into the execution plane once; the task carries
    only refs, the classifier name, the share size and the share seed -- a
    child sequence spawned by the simulation in the parent process, which
    keeps serial and pooled runs bit-identical.
    """

    node: StateRef
    classifier: str
    share_size: int | None
    share_seed: np.random.SeedSequence
    test: StateRef


@dataclass
class _NodeResult:
    """What the coordinator needs back from one node's task."""

    node_id: str
    local_accuracy: float
    local_f1: float
    share: SyntheticShare


def _run_resident_node_task(task: _ResidentNodeTask) -> _NodeResult:
    """Module-level worker: local detector + synthesizer + share for one node."""
    node: DeviceNode = task.node.resolve()
    node.train_local_detector(task.classifier)
    metrics = node.evaluate_local_detector(task.test.resolve())
    node.fit_synthesizer()
    share = node.produce_share(task.share_size, rng=np.random.default_rng(task.share_seed))
    return _NodeResult(
        node_id=node.node_id,
        local_accuracy=metrics["accuracy"],
        local_f1=metrics["f1"],
        share=share,
    )


@dataclass
class SimulationResult:
    """Accuracies (and macro-F1) of the three deployment strategies."""

    local_only: float
    synthetic_sharing: float
    centralised_real: float
    local_only_f1: float = float("nan")
    synthetic_sharing_f1: float = float("nan")
    centralised_real_f1: float = float("nan")
    per_node_local: dict[str, float] = field(default_factory=dict)
    share_validity: dict[str, float | None] = field(default_factory=dict)
    #: Nodes whose pipeline failed (after retries); the run continued over
    #: the survivors and every aggregate above excludes the dead nodes.
    failed_nodes: list[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"accuracy: local-only={self.local_only:.3f}  "
            f"synthetic-sharing={self.synthetic_sharing:.3f}  "
            f"centralised-real={self.centralised_real:.3f} | "
            f"macro-F1: local-only={self.local_only_f1:.3f}  "
            f"synthetic-sharing={self.synthetic_sharing_f1:.3f}  "
            f"centralised-real={self.centralised_real_f1:.3f}"
        )


class DistributedNIDSSimulation:
    """Orchestrates nodes, coordinator and evaluation."""

    def __init__(
        self,
        bundle: DatasetBundle,
        num_nodes: int = 3,
        non_iid_skew: float = 0.5,
        classifier: str = "decision_tree",
        config: KiNETGANConfig | None = None,
        synthesizer_factory=None,
        test_fraction: float = 0.25,
        seed: int = 0,
        executor: Executor | str | int | None = None,
        min_nodes: int = 1,
        task_timeout: float | None = None,
        task_retries: int = 0,
        retry_backoff: float = 0.0,
    ) -> None:
        """Parameters
        ----------
        bundle:
            The dataset to distribute (lab IoT by default in the benchmarks).
        num_nodes:
            Number of device nodes.
        non_iid_skew:
            0.0 gives an IID split; towards 1.0 each node increasingly
            specialises in a subset of event labels.
        synthesizer_factory:
            Callable ``(seed) -> Synthesizer``; defaults to KiNETGAN with the
            given config.  With a process-pool executor the factory runs in
            the parent; only the constructed synthesizer must be picklable.
        executor:
            ``None``/``"serial"`` (default) runs nodes back-to-back in
            process; ``N > 1`` / ``"process[:N]"`` fans the per-node
            pipelines out over a process pool and ``"thread[:N]"`` over a
            thread pool (:func:`repro.runtime.resolve_executor`).  The node
            pipelines and the shared test table are installed into the
            execution plane once and dispatched as ref-only tasks.  Seeded
            results are bit-identical in every case.
        min_nodes:
            Quorum: how many node pipelines must survive (after
            ``task_retries`` replays under the ``task_timeout`` deadline)
            for the run to produce a result; dead nodes are marked in
            ``SimulationResult.failed_nodes`` and excluded from every
            aggregate, and fewer survivors than the quorum raise
            :class:`~repro.runtime.QuorumError`.
        """
        if num_nodes < 2:
            raise ValueError("num_nodes must be at least 2")
        if min_nodes < 1:
            raise ValueError("min_nodes must be at least 1")
        if task_retries < 0:
            raise ValueError("task_retries must be non-negative")
        if not 0.0 <= non_iid_skew < 1.0:
            raise ValueError("non_iid_skew must be in [0, 1)")
        self.bundle = bundle
        self.num_nodes = num_nodes
        self.non_iid_skew = non_iid_skew
        self.classifier = classifier
        self.config = config if config is not None else KiNETGANConfig()
        self.synthesizer_factory = synthesizer_factory
        self.test_fraction = test_fraction
        self.seed = seed
        self.executor = resolve_executor(executor)
        self.min_nodes = min_nodes
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.retry_backoff = retry_backoff

    def close(self) -> None:
        """Release the executor's worker pool (no-op for the serial one)."""
        self.executor.close()

    def __enter__(self) -> "DistributedNIDSSimulation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _make_synthesizer(self, seed: int) -> Synthesizer:
        if self.synthesizer_factory is not None:
            return self.synthesizer_factory(seed)
        return KiNETGAN(self.config.with_overrides(seed=seed))

    def partition(self, table: Table, rng: np.random.Generator) -> list[Table]:
        """Split ``table`` across nodes, optionally with label skew."""
        labels = table.column(self.bundle.label_column)
        label_values = list(dict.fromkeys(labels))
        assignments = np.zeros(table.n_rows, dtype=int)
        for i in range(table.n_rows):
            if rng.uniform() < self.non_iid_skew:
                # Skewed assignment: each label value has a "home" node.
                home = label_values.index(labels[i]) % self.num_nodes
                assignments[i] = home
            else:
                assignments[i] = rng.integers(0, self.num_nodes)
        partitions = []
        for node in range(self.num_nodes):
            indices = np.nonzero(assignments == node)[0]
            if len(indices) == 0:
                indices = rng.integers(0, table.n_rows, size=10)
            partitions.append(table.select_rows(indices))
        return partitions

    # ------------------------------------------------------------------ #
    def run(self, share_size: int | None = None) -> SimulationResult:
        """Run the full simulation and return the three-way comparison."""
        rng = np.random.default_rng(self.seed)
        train, test = train_test_split(
            self.bundle.table,
            test_fraction=self.test_fraction,
            rng=rng,
            stratify_column=self.bundle.label_column,
        )
        partitions = self.partition(train, rng)

        nodes: list[DeviceNode] = []
        for i, part in enumerate(partitions):
            node = DeviceNode(
                node_id=f"node-{i}",
                table=part,
                label_column=self.bundle.label_column,
                catalog=self.bundle.catalog,
                condition_columns=self._usable_condition_columns(part),
                synthesizer=self._make_synthesizer(self.seed + i),
                seed=self.seed + i,
            )
            nodes.append(node)

        # Every node's pipeline (local detector, synthesizer fit, synthetic
        # share) is one executor task; share seeds are spawned here, in the
        # parent, so the fan-out is deterministic under any executor.  The
        # pipelines and the shared test table are installed once and the
        # tasks carry refs only.
        share_seeds = spawn_seeds(self.seed, len(nodes))
        node_refs = [self.executor.install(node) for node in nodes]
        test_ref = self.executor.install(test)
        tasks = [
            _ResidentNodeTask(
                node=node_ref,
                classifier=self.classifier,
                share_size=share_size,
                share_seed=share_seed,
                test=test_ref,
            )
            for node_ref, share_seed in zip(node_refs, share_seeds)
        ]
        try:
            # Dead nodes are marked; fewer survivors than min_nodes raise.
            survivors, failed_nodes = map_with_quorum(
                self.executor,
                _run_resident_node_task,
                tasks,
                [node.node_id for node in nodes],
                min_survivors=self.min_nodes,
                timeout=self.task_timeout,
                retries=self.task_retries,
                backoff=self.retry_backoff,
                unit="node",
            )
        finally:
            for node_ref in node_refs:
                self.executor.evict(node_ref)
            self.executor.evict(test_ref)
        results = [result for _, result in survivors]

        # Local-only baseline (dead nodes excluded from every aggregate).
        per_node_local: dict[str, float] = {}
        per_node_f1: list[float] = []
        for result in results:
            per_node_local[result.node_id] = result.local_accuracy
            per_node_f1.append(result.local_f1)
        local_only = float(np.mean(list(per_node_local.values())))
        local_only_f1 = float(np.mean(per_node_f1))

        # Synthetic sharing through the coordinator.
        coordinator = Coordinator(
            label_column=self.bundle.label_column, classifier=self.classifier, seed=self.seed
        )
        share_validity: dict[str, float | None] = {}
        for result in results:
            share_validity[result.node_id] = result.share.validity_rate
            coordinator.receive(result.share)
        coordinator.train_global_detector()
        summary = coordinator.evaluate(test, per_node_accuracy=per_node_local)

        # Centralised-real upper bound.
        featurizer = TabularFeaturizer(self.bundle.label_column).fit(train)
        X_train, y_train = featurizer.transform(train)
        X_test, y_test = featurizer.transform(test)
        central = make_classifier(self.classifier, seed=self.seed)
        central.fit(X_train, y_train)
        central_predictions = central.predict(X_test)

        return SimulationResult(
            local_only=local_only,
            synthetic_sharing=summary.global_accuracy,
            centralised_real=accuracy_score(y_test, central_predictions),
            local_only_f1=local_only_f1,
            synthetic_sharing_f1=summary.global_f1,
            centralised_real_f1=f1_score(y_test, central_predictions),
            per_node_local=per_node_local,
            share_validity=share_validity,
            failed_nodes=failed_nodes,
        )

    def _usable_condition_columns(self, part: Table) -> list[str]:
        """Condition columns that have at least two observed values locally."""
        usable = []
        for name in self.bundle.condition_columns:
            if name in part.schema and len(part.value_counts(name)) >= 1:
                usable.append(name)
        return usable or None
