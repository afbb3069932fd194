"""End-to-end federated NIDS simulation.

Complements :class:`repro.distributed.simulation.DistributedNIDSSimulation`
(which shares synthetic *rows*) with the weight-sharing alternative the paper
lists as future work: the devices jointly train a single neural detector by
federated averaging, never exchanging traffic at all.  The simulation reports
four strategies on the same real test split:

* ``local_only`` -- mean accuracy of per-device detectors,
* ``federated`` -- FedAvg-trained global detector,
* ``federated_dp`` -- the same with client-level DP-FedAvg (optional),
* ``centralised`` -- the pool-all-raw-data upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import DatasetBundle
from repro.federated.client import FederatedClient
from repro.federated.dp import DPFedAvgConfig
from repro.federated.partition import label_skew_partition
from repro.federated.server import FederatedServer
from repro.neural.layers import Dense, ReLU
from repro.neural.network import Sequential
from repro.nids.features import TabularFeaturizer
from repro.nids.metrics import accuracy_score, f1_score
from repro.runtime import Executor, map_with_quorum, resolve_executor
from repro.runtime.state import StateRef
from repro.tabular.split import train_test_split

__all__ = ["DetectorFactory", "FederatedNIDSResult", "FederatedNIDSSimulation"]


@dataclass(frozen=True)
class DetectorFactory:
    """Picklable factory for the shared detector architecture.

    The federated runtime ships clients to worker processes, so the model
    factory every client carries must survive pickling -- a plain dataclass
    of hyper-parameters does, where the closure the simulation previously
    built did not.

    ``dtype`` selects the detector's parameter precision (see
    ``docs/precision.md``): float32 detectors halve the parameter bytes each
    federated round moves, and initialisation draws in float64 before the
    one rounding cast, so a float32 detector's init is the float64 init
    rounded once.
    """

    n_features: int
    n_classes: int
    hidden_dims: tuple[int, ...]
    seed: int
    dtype: str = "float64"

    def __call__(self) -> Sequential:
        rng = np.random.default_rng(self.seed)
        dtype = np.dtype(self.dtype)
        layers: list = []
        width = self.n_features
        for hidden in self.hidden_dims:
            layers.append(Dense(width, hidden, rng=rng, init="he", dtype=dtype))
            layers.append(ReLU())
            width = hidden
        layers.append(Dense(width, self.n_classes, rng=rng, init="glorot", dtype=dtype))
        network = Sequential(layers)
        network.consolidate()
        return network


@dataclass
class _SoloTask:
    """Train one client alone for the local-only baseline (executor unit).

    The client rides as a resident-state ref and the evaluation matrices
    (identical for every task) as one shared ref installed once, so no task
    pickles the test set.
    """

    client: StateRef
    model_fn: DetectorFactory
    num_rounds: int
    seed: int
    eval_set: StateRef


def _run_solo_task(task: _SoloTask) -> tuple[str, float, float]:
    """Module-level worker: full solo training of one client, then eval."""
    client: FederatedClient = task.client.resolve()
    test_features, test_labels = task.eval_set.resolve()
    server = FederatedServer(task.model_fn, [client], seed=task.seed)
    server.run(task.num_rounds)
    predictions = server.predict(test_features)
    return (
        client.client_id,
        accuracy_score(test_labels, predictions),
        f1_score(test_labels, predictions),
    )


@dataclass
class FederatedNIDSResult:
    """Accuracy / macro-F1 of each strategy plus the DP budget if applicable."""

    local_only: float
    federated: float
    centralised: float
    local_only_f1: float
    federated_f1: float
    centralised_f1: float
    federated_dp: float | None = None
    federated_dp_f1: float | None = None
    epsilon: float | None = None
    per_client_local: dict[str, float] = field(default_factory=dict)
    round_accuracies: list[float] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [
            f"local-only={self.local_only:.3f}",
            f"federated={self.federated:.3f}",
            f"centralised={self.centralised:.3f}",
        ]
        if self.federated_dp is not None:
            parts.append(f"federated-DP={self.federated_dp:.3f} (eps={self.epsilon:.2f})")
        return "accuracy: " + "  ".join(parts)


class FederatedNIDSSimulation:
    """Compares local-only, federated and centralised detector training."""

    def __init__(
        self,
        bundle: DatasetBundle,
        num_clients: int = 4,
        skew: float = 0.6,
        hidden_dims: tuple[int, ...] = (64, 32),
        num_rounds: int = 15,
        local_epochs: int = 2,
        learning_rate: float = 0.1,
        batch_size: int = 64,
        client_fraction: float = 1.0,
        dp_config: DPFedAvgConfig | None = None,
        test_fraction: float = 0.25,
        seed: int = 0,
        executor: Executor | str | int | None = None,
        min_clients: int = 1,
        task_timeout: float | None = None,
        task_retries: int = 0,
        retry_backoff: float = 0.0,
    ) -> None:
        if num_rounds <= 0 or local_epochs <= 0:
            raise ValueError("num_rounds and local_epochs must be positive")
        if min_clients < 1:
            raise ValueError("min_clients must be at least 1")
        self.bundle = bundle
        self.num_clients = num_clients
        self.skew = skew
        self.hidden_dims = hidden_dims
        self.num_rounds = num_rounds
        self.local_epochs = local_epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.client_fraction = client_fraction
        self.dp_config = dp_config
        self.test_fraction = test_fraction
        self.seed = seed
        self.executor = resolve_executor(executor)
        #: Resilience knobs forwarded to the multi-client servers below
        #: (quorum / per-round deadline / bounded replays, see the server).
        self.min_clients = min_clients
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.retry_backoff = retry_backoff

    def close(self) -> None:
        """Release the executor's worker pool (no-op for the serial one)."""
        self.executor.close()

    def __enter__(self) -> "FederatedNIDSSimulation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _model_fn(self, n_features: int, n_classes: int) -> DetectorFactory:
        return DetectorFactory(
            n_features=n_features,
            n_classes=n_classes,
            hidden_dims=tuple(self.hidden_dims),
            seed=self.seed,
        )

    def _make_clients(
        self,
        partitions,
        featurizer: TabularFeaturizer,
        model_fn,
        proximal_mu: float = 0.0,
    ) -> list[FederatedClient]:
        clients = []
        for i, part in enumerate(partitions):
            X, y = featurizer.transform(part)
            clients.append(
                FederatedClient(
                    client_id=f"device-{i}",
                    features=X,
                    labels=y,
                    model_fn=model_fn,
                    learning_rate=self.learning_rate,
                    batch_size=self.batch_size,
                    local_epochs=self.local_epochs,
                    proximal_mu=proximal_mu,
                    seed=self.seed + i,
                )
            )
        return clients

    # ------------------------------------------------------------------ #
    def run(self) -> FederatedNIDSResult:
        """Run the full comparison and return the result summary."""
        rng = np.random.default_rng(self.seed)
        train, test = train_test_split(
            self.bundle.table,
            test_fraction=self.test_fraction,
            rng=rng,
            stratify_column=self.bundle.label_column,
        )
        partitions = label_skew_partition(
            train,
            label_column=self.bundle.label_column,
            num_clients=self.num_clients,
            rng=rng,
            skew=self.skew,
        )

        # The featurizer only needs the schema's category lists plus scaling
        # statistics; fitting it on the training split is the usual
        # "public calibration data" simplification and leaks nothing but
        # per-column means and standard deviations.
        featurizer = TabularFeaturizer(self.bundle.label_column).fit(train)
        X_test, y_test = featurizer.transform(test)
        X_train, y_train = featurizer.transform(train)
        model_fn = self._model_fn(X_train.shape[1], featurizer.n_classes)

        # Local-only baseline: every client trains alone from scratch.  The
        # solo runs are independent, so they fan out over the executor as
        # whole-training work units (one task = all rounds of one client);
        # clients ride as resident refs and the (identical) evaluation
        # matrices are installed once for all tasks.
        clients = self._make_clients(partitions, featurizer, model_fn)
        eval_ref = self.executor.install((X_test, y_test))
        client_refs = [self.executor.install(client) for client in clients]
        solo_tasks = [
            _SoloTask(
                client=client_ref,
                model_fn=model_fn,
                num_rounds=self.num_rounds,
                seed=self.seed,
                eval_set=eval_ref,
            )
            for client_ref in client_refs
        ]
        per_client_local: dict[str, float] = {}
        local_f1: list[float] = []
        try:
            # The solo baseline degrades like a round: a client whose whole
            # solo training fails (after retries) is simply left out of the
            # local-only mean, subject to the same quorum.
            survivors, _ = map_with_quorum(
                self.executor,
                _run_solo_task,
                solo_tasks,
                [client.client_id for client in clients],
                min_survivors=self.min_clients,
                timeout=self.task_timeout,
                retries=self.task_retries,
                backoff=self.retry_backoff,
                unit="client",
            )
            for _, (client_id, accuracy, f1) in survivors:
                per_client_local[client_id] = accuracy
                local_f1.append(f1)
        finally:
            for client_ref in client_refs:
                self.executor.evict(client_ref)
            self.executor.evict(eval_ref)
        local_only = float(np.mean(list(per_client_local.values())))

        # Federated training (FedAvg); client rounds share the executor.
        clients = self._make_clients(partitions, featurizer, model_fn)
        server = FederatedServer(
            model_fn,
            clients,
            client_fraction=self.client_fraction,
            seed=self.seed,
            executor=self.executor,
            min_clients=self.min_clients,
            task_timeout=self.task_timeout,
            task_retries=self.task_retries,
            retry_backoff=self.retry_backoff,
        )
        try:
            history = server.run(self.num_rounds, eval_features=X_test, eval_labels=y_test)
            federated_predictions = server.predict(X_test)
        finally:
            server.release_transport()

        # Federated training with DP (optional).
        federated_dp = None
        federated_dp_f1 = None
        epsilon = None
        if self.dp_config is not None:
            dp_clients = self._make_clients(partitions, featurizer, model_fn)
            dp_server = FederatedServer(
                model_fn,
                dp_clients,
                client_fraction=self.client_fraction,
                dp_config=self.dp_config,
                seed=self.seed,
                executor=self.executor,
                min_clients=self.min_clients,
                task_timeout=self.task_timeout,
                task_retries=self.task_retries,
                retry_backoff=self.retry_backoff,
            )
            try:
                dp_server.run(self.num_rounds)
                dp_predictions = dp_server.predict(X_test)
            finally:
                dp_server.release_transport()
            federated_dp = accuracy_score(y_test, dp_predictions)
            federated_dp_f1 = f1_score(y_test, dp_predictions)
            epsilon = dp_server.epsilon()

        # Centralised upper bound: one model trained on the pooled raw data.
        central_client = FederatedClient(
            client_id="central",
            features=X_train,
            labels=y_train,
            model_fn=model_fn,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            local_epochs=self.local_epochs,
            seed=self.seed,
        )
        central_server = FederatedServer(model_fn, [central_client], seed=self.seed)
        central_server.run(self.num_rounds)
        central_predictions = central_server.predict(X_test)

        return FederatedNIDSResult(
            local_only=local_only,
            federated=accuracy_score(y_test, federated_predictions),
            centralised=accuracy_score(y_test, central_predictions),
            local_only_f1=float(np.mean(local_f1)),
            federated_f1=f1_score(y_test, federated_predictions),
            centralised_f1=f1_score(y_test, central_predictions),
            federated_dp=federated_dp,
            federated_dp_f1=federated_dp_f1,
            epsilon=epsilon,
            per_client_local=per_client_local,
            round_accuracies=history.accuracies(),
        )
