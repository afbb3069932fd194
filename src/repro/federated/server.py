"""The federated server: round orchestration, aggregation, evaluation.

:class:`FederatedServer` drives the classic synchronous FL loop the paper's
future-work section sketches for distributed NIDS: broadcast the global
detector, let each selected device train locally on traffic it cannot share,
federated-average the updates (optionally through a client-level DP
mechanism) and repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.federated.aggregation import safe_mean
from repro.federated.client import ClientRoundTask, FederatedClient, run_client_round
from repro.federated.dp import DPFedAvgConfig, DPFedAvgMechanism
from repro.federated.parameters import FlatChannel, StateDict, weighted_average
from repro.neural.network import Sequential
from repro.runtime import Executor, map_with_quorum, resolve_executor
from repro.runtime.state import StateRef

__all__ = ["FederatedRound", "FederatedHistory", "FederatedServer"]

@dataclass
class FederatedRound:
    """Summary of one federated round."""

    round_index: int
    participants: list[str]
    mean_client_loss: float
    mean_client_accuracy: float
    global_accuracy: float | None = None
    epsilon: float | None = None
    #: Clients selected for the round whose work units failed (crashed,
    #: timed out, dropped) after exhausting their retries.  The round
    #: aggregated over the surviving quorum only.
    dropped: list[str] = field(default_factory=list)


@dataclass
class FederatedHistory:
    """Per-round traces of a federated run."""

    rounds: list[FederatedRound] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def final_accuracy(self) -> float | None:
        for round_info in reversed(self.rounds):
            if round_info.global_accuracy is not None:
                return round_info.global_accuracy
        return None

    def accuracies(self) -> list[float]:
        return [r.global_accuracy for r in self.rounds if r.global_accuracy is not None]


class FederatedServer:
    """Synchronous federated-averaging server over :class:`FederatedClient` s."""

    def __init__(
        self,
        model_fn: Callable[[], Sequential],
        clients: list[FederatedClient],
        client_fraction: float = 1.0,
        server_lr: float = 1.0,
        dp_config: DPFedAvgConfig | None = None,
        seed: int = 0,
        executor: Executor | str | int | None = None,
        min_clients: int = 1,
        task_timeout: float | None = None,
        task_retries: int = 0,
        retry_backoff: float = 0.0,
    ) -> None:
        """Parameters
        ----------
        model_fn:
            The shared architecture factory (same one the clients use).
        client_fraction:
            Fraction of clients selected per round (at least one is always
            selected).
        server_lr:
            Scale applied to the aggregated update before it is added to the
            global model (1.0 = plain FedAvg).
        dp_config:
            When given, client updates are clipped and the averaged update is
            noised per DP-FedAvg; the spent epsilon is reported per round.
        executor:
            How client rounds run: ``None``/``"serial"`` (default) trains
            participants in-process, ``int N > 1`` / ``"process[:N]"`` fans
            them out over a process pool, ``"thread[:N]"`` over a thread
            pool (see :func:`repro.runtime.resolve_executor`).  Clients are
            installed into the execution plane once; a round ships only
            refs, round seeds and flattened parameter buffers.  Seeded
            results are bit-identical in every case.
        min_clients:
            Quorum: the minimum number of client rounds that must survive
            (after retries) for a round to aggregate.  Fewer survivors
            raise :class:`~repro.runtime.QuorumError` and leave the global
            state untouched.  Dropped clients are recorded per round and
            re-weighted away exactly like ``client_fraction``
            non-participants.
        task_timeout:
            Per-client-round deadline in seconds (``None`` = unbounded).
        task_retries:
            How many times a failed client round is replayed before the
            client is dropped from the round.  Replays re-run the same
            task with the same parent-spawned round seed, so a
            recovered round is bit-identical to a fault-free one.
        retry_backoff:
            Base seconds of the exponential backoff between replays.
        """
        if not clients:
            raise ValueError("need at least one client")
        if not 0.0 < client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        if server_lr <= 0:
            raise ValueError("server_lr must be positive")
        if min_clients < 1:
            raise ValueError("min_clients must be at least 1")
        if task_retries < 0:
            raise ValueError("task_retries must be non-negative")
        self.min_clients = min_clients
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.retry_backoff = retry_backoff
        self.model_fn = model_fn
        self.clients = list(clients)
        self.client_fraction = client_fraction
        self.server_lr = server_lr
        self.executor = resolve_executor(executor)
        self.rng = np.random.default_rng(seed)

        self.global_model = model_fn()
        self.global_state: StateDict = self.global_model.state_dict()
        self.dp_mechanism = DPFedAvgMechanism(dp_config, rng=self.rng) if dp_config else None
        self.history = FederatedHistory()
        # The round transport, built on the first round: every client
        # installed once, plus one parameter channel.
        self._client_refs: list[StateRef] = []
        self._channel: FlatChannel | None = None

    def release_transport(self) -> None:
        """Release the resident round transport but keep the executor open.

        For servers sharing a caller-owned executor (the federated NIDS
        simulation runs several servers over one pool): frees the installed
        clients and shared buffers without shutting the workers down.
        """
        for ref in self._client_refs:
            self.executor.evict(ref)
        self._client_refs = []
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def close(self) -> None:
        """Release the round transport and the executor's worker pool."""
        self.release_transport()
        self.executor.close()

    def __enter__(self) -> "FederatedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _select_indices(self) -> list[int]:
        """Sample the participant indices of one round (sorted)."""
        count = max(1, int(round(self.client_fraction * len(self.clients))))
        indices = self.rng.choice(len(self.clients), size=count, replace=False)
        return sorted(int(i) for i in indices)

    def _ensure_transport(self) -> FlatChannel:
        """Install the clients and open the parameter channel on the first round."""
        if self._channel is None:
            self._client_refs = [self.executor.install(client) for client in self.clients]
            self._channel = FlatChannel(self.executor, self.global_state)
        return self._channel

    def run_round(
        self,
        eval_features: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
    ) -> FederatedRound:
        """One synchronous round: select, train locally, aggregate, update.

        Local training is fanned out through the server's executor.  Each
        participant is addressed by its installed ref and the round ships
        only a :class:`ClientRoundTask` (refs + a round seed spawned here,
        before dispatch); the broadcast parameters and the updates travel
        through the server's :class:`FlatChannel`.  Serial, thread and process
        execution run exactly the same code on exactly the same streams.
        """
        indices = self._select_indices()
        channel = self._ensure_transport()
        channel.publish(self.global_state, len(indices))
        tasks = [
            ClientRoundTask(
                client=self._client_refs[index],
                params=channel.slot(slot),
                round_seed=self.clients[index].spawn_round_seed(),
            )
            for slot, index in enumerate(indices)
        ]
        # Survivors come back as (slot, update) pairs in submission order;
        # fewer than min_clients raise QuorumError before any state changes.
        survivors, dropped = map_with_quorum(
            self.executor,
            run_client_round,
            tasks,
            [self.clients[i].client_id for i in indices],
            min_survivors=self.min_clients,
            timeout=self.task_timeout,
            retries=self.task_retries,
            backoff=self.retry_backoff,
            unit="client",
        )
        # Workers leave their flattened updates in the channel's result
        # matrix; the surviving rows are clipped and averaged where they are.
        updates = [update for _slot, update in survivors]
        rows = channel.rows([slot for slot, _update in survivors])
        if self.dp_mechanism is not None:
            self.dp_mechanism.clip_rows(rows, channel.codec)

        aggregated = weighted_average(rows, [float(update.n_examples) for update in updates])

        if self.dp_mechanism is not None:
            aggregated = self.dp_mechanism.noise_average(aggregated, n_clients=len(updates))
            self.dp_mechanism.record_round(sample_rate=len(updates) / len(self.clients))

        # The broadcast vector still holds the round's global state.
        self.global_state = channel.codec.decode(channel.broadcast + self.server_lr * aggregated)
        self.global_model.load_state_dict(self.global_state)

        global_accuracy = None
        if eval_features is not None and eval_labels is not None:
            global_accuracy = self.evaluate(eval_features, eval_labels)

        round_info = FederatedRound(
            round_index=self.history.n_rounds,
            participants=[u.client_id for u in updates],
            mean_client_loss=safe_mean([u.local_loss for u in updates]),
            mean_client_accuracy=safe_mean(
                [u.metrics["local_accuracy"] for u in updates if "local_accuracy" in u.metrics]
            ),
            global_accuracy=global_accuracy,
            epsilon=self.dp_mechanism.epsilon() if self.dp_mechanism else None,
            dropped=dropped,
        )
        self.history.rounds.append(round_info)
        return round_info

    def run(
        self,
        num_rounds: int,
        eval_features: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
    ) -> FederatedHistory:
        """Run ``num_rounds`` rounds and return the history."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        for _ in range(num_rounds):
            self.run_round(eval_features, eval_labels)
        return self.history

    # ------------------------------------------------------------------ #
    def _model_input(self, features: np.ndarray) -> np.ndarray:
        """``features`` in the global model's dtype (float64 when it has none).

        Held-out features arrive float64 from the featuriser; a float32
        detector rejects them, so they are rounded once at this boundary,
        the same way :class:`FederatedClient` casts its partition.
        """
        dtype = getattr(self.global_model, "dtype", None)
        return np.asarray(features, dtype=np.float64 if dtype is None else dtype)

    def evaluate(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of the current global model on a labelled set."""
        predictions = self.predict(features)
        return float((predictions == np.asarray(labels, dtype=int)).mean())

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class predictions of the current global model."""
        logits = self.global_model.forward(self._model_input(features), training=False)
        return logits.argmax(axis=1)

    def epsilon(self) -> float | None:
        """Total DP budget spent so far (None when DP is disabled)."""
        return self.dp_mechanism.epsilon() if self.dp_mechanism else None
