"""The federated server: round orchestration, aggregation, evaluation.

:class:`FederatedServer` drives the classic synchronous FL loop the paper's
future-work section sketches for distributed NIDS: broadcast the global
detector, let each selected device train locally on traffic it cannot share,
aggregate the updates (optionally through simulated secure aggregation and a
client-level DP mechanism) and repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.federated.aggregation import (
    SecureAggregationSession,
    fedavg_aggregate,
    median_aggregate,
    safe_mean,
    trimmed_mean_aggregate,
)
from repro.federated.client import (
    ClientRoundTask,
    ClientUpdate,
    FederatedClient,
    run_client_round,
)
from repro.federated.dp import DPFedAvgConfig, DPFedAvgMechanism
from repro.federated.parameters import StateCodec, StateDict, copy_state, state_add, state_scale
from repro.neural.network import Sequential
from repro.runtime import Executor, map_with_quorum, resolve_executor

__all__ = ["FederatedRound", "FederatedHistory", "FederatedServer"]

#: Aggregation rules selectable by name.
AGGREGATORS: dict[str, Callable[..., StateDict]] = {
    "fedavg": fedavg_aggregate,
    "trimmed_mean": trimmed_mean_aggregate,
    "median": median_aggregate,
}


class _ResidentTransport:
    """Parent-side bookkeeping of the resident-state round transport.

    Installed once per server/executor pair: every client (its partition
    and config) plus the shared :class:`StateCodec`, one broadcast buffer
    for the flattened global state and one ``(clients, total_params)``
    matrix the workers write their flattened updates into.  Under the
    process executor all four live in shared memory, so a round's
    parameter traffic never touches the task pipe; under serial/thread
    executors the refs resolve to the parent's own objects and arrays.
    """

    def __init__(
        self, executor: Executor, clients: list[FederatedClient], template: StateDict
    ) -> None:
        self.executor = executor
        self.codec = StateCodec(template)
        self.codec_ref = executor.install(self.codec)
        self.client_refs = [executor.install(client) for client in clients]
        # Buffers inherit the codec's transport dtype: float32 models ship
        # (and shared-memory map) half the bytes per round.
        self.global_buffer = executor.shared_array((self.codec.dim,), dtype=self.codec.dtype)
        self.update_buffer = executor.shared_array(
            (len(clients), self.codec.dim), dtype=self.codec.dtype
        )

    def close(self) -> None:
        for ref in self.client_refs:
            self.executor.evict(ref)
        self.client_refs = []
        self.executor.evict(self.codec_ref)
        self.global_buffer.close()
        self.update_buffer.close()


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
        aggregator: str = "fedavg",
        client_fraction: float = 1.0,
        server_lr: float = 1.0,
        dp_config: DPFedAvgConfig | None = None,
        secure_aggregation: bool = False,
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
        aggregator:
            ``"fedavg"`` (example-weighted), ``"trimmed_mean"`` or ``"median"``.
        client_fraction:
            Fraction of clients selected per round (at least one is always
            selected).
        server_lr:
            Scale applied to the aggregated update before it is added to the
            global model (1.0 = plain FedAvg).
        dp_config:
            When given, client updates are clipped and the averaged update is
            noised per DP-FedAvg; the spent epsilon is reported per round.
        secure_aggregation:
            Route updates through the simulated pairwise-masking protocol.
            Only meaningful with the unweighted aggregators; with FedAvg the
            weighting is applied before masking.
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
        if aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {aggregator!r}; options: {sorted(AGGREGATORS)}")
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
        self.aggregator = aggregator
        self.client_fraction = client_fraction
        self.server_lr = server_lr
        self.secure_aggregation = secure_aggregation
        self.executor = resolve_executor(executor)
        self.rng = np.random.default_rng(seed)

        self.global_model = model_fn()
        self.global_state: StateDict = self.global_model.state_dict()
        self.dp_mechanism = DPFedAvgMechanism(dp_config, rng=self.rng) if dp_config else None
        self.history = FederatedHistory()
        self._transport_state: _ResidentTransport | None = None

    def release_transport(self) -> None:
        """Release the resident round transport but keep the executor open.

        For servers sharing a caller-owned executor (the federated NIDS
        simulation runs several servers over one pool): frees the installed
        clients and shared buffers without shutting the workers down.
        """
        if self._transport_state is not None:
            self._transport_state.close()
            self._transport_state = None

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

    def _ensure_transport(self) -> _ResidentTransport:
        """Install clients / codec / buffers on the first round."""
        if self._transport_state is None:
            self._transport_state = _ResidentTransport(
                self.executor, self.clients, self.global_state
            )
        return self._transport_state

    def run_round(
        self,
        eval_features: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
    ) -> FederatedRound:
        """One synchronous round: select, train locally, aggregate, update.

        Local training is fanned out through the server's executor.  Each
        participant is addressed by its installed ref and the round ships
        only a :class:`ClientRoundTask` (refs + a round seed spawned here,
        before dispatch); the broadcast parameters and the update matrix
        travel through shared buffers.  Serial, thread and process
        execution run exactly the same code on exactly the same streams.
        """
        indices = self._select_indices()
        transport = self._ensure_transport()
        codec = transport.codec
        codec.encode(self.global_state, out=transport.global_buffer.array)
        tasks = [
            ClientRoundTask(
                client=transport.client_refs[index],
                codec=transport.codec_ref,
                global_params=transport.global_buffer.ref(),
                update_out=transport.update_buffer.ref(slot),
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
        # Workers leave their flattened updates in the shared matrix; decode
        # (copy) each surviving row back into a state dictionary.
        updates: list[ClientUpdate] = []
        for slot, update in survivors:
            update.update = codec.decode(
                np.array(transport.update_buffer.array[slot], copy=True)
            )
            updates.append(update)

        if self.dp_mechanism is not None:
            for update in updates:
                update.update = self.dp_mechanism.clip_update(update.update)

        aggregated = self._aggregate(updates)

        if self.dp_mechanism is not None:
            aggregated = self.dp_mechanism.noise_average(aggregated, n_clients=len(updates))
            self.dp_mechanism.record_round(sample_rate=len(updates) / len(self.clients))

        self.global_state = state_add(
            self.global_state, state_scale(aggregated, self.server_lr)
        )
        self.global_model.load_state_dict(copy_state(self.global_state))

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
    def _aggregate(self, updates: list[ClientUpdate]) -> StateDict:
        states = [update.update for update in updates]
        if self.secure_aggregation:
            # Weight before masking so the masked sum already reflects FedAvg
            # weights, then divide by the total weight after unmasking.
            weights = (
                [float(update.n_examples) for update in updates]
                if self.aggregator == "fedavg"
                else [1.0] * len(updates)
            )
            total_weight = sum(weights)
            session = SecureAggregationSession(
                client_ids=[update.client_id for update in updates],
                template=states[0],
                seed=int(self.rng.integers(0, 2**31 - 1)),
            )
            for update, weight in zip(updates, weights):
                session.submit(update.client_id, state_scale(update.update, weight))
            return state_scale(session.aggregate(), 1.0 / total_weight)

        if self.aggregator == "fedavg":
            return AGGREGATORS["fedavg"](states, [float(u.n_examples) for u in updates])
        return AGGREGATORS[self.aggregator](states)

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
