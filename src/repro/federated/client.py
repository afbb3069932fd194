"""The client side of federated detector training.

A :class:`FederatedClient` owns a private feature matrix / label vector (its
device's traffic, already featurised) and can run a local optimisation pass
starting from the globally broadcast parameters.  It supports plain FedAvg
local SGD and the FedProx proximal term, and reports the update
(``local - global``) together with its example count so the server can
weight contributions.

The local pass is a :class:`repro.engine.SupervisedStep` driven by the
shared :class:`repro.engine.TrainingEngine` -- the same loop machinery the
synthesizers train on -- with the FedProx term injected through the step's
``grad_hook``.

For the parallel runtime (:mod:`repro.runtime`) the client -- its private
partition and training config -- is installed into the execution plane
*once* with :meth:`repro.runtime.Executor.install`, and each round ships
only a :class:`ClientRoundTask` of refs plus the child
:class:`~numpy.random.SeedSequence` spawned *in the parent* just before
dispatch.  The parameters travel through the server's
:class:`~repro.federated.parameters.FlatChannel`: the task's
:class:`~repro.federated.parameters.FlatSlot` reads the broadcast global
state and stores the flattened update in the client's row of the round's
result matrix -- under the process executor both live in
:mod:`multiprocessing.shared_memory`, so a steady-state round pickles
nothing but refs and a seed.

``run_client_round`` is the module-level function a pool maps over;
because the child seed is fixed at spawn time, serial, thread and process
rounds are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine import SupervisedStep, TrainingEngine
from repro.federated.parameters import FlatSlot, StateDict, state_subtract
from repro.neural.losses import CrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import SGD
from repro.runtime.state import StateRef

__all__ = [
    "ClientUpdate",
    "ClientRoundTask",
    "FederatedClient",
    "run_client_round",
]


@dataclass
class ClientUpdate:
    """What a client sends back to the server after local training."""

    client_id: str
    update: StateDict
    n_examples: int
    local_loss: float
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_examples <= 0:
            raise ValueError("n_examples must be positive")


class FederatedClient:
    """A device holding private labelled traffic for detector training."""

    def __init__(
        self,
        client_id: str,
        features: np.ndarray,
        labels: np.ndarray,
        model_fn: Callable[[], Sequential],
        learning_rate: float = 0.05,
        batch_size: int = 64,
        local_epochs: int = 1,
        proximal_mu: float = 0.0,
        seed: int = 0,
    ) -> None:
        """Parameters
        ----------
        model_fn:
            Zero-argument factory producing the shared model architecture.
            Every client and the server must use the same factory so state
            dictionaries are exchangeable.
        proximal_mu:
            FedProx proximal coefficient; 0 recovers plain FedAvg local SGD.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=int)
        if len(features) == 0:
            raise ValueError(f"client {client_id!r} has no local examples")
        if len(features) != len(labels):
            raise ValueError("features and labels must have the same length")
        if learning_rate <= 0 or batch_size <= 0 or local_epochs <= 0:
            raise ValueError("learning_rate, batch_size and local_epochs must be positive")
        if proximal_mu < 0:
            raise ValueError("proximal_mu must be non-negative")
        self.client_id = client_id
        self.features = features
        self.labels = labels
        self.model_fn = model_fn
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.local_epochs = local_epochs
        self.proximal_mu = proximal_mu
        self.seed = seed
        # Each round consumes a child stream spawned from this sequence in
        # the parent process, so the randomness of round r is a pure function
        # of (seed, r) -- independent of which executor runs the round.
        self._seed_sequence = np.random.SeedSequence(seed)
        # The detector local rounds train, built on first use and loaded
        # with each round's broadcast (see :meth:`local_update`).
        self._model: Sequential | None = None

    def __getstate__(self) -> dict:
        # An installed copy builds its own resident detector.
        state = self.__dict__.copy()
        state["_model"] = None
        return state

    # ------------------------------------------------------------------ #
    @property
    def n_examples(self) -> int:
        return len(self.features)

    def label_distribution(self) -> dict[int, float]:
        """Share of each class in the local data (useful to inspect skew)."""
        values, counts = np.unique(self.labels, return_counts=True)
        total = counts.sum()
        return {int(v): float(c) / total for v, c in zip(values, counts)}

    # ------------------------------------------------------------------ #
    def spawn_round_seed(self) -> np.random.SeedSequence:
        """Spawn the seed of the next local round (call in the parent only)."""
        return self._seed_sequence.spawn(1)[0]

    def local_update(
        self, global_state: StateDict | FlatSlot, rng: np.random.Generator | None = None
    ) -> ClientUpdate:
        """Run local training from ``global_state`` and return the delta.

        ``global_state`` is a state dict, or a round's :class:`FlatSlot`:
        then the broadcast is copied straight into the resident detector
        and ``local - broadcast`` is written straight into the slot's
        result row (the returned ``update`` dict stays empty).  The
        detector is built once per client and reloaded every round; the
        factory's models draw no random numbers after construction, so
        reusing one moves no stream.

        ``rng`` defaults to a generator built from the next spawned round
        seed; a :class:`ClientRoundTask` passes its parent-spawned seed in
        explicitly.
        """
        if rng is None:
            rng = np.random.default_rng(self.spawn_round_seed())
        if self._model is None:
            self._model = self.model_fn()
        model = self._model
        if isinstance(global_state, FlatSlot):
            global_state.load_into(model.state_dict())
        else:
            model.load_state_dict(global_state)

        grad_hook = None
        if self.proximal_mu > 0:
            reference = [param.copy() for param, _ in model.parameters()]
            grad_hook = lambda m: self._add_proximal_gradient(m, reference)  # noqa: E731
        step = SupervisedStep(
            model=model,
            loss_fn=CrossEntropy(),
            optimizer=SGD(model.parameters(), lr=self.learning_rate),
            features=self._features_for(model),
            labels=self.labels,
            batch_size=self.batch_size,
            grad_hook=grad_hook,
        )
        engine = TrainingEngine(
            step,
            epochs=self.local_epochs,
            batch_size=self.batch_size,
            n_rows=self.n_examples,
            rng=rng,
        )
        engine.run()

        if isinstance(global_state, FlatSlot):
            global_state.store_delta(model.state_dict())
            update: StateDict = {}
        else:
            update = state_subtract(model.state_dict(), global_state)
        return ClientUpdate(
            client_id=self.client_id,
            update=update,
            n_examples=self.n_examples,
            local_loss=step.last_loss,
            metrics={"local_accuracy": self._local_accuracy(model)},
        )

    def evaluate(self, state: StateDict, features: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of the given parameters on an arbitrary labelled set."""
        model = self.model_fn()
        model.load_state_dict(state)
        features = np.asarray(features, dtype=getattr(model, "dtype", np.float64))
        predictions = model.forward(features, training=False)
        return float((predictions.argmax(axis=1) == np.asarray(labels, dtype=int)).mean())

    # ------------------------------------------------------------------ #
    def _features_for(self, model: Sequential) -> np.ndarray:
        """The local feature matrix in the model's dtype.

        Features are stored float64 (the featuriser's output); a float32
        detector rounds them once at this boundary, per round, so the
        stored partition stays exact.
        """
        dtype = getattr(model, "dtype", None)
        if dtype is None or self.features.dtype == dtype:
            return self.features
        return self.features.astype(dtype)
    def _add_proximal_gradient(
        self, model: Sequential, reference_params: list[np.ndarray]
    ) -> None:
        """Add the FedProx term ``mu * (w - w_global)`` to the parameter grads.

        ``reference_params`` are copies of the parameters as loaded with
        the global state, so the lists are aligned by construction.
        """
        pairs = model.parameters()
        if len(pairs) != len(reference_params):
            raise ValueError("model and reference parameter lists are misaligned")
        for (param, grad), reference in zip(pairs, reference_params):
            grad += self.proximal_mu * (param - reference)

    def _local_accuracy(self, model: Sequential) -> float:
        features = self._features_for(model)
        predictions = model.forward(features, training=False).argmax(axis=1)
        return float((predictions == self.labels).mean())


@dataclass
class ClientRoundTask:
    """One round of local training on a worker-resident client.

    ``client`` resolves to the installed :class:`FederatedClient` and
    ``params`` is the client's :class:`~repro.federated.parameters.FlatSlot`
    of the server's parameter channel: the broadcast global state in, the
    flattened update out.  Only the refs and the parent-spawned round seed
    cross the task pipe.
    """

    client: StateRef
    params: FlatSlot
    round_seed: np.random.SeedSequence

    def run(self) -> ClientUpdate:
        """Execute the round; the flattened update lands in the slot's row.

        The returned :class:`ClientUpdate` carries the metrics only (its
        ``update`` dict is empty): the caller averages the deltas in the
        channel's result matrix, so no parameter bytes ride the result
        pipe.
        """
        client: FederatedClient = self.client.resolve()
        return client.local_update(self.params, rng=np.random.default_rng(self.round_seed))


def run_client_round(task: ClientRoundTask) -> ClientUpdate:
    """Module-level entry point a pool maps over round tasks."""
    return task.run()
