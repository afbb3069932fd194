"""Integration tests for the federated client / server loop.

The toy problem is a linearly separable two-class Gaussian mixture so that a
handful of FedAvg rounds is enough for the global model to become clearly
better than chance.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.federated.client import ClientUpdate, FederatedClient
from repro.federated.dp import DPFedAvgConfig
from repro.federated.server import FederatedServer
from repro.neural.layers import Dense, ReLU
from repro.neural.network import Sequential


def make_blobs(n: int, seed: int, shift: float = 2.5) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    half = n // 2
    class0 = rng.normal(loc=-shift, scale=1.0, size=(half, 4))
    class1 = rng.normal(loc=+shift, scale=1.0, size=(n - half, 4))
    X = np.concatenate([class0, class1])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    order = rng.permutation(n)
    return X[order], y[order]


def model_fn() -> Sequential:
    rng = np.random.default_rng(0)
    return Sequential(
        [Dense(4, 16, rng=rng, init="he"), ReLU(), Dense(16, 2, rng=rng, init="glorot")]
    )


def make_clients(num_clients: int = 3, n_per_client: int = 120, **kwargs) -> list[FederatedClient]:
    clients = []
    for i in range(num_clients):
        X, y = make_blobs(n_per_client, seed=10 + i)
        clients.append(
            FederatedClient(
                client_id=f"c{i}",
                features=X,
                labels=y,
                model_fn=model_fn,
                learning_rate=0.05,
                batch_size=32,
                local_epochs=2,
                seed=i,
                **kwargs,
            )
        )
    return clients


class TestFederatedClient:
    def test_client_validation(self):
        X, y = make_blobs(20, seed=0)
        with pytest.raises(ValueError):
            FederatedClient("c", X[:0], y[:0], model_fn)
        with pytest.raises(ValueError):
            FederatedClient("c", X, y[:-1], model_fn)
        with pytest.raises(ValueError):
            FederatedClient("c", X, y, model_fn, learning_rate=0.0)
        with pytest.raises(ValueError):
            FederatedClient("c", X, y, model_fn, proximal_mu=-1.0)

    def test_local_update_reduces_loss_direction(self):
        client = make_clients(1)[0]
        global_state = model_fn().state_dict()
        update = client.local_update(global_state)
        assert update.n_examples == client.n_examples
        assert update.client_id == client.client_id
        assert set(update.update) == set(global_state)
        assert update.metrics["local_accuracy"] > 0.5

    def test_update_is_delta_not_absolute(self):
        client = make_clients(1)[0]
        global_state = model_fn().state_dict()
        update = client.local_update(global_state)
        # Applying the delta to the global state must differ from the global state.
        assert any(np.abs(update.update[key]).sum() > 0 for key in update.update)

    def test_label_distribution_sums_to_one(self):
        client = make_clients(1)[0]
        distribution = client.label_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_fedprox_update_stays_closer_to_global(self):
        X, y = make_blobs(200, seed=3)
        plain = FederatedClient("p", X, y, model_fn, local_epochs=4, seed=0)
        prox = FederatedClient("q", X, y, model_fn, local_epochs=4, proximal_mu=5.0, seed=0)
        global_state = model_fn().state_dict()

        def l2_norm(update: dict) -> float:
            return float(np.sqrt(sum((value**2).sum() for value in update.values())))

        plain_norm = l2_norm(plain.local_update(global_state).update)
        prox_norm = l2_norm(prox.local_update(global_state).update)
        assert prox_norm < plain_norm


class TestFederatedServer:
    def test_validation(self):
        clients = make_clients(2)
        with pytest.raises(ValueError):
            FederatedServer(model_fn, [])
        with pytest.raises(ValueError):
            FederatedServer(model_fn, clients, client_fraction=0.0)
        with pytest.raises(ValueError):
            FederatedServer(model_fn, clients, server_lr=0.0)

    def test_fedavg_learns_the_toy_problem(self):
        clients = make_clients(3)
        X_test, y_test = make_blobs(300, seed=99)
        server = FederatedServer(model_fn, clients, seed=0)
        history = server.run(6, eval_features=X_test, eval_labels=y_test)
        assert history.n_rounds == 6
        assert history.final_accuracy is not None
        assert history.final_accuracy > 0.9

    def test_client_sampling_selects_subset(self):
        clients = make_clients(4)
        server = FederatedServer(model_fn, clients, client_fraction=0.5, seed=1)
        round_info = server.run_round()
        assert len(round_info.participants) == 2

    def test_dp_training_runs_and_reports_epsilon(self):
        clients = make_clients(3)
        server = FederatedServer(
            model_fn,
            clients,
            dp_config=DPFedAvgConfig(clip_norm=1.0, noise_multiplier=0.8, delta=1e-5),
            seed=0,
        )
        server.run(3)
        epsilon = server.epsilon()
        assert epsilon is not None and epsilon > 0.0
        assert server.history.rounds[-1].epsilon == pytest.approx(epsilon)

    def test_history_records_losses_and_participants(self):
        clients = make_clients(2)
        server = FederatedServer(model_fn, clients, seed=0)
        round_info = server.run_round()
        assert round_info.participants == ["c0", "c1"]
        assert np.isfinite(round_info.mean_client_loss)
        assert 0.0 <= round_info.mean_client_accuracy <= 1.0

    def test_run_rejects_nonpositive_rounds(self):
        server = FederatedServer(model_fn, make_clients(2), seed=0)
        with pytest.raises(ValueError):
            server.run(0)


class TestRoundMetricGuards:
    def test_round_with_no_usable_metrics_stays_quiet(self):
        """A round whose clients report no usable metrics must not emit a
        RuntimeWarning through np.mean -- it degrades to NaN silently."""

        class MetriclessClient(FederatedClient):
            def local_update(self, global_state, rng=None):
                update = super().local_update(global_state, rng=rng)
                return ClientUpdate(
                    client_id=update.client_id,
                    update=update.update,
                    n_examples=update.n_examples,
                    local_loss=float("nan"),
                    metrics={},
                )

        X, y = make_blobs(40, seed=0)
        clients = [
            MetriclessClient(f"m{i}", X, y, model_fn, local_epochs=1, seed=i)
            for i in range(2)
        ]
        server = FederatedServer(model_fn, clients, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            round_info = server.run_round()
        assert math.isnan(round_info.mean_client_loss)
        assert math.isnan(round_info.mean_client_accuracy)
        assert round_info.participants == ["m0", "m1"]

    def test_partial_metrics_average_only_the_usable_ones(self):
        """Finite metrics from some clients are averaged; NaNs are ignored."""

        class HalfReportingClient(FederatedClient):
            def local_update(self, global_state, rng=None):
                update = super().local_update(global_state, rng=rng)
                if self.client_id == "h0":
                    update.metrics = {"local_accuracy": 0.75}
                    update.local_loss = 0.5
                else:
                    update.metrics = {}
                    update.local_loss = float("nan")
                return update

        X, y = make_blobs(40, seed=1)
        clients = [
            HalfReportingClient(f"h{i}", X, y, model_fn, local_epochs=1, seed=i)
            for i in range(2)
        ]
        server = FederatedServer(model_fn, clients, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            round_info = server.run_round()
        assert round_info.mean_client_accuracy == pytest.approx(0.75)
        assert round_info.mean_client_loss == pytest.approx(0.5)
