"""Shared fixtures for the test suite.

Fixtures that are expensive (dataset bundles, fitted transformers, a trained
KiNETGAN) are session-scoped so the integration tests reuse them instead of
re-fitting models per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import KiNETGANConfig
from repro.datasets import load_lab_iot, load_unsw_nb15
from repro.neural.optimizers import Adam, RMSprop
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer


def _per_tensor_step(optimizer) -> None:
    """One optimizer step written tensor by tensor, element by element.

    The reference the fused flat-buffer kernels must match bit for bit: it
    walks the network's ``(param, grad)`` pairs and the per-tensor views of
    the optimizer's state, so arena gap regions are never touched.
    """
    pairs = optimizer.network.parameters()
    state = optimizer._state_buffers()
    lr = optimizer.lr
    if isinstance(optimizer, Adam):
        optimizer._t += 1
        bias1 = 1.0 - optimizer.beta1**optimizer._t
        bias2 = 1.0 - optimizer.beta2**optimizer._t
        for (param, grad), m, v in zip(pairs, state["m"], state["v"]):
            m *= optimizer.beta1
            m += (1.0 - optimizer.beta1) * grad
            v *= optimizer.beta2
            v += (1.0 - optimizer.beta2) * grad**2
            param -= lr * (m / bias1) / (np.sqrt(v / bias2) + optimizer.eps)
    elif isinstance(optimizer, RMSprop):
        for (param, grad), avg in zip(pairs, state["square_avg"]):
            avg *= optimizer.rho
            avg += (1.0 - optimizer.rho) * grad**2
            param -= lr * grad / (np.sqrt(avg) + optimizer.eps)
    else:
        for (param, grad), vel in zip(pairs, state["velocity"]):
            update = grad
            if optimizer.momentum:
                vel *= optimizer.momentum
                vel += grad
                update = vel
            param -= lr * update


@pytest.fixture
def per_tensor_step():
    """:func:`_per_tensor_step`, the per-tensor reference optimizer step."""
    return _per_tensor_step


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_schema() -> TableSchema:
    return TableSchema(
        [
            ColumnSpec("proto", "categorical", categories=("tcp", "udp")),
            ColumnSpec("service", "categorical", categories=("http", "dns", "ssh")),
            ColumnSpec("bytes", "continuous", minimum=0.0, maximum=10_000.0),
            ColumnSpec("duration", "continuous", minimum=0.0),
            ColumnSpec("label", "categorical", categories=("normal", "attack"), sensitive=True),
        ]
    )


def _make_tiny_records(n: int, seed: int) -> list[dict]:
    generator = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        is_attack = generator.uniform() < 0.2
        service = ("ssh" if is_attack else ["http", "dns"][generator.integers(0, 2)])
        proto = "udp" if service == "dns" else "tcp"
        records.append(
            {
                "proto": proto,
                "service": service,
                "bytes": float(generator.lognormal(6 if is_attack else 4, 0.5)),
                "duration": float(generator.lognormal(1.0, 0.8)),
                "label": "attack" if is_attack else "normal",
            }
        )
    return records


@pytest.fixture
def tiny_table(tiny_schema) -> Table:
    return Table.from_records(tiny_schema, _make_tiny_records(300, seed=7))


@pytest.fixture
def tiny_table_alt(tiny_schema) -> Table:
    """A second draw from the same process (used as a 'synthetic' stand-in)."""
    return Table.from_records(tiny_schema, _make_tiny_records(300, seed=99))


@pytest.fixture
def fitted_transformer(tiny_table) -> DataTransformer:
    return DataTransformer(max_modes=4, seed=0).fit(tiny_table)


@pytest.fixture
def fast_config() -> KiNETGANConfig:
    """A configuration small enough for per-test GAN training."""
    return KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=2,
        batch_size=64,
        knowledge_negatives_per_batch=16,
        seed=0,
    )


@pytest.fixture(scope="session")
def lab_bundle_small():
    return load_lab_iot(n_records=900, seed=13)


@pytest.fixture(scope="session")
def unsw_bundle_small():
    return load_unsw_nb15(n_records=900, seed=17)
