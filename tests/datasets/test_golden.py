"""Golden digests of the seeded dataset simulators.

Every fit, bench and example starts from one of the four simulators in
:mod:`repro.datasets`, so their seeded output is pinned here bit for bit:
each case's SHA-256 covers the schema's column names, the raw bytes of every
float column and ``(type name, repr)`` of every value in an object column (so
an ``int`` that turns into a ``numpy.int64`` or a ``float`` fails too).

The cases cover every registered dataset at two ``(n_records, seed)`` pairs,
the full-width NSL-KDD and UNSW-NB15 schemas, and
:meth:`LabIoTSimulator.generate_event_batch` over every event type.  Rerun
``PYTHONPATH=src python tests/datasets/test_golden.py`` to print the digests,
and only re-record them for an intended change to a simulator's output.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Callable
from functools import partial

import numpy as np
import pytest

from repro.datasets import LabIoTSimulator, available_datasets, load_dataset
from repro.datasets.base import clip_scalar
from repro.datasets.lab_iot import _EVENT_WEIGHTS
from repro.tabular.table import Table

#: Two ``(n_records, seed)`` pairs per registered dataset.
SIZES_AND_SEEDS = ((400, None), (1500, 2024))

GOLDEN: dict[str, str] = {
    "cicids2017-1500-2024": "6c89282c7d0a2d0b42cc498d6c37e843b0488b92cd6a7b9cc7a86f9857243f29",
    "cicids2017-400-default": "5028c098d0642ecb295f774fa183f2a188301a2857ca0dc373db91dca55f4846",
    "lab_iot-1500-2024": "ddd2be9fc80dec45b8a8338c1b28b7acd125d021c3ef4d28b10a2eb7547d0235",
    "lab_iot-400-default": "f82c2e3236987e6edab6fafdb1aa6fc8f9ac8e8ba9d6c95e7839218b3527a8fe",
    "lab_iot-event-batches-3": "df27eee46f010ed11f856e2715eed09e134a2b47fd821b94f393d3b7ceba0ac1",
    "nsl_kdd-1500-2024": "3c5621de4b13b5923b6dc2dc4e9750f9bfdf794c0a3eefed8132437a03faa24d",
    "nsl_kdd-400-default": "fe94458dfef2296d3cfe863a9420f338eb6f8cadcd77c878fd65e57c43dbb9f1",
    "nsl_kdd-full-600": "2da606235af085abcdaecd10344ab53f5780260254ad3fee54e9f7f6b2f6e977",
    "unsw_nb15-1500-2024": "e1a55332214aa8fa041e5fea603d9c0ec772798b10f3968c12c79033cd1afafa",
    "unsw_nb15-400-default": "b61fcee75732433d550b9b8661fc1b4a5d480557ad915117c6033167f8e32feb",
    "unsw_nb15-full-600": "d03459367156199723dc597bb8ea84b6190dcf9a1bea230ed2e8c015d7f3b185",
}


def table_digest(table: Table) -> str:
    """SHA-256 over the names, float bits and typed object values of ``table``."""
    digest = hashlib.sha256()
    for name in table.schema.names:
        values = table.column(name)
        digest.update(f"{name}:{values.dtype.str}\n".encode())
        if values.dtype == np.float64:
            digest.update(values.tobytes())
        else:
            for value in values:
                digest.update(f"{type(value).__name__}:{value!r}\n".encode())
    return digest.hexdigest()


def _registry_case(name: str, n_records: int, seed: int | None, **kwargs) -> Table:
    if seed is not None:
        kwargs["seed"] = seed
    return load_dataset(name, n_records=n_records, **kwargs).table


def _event_batches() -> Table:
    simulator = LabIoTSimulator(seed=3)
    batches = [simulator.generate_event_batch(name, 30) for name in _EVENT_WEIGHTS]
    table = batches[0]
    for batch in batches[1:]:
        table = table.concat(batch)
    return table


def golden_cases() -> dict[str, Callable[[], Table]]:
    """Case id -> zero-argument builder of the pinned table."""
    cases = {}
    for name in available_datasets():
        for n_records, seed in SIZES_AND_SEEDS:
            cases[f"{name}-{n_records}-{seed or 'default'}"] = partial(
                _registry_case, name, n_records, seed
            )
    for name in ("nsl_kdd", "unsw_nb15"):
        cases[f"{name}-full-600"] = partial(_registry_case, name, 600, None, reduced=False)
    cases["lab_iot-event-batches-3"] = _event_batches
    return cases


@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_dataset_matches_golden_digest(case):
    assert table_digest(golden_cases()[case]()) == GOLDEN[case]


def test_every_registered_dataset_is_pinned():
    pinned = {case.split("-", 1)[0] for case in GOLDEN}
    assert pinned == set(available_datasets())
    assert set(GOLDEN) == set(golden_cases())


def test_digest_sees_object_value_types():
    table = load_dataset("lab_iot", n_records=50).table
    ports = table.column("dst_port")
    assert isinstance(ports[0], int)
    retyped = Table(
        table.schema,
        {
            **{name: table.column(name) for name in table.schema.names},
            "dst_port": np.asarray([np.int64(port) for port in ports], dtype=object),
        },
    )
    assert retyped.to_records() == table.to_records()
    assert table_digest(retyped) != table_digest(table)


def test_digest_sees_float_bits():
    table = load_dataset("lab_iot", n_records=50).table
    nudged = table.column("duration_ms").copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    changed = Table(
        table.schema,
        {**{name: table.column(name) for name in table.schema.names}, "duration_ms": nudged},
    )
    assert table_digest(changed) != table_digest(table)


def test_clip_scalar_matches_np_clip():
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, -3.0, 1e12, np.float64(-0.0)]
    integers = [3, np.int64(5), np.int64(-2), np.int64(600)]
    bounds = [(0.0, 1.0), (0, 511), (-0.0, 1.0), (1, 100_000), (0.0, 0.0), (1.4e9, 1.5e9)]
    for value, (low, high) in itertools.product(floats + integers, bounds):
        expected = float(np.clip(value, low, high))
        actual = clip_scalar(value, low, high)
        assert type(actual) is float
        assert np.float64(actual).tobytes() == np.float64(expected).tobytes(), (value, low, high)


if __name__ == "__main__":
    for case, build in sorted(golden_cases().items()):
        print(f'    "{case}": "{table_digest(build())}",')
