"""The HTTP serving front-end: parity, backpressure, deadlines, drain.

The headline acceptance: an HTTP client on localhost gets rows
bit-identical to in-process ``model.sample(n, seed)``; a full admission
queue answers 429 with ``Retry-After``; drain serves everything admitted
and 503s the rest.
"""

from __future__ import annotations

import base64
import copy
import json
import random
import re
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core import KiNETGAN, KiNETGANConfig
from repro.engine import sampling_rng
from repro.baselines import TVAE, IndependentSampler, TableGAN
from repro.neural.network import Sequential
from repro.serve import (
    SamplingHTTPServer,
    ServingPool,
    fetch_json,
    model_registry,
    request_samples,
    save_model,
)
from repro.serve.server import table_from_wire, table_to_wire
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table


def small_config(seed: int = 0) -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=2,
        batch_size=64,
        knowledge_negatives_per_batch=16,
        max_modes=4,
        seed=seed,
    )


@pytest.fixture(scope="module")
def fitted_kinetgan(lab_bundle_small):
    model = KiNETGAN(small_config())
    model.fit(
        lab_bundle_small.table.head(400),
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
    )
    return model


@pytest.fixture(scope="module")
def kinetgan_artifact(fitted_kinetgan, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("served") / "kinetgan"
    save_model(fitted_kinetgan, directory, metadata={"dataset": "lab_iot"})
    return directory


@pytest.fixture(scope="module")
def served(kinetgan_artifact):
    """A running server over a thread pool; yields (url, pool, server)."""
    with ServingPool({"kinetgan": kinetgan_artifact}, executor="thread:2") as pool:
        with SamplingHTTPServer(pool, queue_depth=16) as server:
            yield server.url, pool, server


def fit_servable(name: str, bundle):
    """A cheaply fitted model of the servable class ``name``."""
    train = bundle.table.head(400)
    if name == "IndependentSampler":
        return IndependentSampler(seed=3).fit(train)
    if name == "TVAE":
        return TVAE(small_config(), latent_dim=8).fit(train)
    if name == "TableGAN":
        return TableGAN(small_config(), label_column=bundle.label_column).fit(train)
    model = model_registry()[name](small_config())
    if isinstance(model, KiNETGAN):
        # CTGAN and OCTGAN are knowledge-free and reject a catalog.
        catalog = None if model.knowledge_free else bundle.catalog
        model.fit(train, catalog=catalog, condition_columns=bundle.condition_columns)
        return model
    return model.fit(train)


@pytest.fixture(scope="module")
def servable_artifact(lab_bundle_small, tmp_path_factory):
    """``name -> directory`` of a saved model of each servable class,
    fitted on first use."""
    root = tmp_path_factory.mktemp("servable")
    saved: dict[str, Path] = {}

    def artifact(name: str) -> Path:
        if name not in saved:
            saved[name] = root / name
            save_model(fit_servable(name, lab_bundle_small), saved[name])
        return saved[name]

    return artifact


def assert_tables_identical(a, b) -> None:
    assert a.schema.names == b.schema.names
    assert a.n_rows == b.n_rows
    for name in a.schema.names:
        assert np.array_equal(a.column(name), b.column(name)), name


def raw_post(url: str, body: bytes, timeout: float = 30.0):
    """POST raw bytes to /sample; return (status, headers, parsed body)."""
    request = urllib.request.Request(url + "/sample", data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read() or b"{}")


def _reject_constant(token: str):
    raise AssertionError(f"non-standard JSON token {token!r} in a reply body")


_NOT_BASE64 = "!*#$%&?~ -_."
_CODE_WIDTHS = {"u1": np.uint8, "u2": np.uint16, "u4": np.uint32}


def _objects(values: list) -> np.ndarray:
    """``values`` as an object array, one cell per item (lists and dicts included)."""
    return np.fromiter(values, dtype=object, count=len(values))


def _payload_key(column: dict) -> str:
    """The key of a wire column's base64 payload: ``"f8"`` or its code width."""
    return next(key for key in column if key != "extra")


def _mutate(document: dict, rng: random.Random) -> tuple[str, dict]:
    """One seeded mutation of a reply document: ``(column it breaks, copy)``."""
    mutated = copy.deepcopy(document)
    columns = mutated["columns"]
    coded = [name for name, column in columns.items() if "f8" not in column]
    kind = rng.choice(
        ["truncate", "corrupt", "resize", "drop", "scalar", "past_end", "width", "extra"]
    )
    name = rng.choice(coded if kind in ("past_end", "width", "extra") else list(columns))
    column = columns[name]
    if kind in ("truncate", "corrupt", "resize", "past_end"):
        key = _payload_key(column)
        text = column[key]
        if kind == "truncate":
            column[key] = text[: rng.randrange(len(text))]
        elif kind == "corrupt":
            at = rng.randrange(len(text))
            # Overwrite a character or insert one: strict decoding rejects both.
            column[key] = text[:at] + rng.choice(_NOT_BASE64) + text[at + rng.randrange(2) :]
        elif kind == "resize":
            # A row more or fewer, or a byte count no width divides.
            raw = base64.b64decode(text)
            delta = rng.choice([-16, -8, -3, -1, 1, 5, 8, 24])
            raw = raw[:delta] if delta < 0 else raw + bytes(delta)
            column[key] = base64.b64encode(raw).decode("ascii")
        else:
            codes = np.frombuffer(base64.b64decode(text), dtype=_CODE_WIDTHS[key]).copy()
            spec = next(c for c in mutated["schema"]["columns"] if c["name"] == name)
            n_values = len(spec["categories"]) + len(column.get("extra", []))
            top = np.iinfo(codes.dtype).max
            codes[rng.randrange(len(codes))] = rng.randrange(n_values, top + 1)
            column[key] = base64.b64encode(codes.tobytes()).decode("ascii")
    elif kind == "drop":
        del columns[name]
    elif kind == "scalar":
        columns[name] = rng.choice([0, 64, 1.5, "x", None, True, ["x"], {}])
    elif kind == "width":
        key = _payload_key(column)
        other = rng.choice([k for k in ("u1", "u2", "u4", "u8", "i1", "f8") if k != key])
        if rng.random() < 0.5:  # swap the width key
            column[other] = column.pop(key)
        else:  # or add a second one
            column[other] = column[key]
    else:
        column["extra"] = rng.choice([0, "x", {"a": 1}, None, True, 1.5])
    return name, mutated


def _wide_table() -> Table:
    """A table whose columns take every wire form but ``u4``: a 300-category
    column at ``u2``, a mixed column at ``u1`` and a float column, each
    categorical column with cells that ride in ``"extra"``."""
    wide = tuple(f"w{i}" for i in range(300))
    schema = TableSchema(
        [
            ColumnSpec("wide", "categorical", categories=wide),
            ColumnSpec("port", "categorical", categories=(21, 443, "x")),
            ColumnSpec("bytes", "continuous"),
        ]
    )
    rows = 24
    return Table(
        schema,
        {
            "wide": _objects([wide[(37 * i) % 300] for i in range(rows - 2)] + ["w300", 7]),
            "port": _objects([21, 443, "x", True, 21.0, "21"] * (rows // 6)),
            "bytes": np.linspace(-1.0, 1.0, rows),
        },
    )


class TestWireFormat:
    def test_table_round_trips_bit_identically(self, fitted_kinetgan):
        table = fitted_kinetgan.sample(64, rng=sampling_rng(3))
        rebuilt = table_from_wire(json.loads(json.dumps(table_to_wire(table))))
        assert_tables_identical(table, rebuilt)
        for name in table.schema.names:
            assert rebuilt.column(name).dtype == table.column(name).dtype

    def test_awkward_values_round_trip_exactly_as_strict_json(self):
        schema = TableSchema(
            [
                ColumnSpec("port", "categorical", categories=(21, "x")),
                ColumnSpec("bytes", "continuous"),
            ]
        )
        payload_nan = np.array([0x7FF8_0000_0000_0123], dtype=np.uint64).view(np.float64)[0]
        floats = np.array([np.nan, payload_nan, np.inf, -np.inf, -0.0, 0.1])
        ports = np.array([21, "x", 21, "x", "x", 21], dtype=object)
        table = Table(schema, {"port": ports, "bytes": floats})
        body = json.dumps(table_to_wire(table))
        rebuilt = table_from_wire(json.loads(body, parse_constant=_reject_constant))
        assert list(rebuilt.column("port")) == [21, "x", 21, "x", "x", 21]
        assert [type(v) for v in rebuilt.column("port")] == [int, str, int, str, str, int]
        assert rebuilt.column("bytes").dtype == np.float64
        np.testing.assert_array_equal(
            rebuilt.column("bytes").view(np.uint64), floats.view(np.uint64)
        )

    def test_seeded_mutations_of_a_reply_raise_value_error(self, served, fitted_kinetgan):
        url, _pool, _server = served
        status, _headers, reply = raw_post(
            url, json.dumps({"artifact": "kinetgan", "n": 64, "seed": 5}).encode()
        )
        assert status == 200
        expected = fitted_kinetgan.sample(64, rng=sampling_rng(5))
        assert_tables_identical(expected, table_from_wire(reply))
        wide = json.loads(json.dumps(table_to_wire(_wide_table())))
        assert_tables_identical(_wide_table(), table_from_wire(wide))
        assert [_payload_key(column) for column in wide["columns"].values()] == ["u2", "u1", "f8"]
        rng = random.Random(20241017)
        for _ in range(300):
            name, mutated = _mutate(rng.choice([reply, wide]), rng)
            # pytest.raises lets a KeyError, IndexError or TypeError escape,
            # and fails if the mutated document decodes at all.
            with pytest.raises(ValueError, match=re.escape(repr(name))):
                table_from_wire(mutated)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda column: column.pop("u2"), "one code width key"),
            (lambda column: column.update(u1=column["u2"]), "one code width key"),
            (lambda column: column.update(codes=column["u2"]), "one code width key"),
            (lambda column: column.update(u2=7), "not a base64 string"),
            (lambda column: column.update(u2="AA!A"), "bad base64"),
            (lambda column: column.update(u2="AAAA"), "3 bytes is not a u2 count"),
            (
                lambda column: column.update(
                    u2=base64.b64encode(np.full(24, 302, dtype="<u2").tobytes()).decode()
                ),
                "code 302 is past its 302 values",
            ),
            (lambda column: column.update(extra={"0": 7}), '"extra" is not an array'),
        ],
        ids=[
            "no-width",
            "two-widths",
            "unknown-key",
            "not-text",
            "base64",
            "bytes",
            "past-end",
            "extra",
        ],
    )
    def test_malformed_code_column_raises_value_error_naming_it(self, edit, message):
        document = json.loads(json.dumps(table_to_wire(_wide_table())))
        edit(document["columns"]["wide"])
        with pytest.raises(ValueError, match=f"'wide'.*{re.escape(message)}"):
            table_from_wire(document)

    def test_list_form_of_a_categorical_column_is_rejected(self):
        document = json.loads(json.dumps(table_to_wire(_wide_table())))
        document["columns"]["port"] = [21] * 24
        with pytest.raises(ValueError, match="'port'.*got list"):
            table_from_wire(document)

    def test_malformed_document_raises_value_error(self):
        for document in ({}, {"schema": {}, "columns": {}}, {"schema": 3}, []):
            with pytest.raises(ValueError, match="malformed"):
                table_from_wire(document)

    def test_string_categories_in_schema_raise_value_error(self, fitted_kinetgan):
        table = fitted_kinetgan.sample(8, rng=sampling_rng(1))
        document = json.loads(json.dumps(table_to_wire(table)))
        column = next(c for c in document["schema"]["columns"] if c["kind"] == "categorical")
        # A string would otherwise decode as one category per character.
        column["categories"] = "".join(map(str, column["categories"]))
        with pytest.raises(ValueError, match=re.escape(repr(column["name"]))):
            table_from_wire(document)


def _is_category(value, spec: ColumnSpec) -> bool:
    return any(value is category for category in spec.categories)


class TestCanonicalDecode:
    """Decoded categorical cells are the schema's category objects."""

    def test_decoded_cells_are_the_schema_categories(self, fitted_kinetgan):
        table = fitted_kinetgan.sample(64, rng=sampling_rng(3))
        rebuilt = table_from_wire(json.loads(json.dumps(table_to_wire(table))))
        assert_tables_identical(table, rebuilt)
        for spec in rebuilt.schema:
            if spec.is_categorical:
                assert all(_is_category(value, spec) for value in rebuilt.column(spec.name))

    def test_second_encode_of_a_schema_builds_no_key(self, monkeypatch):
        schema = TableSchema(
            [
                ColumnSpec("port", "categorical", categories=(21, 443, "encode-memo")),
                ColumnSpec("bytes", "continuous"),
            ]
        )
        table = Table(schema, {"port": _objects([21, "encode-memo"]), "bytes": np.ones(2)})
        calls = {"to_dict": 0, "dumps": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(TableSchema, "to_dict", counting("to_dict", TableSchema.to_dict))
        monkeypatch.setattr(json, "dumps", counting("dumps", json.dumps))
        first = table_to_wire(table)
        assert calls == {"to_dict": 1, "dumps": 1}
        second = table_to_wire(Table(schema, {"port": _objects([443]), "bytes": np.zeros(1)}))
        assert calls == {"to_dict": 1, "dumps": 1}
        assert second["schema"] is first["schema"]
        # Equal specs that are other objects get their own entry and the same document.
        copied = TableSchema([copy.copy(spec) for spec in schema])
        third = table_to_wire(Table(copied, {"port": _objects([21]), "bytes": np.zeros(1)}))
        assert calls == {"to_dict": 2, "dumps": 2}
        assert third["schema"] == first["schema"]
        assert third["columns"]["port"] == {"u1": base64.b64encode(bytes([0])).decode()}

    def test_replies_of_one_artifact_share_one_schema(self, served):
        url, _pool, _server = served
        first = request_samples(url, "kinetgan", 16, seed=1)
        second = request_samples(url, "kinetgan", 16, seed=2)
        assert first.schema is second.schema
        spec = first.schema.column("event_type")
        assert all(_is_category(value, spec) for value in second.column("event_type"))

    def test_values_that_are_not_categories_keep_their_json_form(self):
        schema = TableSchema(
            [
                ColumnSpec("port", "categorical", categories=(1, 21, "x")),
                ColumnSpec("proto", "categorical", categories=("tcp", "udp")),
            ]
        )
        table = Table(
            schema,
            {
                "port": _objects([True, 21.0, 21, 1, "x", "21", None]),
                "proto": _objects(["tcp", "icmp", 1, ["tcp"], {"a": 1}, "udp", False]),
            },
        )
        document = json.loads(json.dumps(table_to_wire(table)))
        # Only the cells that are no category ride as JSON.
        assert document["columns"]["port"]["extra"] == [True, 21.0, "21", None]
        assert document["columns"]["proto"]["extra"] == ["icmp", 1, ["tcp"], {"a": 1}, False]
        rebuilt = table_from_wire(document)
        port_spec, proto_spec = rebuilt.schema.column("port"), rebuilt.schema.column("proto")
        port, proto = list(rebuilt.column("port")), list(rebuilt.column("proto"))
        assert port == [True, 21.0, 21, 1, "x", "21", None]
        assert [type(v) for v in port] == [bool, float, int, int, str, str, type(None)]
        assert [_is_category(v, port_spec) for v in port] == [0, 0, 1, 1, 1, 0, 0]
        assert proto == ["tcp", "icmp", 1, ["tcp"], {"a": 1}, "udp", False]
        assert [type(v) for v in proto] == [str, str, int, list, dict, str, bool]
        assert [_is_category(v, proto_spec) for v in proto] == [1, 0, 0, 0, 0, 1, 0]

    def test_true_and_one_schemas_decode_apart(self):
        def decoded(categories: tuple) -> Table:
            schema = TableSchema([ColumnSpec("flag", "categorical", categories=categories)])
            table = Table(schema, {"flag": _objects([1, True])})
            return table_from_wire(json.loads(json.dumps(table_to_wire(table))))

        ones = decoded((1, 2))
        trues = decoded((True, 2))
        assert [type(c) for c in ones.schema.column("flag").categories] == [int, int]
        assert [type(c) for c in trues.schema.column("flag").categories] == [bool, int]
        # The int 1 is the category of the first; JSON's true stays a bool.
        assert [type(v) for v in ones.column("flag")] == [int, bool]
        assert ones.column("flag")[0] is ones.schema.column("flag").categories[0]
        # And the other way round: true is the category of the second.
        assert [type(v) for v in trues.column("flag")] == [int, bool]
        assert trues.column("flag")[1] is trues.schema.column("flag").categories[0]

    def test_one_schema_holding_one_and_true_codes_each_by_type(self):
        schema = TableSchema(
            [
                ColumnSpec("count", "categorical", categories=(1, 2)),
                ColumnSpec("flag", "categorical", categories=(True, False)),
            ]
        )
        cells = [1, True, 2, False, 1.0]
        table = Table(schema, {"count": _objects(cells), "flag": _objects(cells)})
        document = json.loads(json.dumps(table_to_wire(table)))
        assert document["columns"]["count"]["extra"] == [True, False, 1.0]
        assert document["columns"]["flag"]["extra"] == [1, 2, 1.0]
        rebuilt = table_from_wire(document)
        for name, coded in (("count", [1, 0, 1, 0, 0]), ("flag", [0, 1, 0, 1, 0])):
            values = list(rebuilt.column(name))
            assert values == cells
            assert [type(v) for v in values] == [int, bool, int, bool, float]
            spec = rebuilt.schema.column(name)
            assert [_is_category(v, spec) for v in values] == coded

    @pytest.mark.parametrize(
        "n_categories, n_extra, width",
        [
            (3, 0, "u1"),
            (256, 0, "u1"),
            (255, 1, "u1"),
            (257, 0, "u2"),
            (256, 1, "u2"),
            (65_536, 0, "u2"),
            (65_537, 0, "u4"),
        ],
    )
    def test_code_width_is_the_narrowest_that_holds_the_largest_code(
        self, n_categories, n_extra, width
    ):
        categories = tuple(f"c{i}" for i in range(n_categories))
        schema = TableSchema(
            [
                ColumnSpec("code", "categorical", categories=categories),
                ColumnSpec("bytes", "continuous"),
            ]
        )
        cells = [categories[-1], categories[0], categories[n_categories // 2]] + [-1] * n_extra
        table = Table(schema, {"code": _objects(cells), "bytes": np.arange(float(len(cells)))})
        document = json.loads(json.dumps(table_to_wire(table)))
        assert set(document["columns"]["code"]) == ({width, "extra"} if n_extra else {width})
        codes = base64.b64decode(document["columns"]["code"][width])
        assert len(codes) == len(cells) * np.dtype(_CODE_WIDTHS[width]).itemsize
        rebuilt = table_from_wire(document)
        assert_tables_identical(table, rebuilt)
        spec = rebuilt.schema.column("code")
        assert [_is_category(v, spec) for v in rebuilt.column("code")] == [1, 1, 1] + [0] * n_extra

    def test_tuple_categories_round_trip(self):
        categories = ((21, "x"), (80, ("tcp", 1)))
        schema = TableSchema(
            [
                ColumnSpec("pair", "categorical", categories=categories),
                ColumnSpec("bytes", "continuous"),
            ]
        )
        pairs = np.fromiter([(21, "x"), (80, ("tcp", 1)), (21, "x")], dtype=object, count=3)
        table = Table(schema, {"pair": pairs, "bytes": np.array([1.5, -0.0, 2.0])})
        rebuilt = table_from_wire(json.loads(json.dumps(table_to_wire(table))))
        assert_tables_identical(table, rebuilt)
        spec = rebuilt.schema.column("pair")
        assert spec.categories == categories
        assert all(_is_category(value, spec) for value in rebuilt.column("pair"))
        # An array that only Python finds equal to a tuple category stays as it came.
        mixed = Table(
            schema,
            {
                "pair": _objects([[21, "x"], [21.0, "x"], [80, ["tcp", True]]]),
                "bytes": np.zeros(3),
            },
        )
        decoded = list(table_from_wire(json.loads(json.dumps(table_to_wire(mixed)))).column("pair"))
        assert decoded[0] is spec.categories[0]
        assert decoded[1:] == [[21.0, "x"], [80, ["tcp", True]]]

    def test_threads_decoding_one_document_get_equal_tables(self):
        # A schema of its own, so the threads race to build its decoded form;
        # a lost update of the memo would leave them with two schemas.
        schema = TableSchema(
            [
                ColumnSpec("port", "categorical", categories=(21, 443, "threads")),
                ColumnSpec("bytes", "continuous"),
            ]
        )
        ports = np.array([21, 443, "threads"] * 20, dtype=object)
        table = Table(schema, {"port": ports, "bytes": np.arange(60.0)})
        body = json.dumps(table_to_wire(table))
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        decoded: list[list] = [[] for _ in range(n_threads)]

        def decode(slot: int) -> None:
            barrier.wait(timeout=30)
            for _ in range(50):
                decoded[slot].append(table_from_wire(json.loads(body)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        tables = [rebuilt for slot in decoded for rebuilt in slot]
        assert len(tables) == 50 * n_threads
        for rebuilt in tables:
            assert_tables_identical(table, rebuilt)
        assert len({id(rebuilt.schema) for rebuilt in tables}) == 1


class TestHTTPParity:
    def test_seeded_samples_bit_identical_to_in_process(self, served, fitted_kinetgan):
        url, _pool, _server = served
        over_http = request_samples(url, "kinetgan", 120, seed=42)
        in_process = fitted_kinetgan.sample(120, rng=sampling_rng(42))
        assert_tables_identical(in_process, over_http)

    def test_conditional_request_parity(self, served, fitted_kinetgan):
        url, _pool, _server = served
        value = fitted_kinetgan.sampler.categories("event_type")[0]
        over_http = request_samples(
            url, "kinetgan", 48, conditions={"event_type": value}, seed=7
        )
        in_process = fitted_kinetgan.sample(
            48, conditions={"event_type": value}, rng=sampling_rng(7)
        )
        assert_tables_identical(in_process, over_http)

    def test_default_seed_matches_model_default(self, served, fitted_kinetgan):
        url, _pool, _server = served
        assert_tables_identical(fitted_kinetgan.sample(40), request_samples(url, "kinetgan", 40))

    def test_full_artifact_path_also_addresses_model(self, served, kinetgan_artifact):
        url, _pool, _server = served
        by_alias = request_samples(url, "kinetgan", 16, seed=1)
        by_path = request_samples(url, str(kinetgan_artifact), 16, seed=1)
        assert_tables_identical(by_alias, by_path)

    def test_repeated_request_is_deterministic(self, served):
        url, _pool, _server = served
        assert_tables_identical(
            request_samples(url, "kinetgan", 32, seed=9),
            request_samples(url, "kinetgan", 32, seed=9),
        )


class TestEndpoints:
    def test_health_document(self, served):
        url, _pool, server = served
        health = fetch_json(url, "/health")
        assert health["status"] == "ok"
        assert health["queue_capacity"] == server.queue_depth
        assert health["artifacts"] == ["kinetgan"]
        assert set(health["stats"]) >= {"served", "rejected", "timeouts"}

    @pytest.mark.parametrize("executor, workers", [("thread:3", 3), ("serial", 1)])
    def test_health_reports_the_pool_worker_count(self, kinetgan_artifact, executor, workers):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor=executor) as pool:
            with SamplingHTTPServer(pool) as server:
                assert fetch_json(server.url, "/health")["workers"] == workers

    def test_artifacts_document_carries_manifests(self, served):
        url, _pool, _server = served
        artifacts = fetch_json(url, "/artifacts")["artifacts"]
        assert artifacts["kinetgan"]["model_class"] == "KiNETGAN"
        assert artifacts["kinetgan"]["format_version"] == 2

    def test_unknown_route_404(self, served):
        url, _pool, _server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch_json(url, "/nope")
        assert excinfo.value.code == 404


class TestRequestValidation:
    def test_unknown_artifact_404(self, served):
        url, _pool, _server = served
        status, _headers, body = raw_post(
            url, json.dumps({"artifact": "missing", "n": 10}).encode()
        )
        assert status == 404
        assert "missing" in body["error"]

    def test_malformed_json_body_400(self, served):
        url, _pool, _server = served
        status, _headers, body = raw_post(url, b"this is not json")
        assert status == 400
        assert "malformed" in body["error"]

    def test_empty_body_400(self, served):
        url, _pool, _server = served
        status, _headers, _body = raw_post(url, b"")
        assert status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {"artifact": "kinetgan"},
            {"artifact": "kinetgan", "n": 0},
            {"artifact": "kinetgan", "n": -5},
            {"artifact": "kinetgan", "n": "ten"},
            {"artifact": "kinetgan", "n": True},
            {"n": 10},
            {"artifact": "kinetgan", "n": 10, "conditions": "bad"},
            {"artifact": "kinetgan", "n": 10, "seed": "abc"},
        ],
    )
    def test_invalid_fields_400(self, served, payload):
        url, _pool, _server = served
        status, _headers, _body = raw_post(url, json.dumps(payload).encode())
        assert status == 400

    def test_oversized_n_400(self, served):
        url, _pool, server = served
        status, _headers, body = raw_post(
            url, json.dumps({"artifact": "kinetgan", "n": server.max_rows + 1}).encode()
        )
        assert status == 400
        assert "max_rows" in body["error"]

    def test_bad_conditions_answer_400(self, served):
        """An unknown condition column is refused at admission with a 400
        that names the column and no Python exception class."""
        url, _pool, _server = served
        status, _headers, body = raw_post(
            url,
            json.dumps(
                {"artifact": "kinetgan", "n": 8, "conditions": {"no_such_column": "x"}}
            ).encode(),
        )
        assert status == 400
        assert "'no_such_column'" in body["error"]
        assert "KeyError" not in body["error"]

    @pytest.mark.parametrize("value", ["not_a_real_event", ["a", "list"]])
    def test_unknown_condition_value_answers_400(self, served, value):
        url, _pool, server = served
        invalid = server.stats.snapshot()["invalid"]
        status, _headers, body = raw_post(
            url,
            json.dumps(
                {"artifact": "kinetgan", "n": 8, "conditions": {"event_type": value}}
            ).encode(),
        )
        assert status == 400
        assert "'event_type'" in body["error"]
        assert "Error" not in body["error"]
        assert server.stats.snapshot()["invalid"] == invalid + 1

    def test_conditions_on_unconditional_model_answer_400(self, servable_artifact):
        with ServingPool({"tvae": servable_artifact("TVAE")}) as pool:
            with SamplingHTTPServer(pool) as server:
                status, _headers, body = raw_post(
                    server.url,
                    json.dumps(
                        {"artifact": "tvae", "n": 8, "conditions": {"event_type": "x"}}
                    ).encode(),
                )
        assert status == 400
        assert "'event_type'" in body["error"]
        assert "Error" not in body["error"]


class TestBackpressure:
    def test_queue_full_429_with_retry_after(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="serial") as pool:
            in_dispatch = threading.Event()
            release = threading.Event()
            real = pool.sample_batch

            def gated(requests, timeout=None):
                in_dispatch.set()
                assert release.wait(20.0)
                return real(requests, timeout)

            pool.sample_batch = gated  # type: ignore[method-assign]
            with SamplingHTTPServer(pool, queue_depth=2, retry_after=2.5) as server:
                url = server.url
                results: list = []

                def client():
                    results.append(raw_post(url, json.dumps(
                        {"artifact": "kinetgan", "n": 8, "seed": 1}).encode()))

                # First request occupies the dispatcher ...
                threads = [threading.Thread(target=client)]
                threads[0].start()
                assert in_dispatch.wait(20.0)
                # ... the next two fill the bounded queue ...
                for _ in range(2):
                    thread = threading.Thread(target=client)
                    thread.start()
                    threads.append(thread)
                deadline = time.monotonic() + 10.0
                while server._queue.qsize() < 2 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert server._queue.qsize() == 2
                # ... and the fourth is rejected with backpressure.
                status, headers, body = raw_post(
                    url, json.dumps({"artifact": "kinetgan", "n": 8}).encode()
                )
                assert status == 429
                assert headers.get("Retry-After") == "2.5"
                assert "queue full" in body["error"]
                assert server.stats.snapshot()["rejected"] == 1
                release.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert [status for status, _h, _b in results] == [200, 200, 200]

    def test_queue_wait_past_deadline_504(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="serial") as pool:
            first = threading.Event()

            real = pool.sample_batch

            def slow_once(requests, timeout=None):
                if not first.is_set():
                    first.set()
                    time.sleep(0.3)
                return real(requests, timeout)

            pool.sample_batch = slow_once  # type: ignore[method-assign]
            with SamplingHTTPServer(pool, queue_depth=8, request_deadline=0.05) as server:
                url = server.url
                results: list = []

                def client():
                    results.append(raw_post(url, json.dumps(
                        {"artifact": "kinetgan", "n": 8, "seed": 1}).encode()))

                blocker = threading.Thread(target=client)
                blocker.start()
                assert first.wait(10.0)
                # Queued while the dispatcher sleeps past the deadline.
                status, _headers, body = raw_post(
                    url, json.dumps({"artifact": "kinetgan", "n": 8}).encode()
                )
                assert status == 504
                assert "deadline" in body["error"]
                blocker.join(timeout=30.0)


class TestDrain:
    def test_drain_serves_admitted_then_503s_new(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="serial") as pool:
            in_dispatch = threading.Event()
            release = threading.Event()
            real = pool.sample_batch

            def gated(requests, timeout=None):
                in_dispatch.set()
                assert release.wait(20.0)
                return real(requests, timeout)

            pool.sample_batch = gated  # type: ignore[method-assign]
            server = SamplingHTTPServer(pool, queue_depth=8).start()
            url = server.url
            results: list = []

            def client():
                results.append(raw_post(url, json.dumps(
                    {"artifact": "kinetgan", "n": 8, "seed": 2}).encode()))

            admitted = [threading.Thread(target=client) for _ in range(2)]
            admitted[0].start()
            assert in_dispatch.wait(20.0)
            admitted[1].start()
            deadline = time.monotonic() + 10.0
            while server._queue.qsize() < 1 and time.monotonic() < deadline:
                time.sleep(0.005)

            stopper = threading.Thread(target=server.stop)
            stopper.start()
            deadline = time.monotonic() + 10.0
            while not server._draining.is_set() and time.monotonic() < deadline:
                time.sleep(0.005)
            # New work is refused the moment drain begins ...
            status, _headers, body = raw_post(
                url, json.dumps({"artifact": "kinetgan", "n": 8}).encode()
            )
            assert status == 503
            assert "draining" in body["error"]
            # ... while everything already admitted is still served.
            release.set()
            for thread in admitted:
                thread.join(timeout=30.0)
            stopper.join(timeout=30.0)
            assert [status for status, _h, _b in results] == [200, 200]


class TestServingPool:
    def test_requires_artifacts(self):
        with pytest.raises(ValueError, match="at least one artifact"):
            ServingPool({})

    def test_unknown_artifact_raises_keyerror(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}) as pool:
            with pytest.raises(KeyError):
                pool.sample_batch([("missing", 8, None, 1)])

    def test_closed_pool_rejects_requests(self, kinetgan_artifact):
        pool = ServingPool({"kinetgan": kinetgan_artifact})
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.sample_batch([("kinetgan", 8, None, 1)])

    def test_process_pool_parity(self, kinetgan_artifact, fitted_kinetgan):
        """Workers resolve one shared-memory copy; rows stay bit-identical."""
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="process:2") as pool:
            results = pool.sample_batch(
                [("kinetgan", 60, None, 11), ("kinetgan", 60, None, 12)]
            )
        assert all(result.failure is None for result in results)
        assert_tables_identical(
            fitted_kinetgan.sample(60, rng=sampling_rng(11)), results[0].value
        )
        assert_tables_identical(
            fitted_kinetgan.sample(60, rng=sampling_rng(12)), results[1].value
        )

    def test_timeout_surfaces_as_task_failure(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="serial") as pool:
            results = pool.sample_batch([("kinetgan", 5000, None, 1)], timeout=1e-9)
        assert results[0].failure is not None
        assert results[0].failure.cause == "timeout"

    @pytest.mark.parametrize("name", sorted(model_registry()))
    def test_resident_models_have_workspaces_unbound(self, servable_artifact, name):
        """Installed models carry no step workspace: the recycled scratch
        buffers are single-stream, and thread-pool workers sample the same
        resident object concurrently.  The walk over the whole object graph
        is the oracle for the pool's explicit ``artifact_networks()`` list:
        a network the list missed would still be bound here."""
        with ServingPool({name: servable_artifact(name)}, executor="thread:2") as pool:
            model = pool._refs[name].resolve()
            stack, seen, networks = [model], set(), 0
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if isinstance(node, Sequential):
                    networks += 1
                    assert node.workspace is None
                    assert all(layer._ws is None for layer in node.layers)
                    for layer in node.layers:
                        # Output-activation scratch follows the same
                        # single-stream contract; unbound means disabled.
                        if hasattr(layer, "_scratch"):
                            assert layer._scratch is None
                    continue
                if isinstance(node, dict):
                    stack.extend(node.values())
                elif isinstance(node, (list, tuple)):
                    stack.extend(node)
                elif isinstance(getattr(node, "__dict__", None), dict):
                    stack.extend(vars(node).values())
            assert networks >= len(model.artifact_networks())
            (result,) = pool.sample_batch([(name, 32, None, 5)])
        assert result.failure is None

    def test_concurrent_thread_sampling_stays_bit_identical(
        self, kinetgan_artifact, fitted_kinetgan
    ):
        """A burst through two worker threads matches serial references.

        This is the regression test for shared step-workspace scratch: with
        a workspace still bound, two concurrent forwards through the same
        resident generator overwrite each other's buffers and the rows
        diverge (or sampling raises outright)."""
        requests = [("kinetgan", 48, None, 100 + i) for i in range(12)]
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="thread:2") as pool:
            results = pool.sample_batch(requests)
        assert all(result.failure is None for result in results)
        for (_, n, _, seed), result in zip(requests, results):
            assert_tables_identical(
                fitted_kinetgan.sample(n, rng=sampling_rng(seed)), result.value
            )
