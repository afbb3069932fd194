"""Pickle-free artifact-state encoding (artifact format v2).

Format v1 stored a model's :meth:`~repro.core.base.Synthesizer.
artifact_state` as ``state.pkl`` -- a pickle, which executes arbitrary code
on load and is therefore unsafe for artifacts received from untrusted
peers, so v1 is no longer read at all.  Once artifacts are reachable over a socket (:mod:`repro.serve.server`) the
state blob must be *data*, not code.  This module encodes the state tree
into

* a JSON document describing the tree's structure, with every non-JSON
  value replaced by a small tagged node (``{"__kind__": ...}``); and
* a flat ``{key: ndarray}`` mapping holding every numpy array,

and packs both into one ``state.npz`` (arrays natively, the JSON document
as a ``uint8`` byte member), loaded with ``allow_pickle=False``.

Decoding constructs only a **closed set** of types -- JSON scalars,
lists/tuples/dicts, numpy arrays and scalars, :class:`~repro.core.config.
KiNETGANConfig`, :class:`~repro.tabular.schema.TableSchema` /
:class:`~repro.tabular.table.Table`, and a :class:`~repro.knowledge.
reasoner.KGReasoner` rebuilt from the graph's text serialisation -- so a
hostile ``state.npz`` can at worst produce a malformed model, never code
execution.  Encoding is exact: float64 buffers ride the npz binary format
bit-for-bit and JSON floats round-trip through ``repr``, so the
``load(save(m)).sample(n, seed) == m.sample(n, seed)`` invariant holds
exactly (``tests/serve/test_artifacts.py``).

Unknown object types fail loudly at *encode* time (``StateEncodeError``
naming the type) instead of silently falling back to pickle; unknown node
tags fail at *decode* time (``StateDecodeError``).  See
``docs/artifact-format.md`` for the on-disk specification.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

__all__ = [
    "StateCodecError",
    "StateEncodeError",
    "StateDecodeError",
    "encode_state",
    "decode_state",
    "save_state_npz",
    "load_state_npz",
]

#: npz member holding the JSON structure document (utf-8 bytes).
_DOC_MEMBER = "__state_json__"

#: Tag key marking a non-JSON node in the structure document.
_KIND = "__kind__"


class StateCodecError(ValueError):
    """Base error of the v2 state codec."""


class StateEncodeError(StateCodecError):
    """A state tree contains a type the v2 encoding does not cover."""


class StateDecodeError(StateCodecError):
    """A state document is malformed or names an unsupported node kind."""


def _config_classes() -> dict[str, type]:
    """Model-config dataclasses reconstructible from a v2 state document.

    Resolved lazily (like :func:`repro.serve.artifact.model_registry`) so the
    codec stays importable without the model zoo.
    """
    from repro.core.config import KiNETGANConfig

    return {"KiNETGANConfig": KiNETGANConfig}


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
class _Encoder:
    """Walks a state tree, emitting the JSON document and the array table."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def _store(self, array: np.ndarray) -> str:
        key = f"a{len(self.arrays)}"
        self.arrays[key] = array
        return key

    def encode(self, value) -> object:
        # bool is an int subclass: check it first so flags stay booleans.
        if value is None or isinstance(value, (bool, int, str)):
            return value
        if isinstance(value, float):
            return value
        if isinstance(value, np.generic):
            # Numpy scalars ride as 0-d npz arrays so dtype survives exactly.
            return {_KIND: "npscalar", "key": self._store(np.asarray(value))}
        if isinstance(value, np.ndarray):
            if value.dtype == object:
                return {_KIND: "objarray", "items": [self.encode(v) for v in value]}
            return {_KIND: "ndarray", "key": self._store(value)}
        if isinstance(value, tuple):
            return {_KIND: "tuple", "items": [self.encode(v) for v in value]}
        if isinstance(value, list):
            return [self.encode(v) for v in value]
        if isinstance(value, dict):
            plain = all(isinstance(k, str) and k != _KIND for k in value)
            if plain:
                return {k: self.encode(v) for k, v in value.items()}
            return {
                _KIND: "dict",
                "items": [[self.encode(k), self.encode(v)] for k, v in value.items()],
            }
        return self._encode_object(value)

    def _encode_object(self, value) -> dict:
        from repro.knowledge.graph import KnowledgeGraph
        from repro.knowledge.reasoner import KGReasoner
        from repro.tabular.schema import ColumnSpec, TableSchema
        from repro.tabular.table import Table

        if type(value) in _config_classes().values():
            return {
                _KIND: "config",
                "class": type(value).__name__,
                "data": {f.name: self.encode(getattr(value, f.name)) for f in fields(value)},
            }
        if isinstance(value, KGReasoner):
            return {
                _KIND: "kg_reasoner",
                "graph": self.encode(value.graph),
                "field_map": self.encode(dict(value.field_map)),
            }
        if isinstance(value, KnowledgeGraph):
            return {_KIND: "knowledge_graph", "name": value.name, "triples": value.to_text()}
        if isinstance(value, Table):
            return {
                _KIND: "table",
                "schema": self.encode(value.schema),
                "columns": {name: self.encode(value.column(name)) for name in value.schema.names},
            }
        if isinstance(value, TableSchema):
            return {_KIND: "schema", "columns": [self.encode(spec) for spec in value]}
        if isinstance(value, ColumnSpec):
            return {
                _KIND: "column_spec",
                "name": value.name,
                "col_kind": value.kind,
                "categories": [self.encode(v) for v in value.categories],
                "minimum": value.minimum,
                "maximum": value.maximum,
                "sensitive": value.sensitive,
            }
        raise StateEncodeError(
            f"cannot encode {type(value).__module__}.{type(value).__qualname__} in the "
            "v2 artifact-state format; teach repro.serve.codec about the type or keep "
            "the value out of artifact_state()"
        )


def encode_state(state) -> tuple[object, dict[str, np.ndarray]]:
    """``(json_document, arrays)`` for a state tree (see module docs)."""
    encoder = _Encoder()
    document = encoder.encode(state)
    return document, encoder.arrays


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #
class _Decoder:
    """Rebuilds a state tree from the JSON document and the array table."""

    def __init__(self, arrays) -> None:
        self.arrays = arrays

    def _fetch(self, node: dict) -> np.ndarray:
        key = node.get("key")
        try:
            return np.asarray(self.arrays[key])
        except KeyError:
            raise StateDecodeError(f"state document references missing array {key!r}") from None

    def decode(self, node):
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        if isinstance(node, list):
            return [self.decode(v) for v in node]
        if not isinstance(node, dict):
            raise StateDecodeError(f"unsupported node type {type(node).__name__} in state document")
        kind = node.get(_KIND)
        if kind is None:
            return {k: self.decode(v) for k, v in node.items()}
        decoder = getattr(self, f"_decode_{kind}", None)
        if decoder is None:
            raise StateDecodeError(f"unsupported node kind {kind!r} in state document")
        return decoder(node)

    # -- tagged nodes -------------------------------------------------- #
    def _decode_ndarray(self, node: dict) -> np.ndarray:
        return self._fetch(node)

    def _decode_npscalar(self, node: dict):
        return self._fetch(node)[()]

    def _decode_objarray(self, node: dict) -> np.ndarray:
        items = [self.decode(v) for v in node["items"]]
        array = np.empty(len(items), dtype=object)
        array[:] = items
        return array

    def _decode_tuple(self, node: dict) -> tuple:
        return tuple(self.decode(v) for v in node["items"])

    def _decode_dict(self, node: dict) -> dict:
        return {self.decode(k): self.decode(v) for k, v in node["items"]}

    def _decode_config(self, node: dict):
        classes = _config_classes()
        name = node.get("class")
        if name not in classes:
            raise StateDecodeError(f"state document names unknown config class {name!r}")
        data = {k: self.decode(v) for k, v in node["data"].items()}
        try:
            return classes[name](**data)
        except (TypeError, ValueError) as error:
            raise StateDecodeError(f"invalid {name} in state document: {error}") from None

    def _decode_kg_reasoner(self, node: dict):
        from repro.knowledge.reasoner import KGReasoner

        return KGReasoner(self.decode(node["graph"]), field_map=self.decode(node["field_map"]))

    def _decode_knowledge_graph(self, node: dict):
        from repro.knowledge.graph import KnowledgeGraph

        return KnowledgeGraph.from_text(node["triples"], name=node.get("name", "NetworkKG"))

    def _decode_table(self, node: dict):
        from repro.tabular.table import Table

        schema = self.decode(node["schema"])
        return Table(schema, {name: self.decode(col) for name, col in node["columns"].items()})

    def _decode_schema(self, node: dict):
        from repro.tabular.schema import TableSchema

        return TableSchema([self.decode(spec) for spec in node["columns"]])

    def _decode_column_spec(self, node: dict):
        from repro.tabular.schema import ColumnSpec

        try:
            return ColumnSpec(
                name=node["name"],
                kind=node["col_kind"],
                categories=tuple(self.decode(v) for v in node["categories"]),
                minimum=node["minimum"],
                maximum=node["maximum"],
                sensitive=bool(node["sensitive"]),
            )
        except (KeyError, ValueError) as error:
            raise StateDecodeError(f"invalid column spec in state document: {error}") from None


def decode_state(document, arrays):
    """Inverse of :func:`encode_state`."""
    return _Decoder(arrays).decode(document)


# --------------------------------------------------------------------------- #
# npz packing
# --------------------------------------------------------------------------- #
def save_state_npz(state, path: str | Path) -> Path:
    """Encode ``state`` and write it as a self-describing ``state.npz``."""
    document, arrays = encode_state(state)
    doc_bytes = np.frombuffer(json.dumps(document).encode("utf-8"), dtype=np.uint8)
    path = Path(path)
    np.savez(path, **{_DOC_MEMBER: doc_bytes}, **arrays)
    return path


def load_state_npz(path: str | Path):
    """Load and decode a ``state.npz`` written by :func:`save_state_npz`.

    ``allow_pickle`` stays ``False``: every member must be a plain-dtype
    array, so loading an artifact received from an untrusted peer can fail
    but never execute code.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        if _DOC_MEMBER not in data:
            raise StateDecodeError(f"{path} has no {_DOC_MEMBER} member; not a v2 state file")
        try:
            document = json.loads(bytes(data[_DOC_MEMBER].tobytes()).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StateDecodeError(f"unreadable state document in {path}: {error}") from None
        arrays = {key: data[key] for key in data.files if key != _DOC_MEMBER}
    return decode_state(document, arrays)
