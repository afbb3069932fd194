"""HTTP serving front-end: network transport with production semantics.

This module puts a real transport in front of the serving layer so a
second host can request synthetic traffic.  Three pieces:

* :class:`ServingPool` -- N executor workers sharing **one resident copy**
  of each served model.  Every artifact is loaded once in the parent and
  installed into the execution plane via ``Executor.install`` (a
  ``DirectStateRef`` for serial/thread pools, one shared-memory segment
  for process pools -- see ``repro/runtime/state.py``), so worker count
  scales without re-loading or re-pickling models.  Requests are
  dispatched through ``Executor.map_tasks`` riding the existing
  :class:`~repro.runtime.TaskPolicy` deadline/retry machinery.
* :class:`SamplingHTTPServer` -- a stdlib ``ThreadingHTTPServer`` exposing

  - ``POST /sample``   ``{"artifact", "n", "conditions", "seed"}`` -> rows
  - ``GET  /health``   status, queue depth, counters
  - ``GET  /artifacts``  manifests of every served artifact

  with a **bounded admission queue** (full -> ``429`` + ``Retry-After``),
  **per-artifact concurrency limits**, per-request **deadlines**, and
  **graceful drain** on shutdown (``stop(drain=True)`` stops admitting,
  serves everything already queued, then exits).
* :func:`request_samples` / :func:`fetch_json` -- a tiny stdlib client.

Determinism contract: the rows of a response depend only on ``(artifact,
n, conditions, seed)``.  A client on localhost receives samples
**bit-identical** to ``model.sample(n, seed)`` in-process -- continuous
columns ride as base64 little-endian float64 bytes (exact for every bit
pattern), categorical columns as base64 integer codes into the schema's
categories (see :func:`table_to_wire`) -- enforced by
``tests/serve/test_server.py``.
``repro serve`` without ``--http`` runs its requests through the same
:meth:`ServingPool.sample_batch`.

Operator documentation (knobs, capacity planning, runbook) lives in
``docs/serving.md``.
"""

from __future__ import annotations

import base64
import json
import queue
import threading
import time
import urllib.error
import urllib.request
from collections import Counter, OrderedDict
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.engine import sampling_rng
from repro.obs import MetricsRegistry, default_registry
from repro.runtime import Executor, TaskPolicy, resolve_executor
from repro.serve.artifact import ModelArtifact, load_model
from repro.tabular.schema import ColumnSpec, TableSchema, tuples_from_json
from repro.tabular.table import Table

__all__ = [
    "ServingPool",
    "SamplingHTTPServer",
    "ServerStats",
    "check_conditions",
    "request_samples",
    "fetch_json",
    "table_to_wire",
    "table_from_wire",
]


# --------------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------------- #
def table_to_wire(table: Table) -> dict:
    """JSON-serialisable ``{"schema", "columns"}`` document for a table.

    Exact and strict JSON: a float64 column travels as
    ``{"f8": <base64 of its little-endian IEEE-754 bytes>}``, so every bit
    survives (NaN payloads, infinities and ``-0.0`` included) and no
    non-standard ``NaN`` token is ever written.  A categorical column
    travels as ``{"u1"|"u2"|"u4": <base64 of its little-endian codes>}``,
    the narrowest width that holds its largest code, with an ``"extra"``
    array when some cell is not a category (see :class:`_CategoryCodes`).
    The schema rides its own ``to_dict`` form, built once per schema (see
    :func:`_schema_wire`) and shared by every reply that carries it.
    """
    document, codes = _schema_wire(table.schema)
    columns: dict = {}
    for spec in table.schema:
        values = table.column(spec.name)
        if spec.is_continuous:
            columns[spec.name] = {"f8": _base64_text(values.astype("<f8", copy=False))}
        else:
            columns[spec.name] = codes[spec.name].encode(values)
    return {"schema": document, "columns": columns}


# The code widths of a categorical wire column: its key and the dtype of its
# little-endian unsigned codes, narrowest first.
_CODE_WIDTHS = {"u1": np.dtype("<u1"), "u2": np.dtype("<u2"), "u4": np.dtype("<u4")}


def _same_value(value, category) -> bool:
    """Whether ``value`` stands for ``category``: equal and of its exact
    type, where a list (what JSON makes of a tuple) stands for an equal tuple."""
    if type(category) is tuple:
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(category)
            and all(map(_same_value, value, category))
        )
    return type(value) is type(category) and value == category


def _code_width(top: int) -> str:
    """The narrowest code width that holds the code ``top``."""
    return next(key for key, dtype in _CODE_WIDTHS.items() if top < 256**dtype.itemsize)


def _base64_text(values: np.ndarray) -> str:
    """An array's bytes, in its dtype's byte order, as base64 text."""
    return base64.b64encode(values.tobytes()).decode("ascii")


def _base64_bytes(name: str, text: str) -> bytes:
    """The bytes of a wire column's base64 text; ``ValueError`` naming it if bad."""
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as error:  # binascii.Error, or a non-ASCII str
        raise ValueError(f"column {name!r}: bad base64 ({error})") from None


class _CategoryCodes:
    """One categorical column's integer codes into its schema's categories.

    Code ``k < len(categories)`` is the ``k``-th category object itself, so
    a decoded table holds pointers into the schema, as an in-process sample
    does.  A cell is coded only when :func:`_same_value` says it stands for
    its category; every other cell (a bool, a float, anything outside the
    categories) rides in the column's ``"extra"`` array, and code
    ``len(categories) + j`` decodes to ``extra[j]`` as ``json.loads`` made it.
    """

    __slots__ = ("categories", "lookup", "plain", "str_only", "width")

    def __init__(self, categories: tuple) -> None:
        self.categories = np.fromiter(categories, dtype=object, count=len(categories))
        self.lookup = {category: code for code, category in enumerate(categories)}
        kinds = set(map(type, categories))
        self.plain = kinds <= {int, str}
        self.str_only = kinds == {str}
        self.width = _code_width(len(categories) - 1)

    def encode(self, values: np.ndarray) -> dict:
        """``{width: <base64 codes>}``, plus ``"extra"`` if some cell is no category."""
        # A plain lookup is exact when only a str can equal a key (a str
        # subclass equal to one crosses JSON as that very string anyway), or
        # when int and str cells meet int and str keys (a bool or a float can
        # equal an int key, a list a tuple key).
        if self.str_only or (self.plain and set(map(type, values)) <= {int, str}):
            try:
                found = map(self.lookup.__getitem__, values)
                codes = np.fromiter(found, dtype=_CODE_WIDTHS[self.width], count=len(values))
                return {self.width: _base64_text(codes)}
            except (KeyError, TypeError):  # a cell that is no category
                pass
        codes = np.fromiter(map(self.code, values), dtype=np.int64, count=len(values))
        others = np.flatnonzero(codes < 0)
        codes[others] = np.arange(len(self.categories), len(self.categories) + len(others))
        width = _code_width(len(self.categories) + len(others) - 1)
        column = {width: _base64_text(codes.astype(_CODE_WIDTHS[width]))}
        if len(others):
            column["extra"] = values[others].tolist()
        return column

    def code(self, value) -> int:
        """The code of ``value``, or -1 if it is no category."""
        try:
            code = self.lookup.get(tuples_from_json(value), -1)
        except TypeError:  # a dict, or a list holding one
            return -1
        return code if code >= 0 and _same_value(value, self.categories[code]) else -1

    def decode(self, name: str, column) -> np.ndarray:
        """A wire column as its object array; ``ValueError`` naming it if malformed."""
        if not isinstance(column, dict):
            raise ValueError(
                f'column {name!r}: expected {{"u1"|"u2"|"u4": <base64>}}, '
                f"got {type(column).__name__}"
            )
        widths = column.keys() - {"extra"}
        if len(widths) != 1 or not widths <= _CODE_WIDTHS.keys():
            raise ValueError(
                f'column {name!r}: expected one code width key ("u1", "u2" or "u4") and '
                f'an optional "extra", got keys {sorted(map(repr, column))}'
            )
        (width,) = widths
        if not isinstance(column[width], str):
            raise ValueError(f"column {name!r}: codes are not a base64 string")
        raw = _base64_bytes(name, column[width])
        if len(raw) % _CODE_WIDTHS[width].itemsize:
            raise ValueError(f"column {name!r}: {len(raw)} bytes is not a {width} count")
        codes = np.frombuffer(raw, dtype=_CODE_WIDTHS[width])
        extra = column.get("extra", [])
        if not isinstance(extra, list):
            raise ValueError(f'column {name!r}: "extra" is not an array')
        values = self.categories
        if extra:
            values = np.concatenate([values, np.fromiter(extra, dtype=object, count=len(extra))])
        try:
            return values[codes]
        except IndexError:
            raise ValueError(
                f"column {name!r}: code {int(codes.max())} is past its {len(values)} values"
            ) from None


class _WireSchema:
    """A decoded schema document and the codes of each categorical column."""

    __slots__ = ("schema", "codes")

    def __init__(self, document) -> None:
        self.schema = TableSchema.from_dict(document)
        self.codes = {
            spec.name: _CategoryCodes(spec.categories)
            for spec in self.schema
            if spec.is_categorical
        }


# Decoded schema documents by their JSON text, and encode-side entries by the
# ids of a schema's column specs; least recently used first in both.
_WIRE_SCHEMAS: OrderedDict[str, _WireSchema] = OrderedDict()
_SCHEMA_DOCUMENTS: OrderedDict[tuple[int, ...], tuple] = OrderedDict()
_WIRE_SCHEMAS_KEPT = 16
# Reentrant: an encode-side miss builds its decode-side entry under the lock.
_WIRE_SCHEMAS_LOCK = threading.RLock()


def _remember(cache: OrderedDict, key, build):
    """``cache[key]``, made by ``build()`` on a miss; keeps the newest entries."""
    with _WIRE_SCHEMAS_LOCK:
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = build()
            if len(cache) > _WIRE_SCHEMAS_KEPT:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
    return entry


def _wire_schema(document) -> _WireSchema:
    """The decoded form of a schema document, built once per distinct document.

    Replies of one artifact then share one :class:`TableSchema` and its
    category objects, as in-process samples share ``transformer.schema``,
    and the server encodes every reply through the same category lookups.
    The key is the document's JSON text, so documents that Python finds
    equal but JSON does not (``true`` and ``1``) never share an entry.
    """
    try:
        key = json.dumps(document)
    except (TypeError, ValueError):  # not a JSON document: nothing to share
        return _WireSchema(document)
    return _remember(_WIRE_SCHEMAS, key, lambda: _WireSchema(document))


def _schema_wire(schema: TableSchema) -> tuple[dict, dict[str, _CategoryCodes]]:
    """A schema's wire document and category codes, found without building either.

    The key is the identity of the schema's column specs: they are frozen,
    so the same specs always give the same document, and the entry holds
    them, so their ids cannot be reused while it is kept.
    """
    specs = tuple(schema.columns)

    def build() -> tuple:
        document = schema.to_dict()
        return specs, document, _wire_schema(document).codes

    _, document, codes = _remember(_SCHEMA_DOCUMENTS, tuple(map(id, specs)), build)
    return document, codes


def _column_from_wire(spec: ColumnSpec, value, codes: _CategoryCodes | None) -> np.ndarray:
    """One wire column as its storage array; ``ValueError`` if malformed."""
    if spec.is_continuous:
        if not (isinstance(value, dict) and set(value) == {"f8"} and isinstance(value["f8"], str)):
            raise ValueError(f'column {spec.name!r}: expected {{"f8": <base64>}}')
        raw = _base64_bytes(spec.name, value["f8"])
        if len(raw) % 8:
            raise ValueError(f"column {spec.name!r}: {len(raw)} bytes is not a float64 count")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return codes.decode(spec.name, value)


def table_from_wire(document: dict) -> Table:
    """Rebuild a :class:`~repro.tabular.table.Table` from its wire document.

    The document may come off the network, so any malformed part raises
    ``ValueError`` (naming the column where there is one) instead of a
    ``KeyError`` or ``TypeError`` from deep inside.  Tables decoded from one
    schema document share one schema, and their categorical cells are that
    schema's category objects (see :class:`_CategoryCodes`).
    """
    try:
        wire_schema = _wire_schema(document["schema"])
        wire_columns = document["columns"]
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed table document: {error!r}") from None
    if not isinstance(wire_columns, dict):
        raise ValueError("malformed table document: columns is not an object")
    schema = wire_schema.schema
    columns = {}
    for spec in schema:
        if spec.name not in wire_columns:
            raise ValueError(f"column {spec.name!r}: missing")
        columns[spec.name] = _column_from_wire(
            spec, wire_columns[spec.name], wire_schema.codes.get(spec.name)
        )
    if columns:
        lengths = Counter(len(values) for values in columns.values())
        n_rows = lengths.most_common(1)[0][0]
        for name, values in columns.items():
            if len(values) != n_rows:
                raise ValueError(
                    f"column {name!r}: {len(values)} rows, the other columns have {n_rows}"
                )
    return Table(schema, columns)


# --------------------------------------------------------------------------- #
# The serving pool
# --------------------------------------------------------------------------- #
def check_conditions(sampler, conditions: dict, artifact: str) -> None:
    """Raise ``ValueError`` naming the first column of ``conditions`` that
    ``artifact``, a model with condition sampler ``sampler`` (``None`` when
    unconditional), cannot condition on: an unknown column, a value outside
    the column's categories, or any column at all on an unconditional model.
    HTTP admission and ``repro sample`` both check requests with it."""
    for name, value in conditions.items():
        if sampler is None:
            raise ValueError(f"condition {name!r}: {artifact!r} takes no conditions")
        try:
            sampler.vector_from_values({name: value})
        except KeyError:
            raise ValueError(f"unknown condition column {name!r}") from None
        except (TypeError, ValueError):
            raise ValueError(f"condition {name!r}: {value!r} is not a category") from None


def _pool_sample_task(payload: tuple):
    """Executor work unit: sample from a resident model.

    ``payload`` is ``(state_ref, n, conditions, seed)``.  The model rides
    as a :class:`~repro.runtime.StateRef` -- resolved (and cached)
    worker-side, so steady-state tasks ship only the ref and the request
    parameters, never the model.  ``seed=None`` leaves the model on its
    own sampling seed, exactly like ``model.sample(n)``.
    """
    state_ref, n, conditions, seed = payload
    rng = sampling_rng(seed) if seed is not None else None
    return state_ref.resolve().sample(n, conditions=conditions, rng=rng)


class ServingPool:
    """N workers serving sampling requests from shared resident models.

    Each artifact directory is loaded **once** in the parent and installed
    into the execution plane via ``Executor.install``: thread pools share
    the parent's object directly, process pools share one pickled copy in
    ``multiprocessing.shared_memory`` that every worker resolves and
    caches.  ``sample_batch`` dispatches requests through
    ``Executor.map_tasks`` under a :class:`~repro.runtime.TaskPolicy`, so
    deadlines, retries and structured failures behave exactly as in the
    rest of the runtime.

    Artifacts are addressed by the path string they were registered under;
    unambiguous directory basenames work as aliases (``kinetgan`` for
    ``artifacts/kinetgan``).
    """

    def __init__(
        self,
        artifacts: dict[str, str | Path] | list[str | Path],
        executor: Executor | str | int | None = None,
        *,
        task_retries: int = 0,
    ) -> None:
        if not artifacts:
            raise ValueError("ServingPool needs at least one artifact")
        if isinstance(artifacts, dict):
            items = [(str(name), Path(path)) for name, path in artifacts.items()]
        else:
            items = [(str(path), Path(path)) for path in artifacts]
        self._owns_executor = not isinstance(executor, Executor)
        self.executor = resolve_executor(executor)
        self.task_retries = task_retries
        self.manifests: OrderedDict[str, dict] = OrderedDict()
        self._refs: dict[str, object] = {}
        self._samplers: dict[str, object] = {}
        self._aliases: dict[str, str] = {}
        try:
            for name, path in items:
                artifact = ModelArtifact.open(path)
                model = load_model(path)
                # Thread-pool workers sample one resident model
                # concurrently.  Sampling runs eval forwards, which never
                # touch a step workspace; unbinding also keeps any training
                # pass on the resident copy on the allocating,
                # bit-identical paths (see Sequential.unbind_workspace).
                for network in model.artifact_networks().values():
                    network.unbind_workspace()
                self.manifests[name] = dict(artifact.manifest)
                self._refs[name] = self.executor.install(model)
                self._samplers[name] = getattr(model, "sampler", None)
            # Aliases: the artifact's directory path (as given and resolved)
            # plus its basename when unambiguous, so clients can address a
            # model by name or by path interchangeably.
            candidates: dict[str, list[str]] = {}
            for name, path in items:
                for alias in {str(path), str(path.resolve()), path.name}:
                    candidates.setdefault(alias, []).append(name)
            self._aliases = {
                alias: names[0]
                for alias, names in candidates.items()
                if len(set(names)) == 1 and alias not in self._refs
            }
        except BaseException:
            if self._owns_executor:
                self.executor.close()
            raise
        self._closed = False

    @property
    def artifact_names(self) -> list[str]:
        """Registered artifact keys, in registration order."""
        return list(self.manifests)

    def resolve_name(self, artifact: str) -> str | None:
        """Canonical key for ``artifact`` (exact or basename alias), or None."""
        if artifact in self._refs:
            return artifact
        return self._aliases.get(artifact)

    def check_conditions(self, artifact: str, conditions: dict) -> None:
        """:func:`check_conditions` for ``artifact`` (a canonical key)."""
        check_conditions(self._samplers[artifact], conditions, artifact)

    def sample_batch(
        self,
        requests: list[tuple[str, int, dict | None, int | None]],
        timeout: float | None = None,
    ) -> list:
        """Dispatch ``(artifact, n, conditions, seed)`` requests to the pool.

        Returns the runtime's structured :class:`~repro.runtime.TaskResult`
        list in request order: ``result.value`` is the sampled table,
        ``result.failure`` a :class:`~repro.runtime.TaskFailure` whose
        ``cause`` distinguishes deadline overruns (``timeout``) from model
        errors (``error``) and worker crashes (``crash``).
        """
        if self._closed:
            raise RuntimeError("ServingPool is closed")
        payloads = []
        for artifact, n, conditions, seed in requests:
            key = self.resolve_name(artifact)
            if key is None:
                raise KeyError(artifact)
            payloads.append((self._refs[key], n, conditions, seed))
        policy = TaskPolicy(timeout=timeout, retries=self.task_retries)
        return self.executor.map_tasks(_pool_sample_task, payloads, policy)

    def close(self) -> None:
        """Evict resident models and release the executor (if owned)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_executor:
            self.executor.close()
        else:
            for ref in self._refs.values():
                self.executor.evict(ref)

    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# The HTTP server
# --------------------------------------------------------------------------- #
class ServerStats:
    """Monotonic request counters (thread-safe), surfaced by ``/health``.

    Each bump is mirrored into the ``repro_http_requests_total`` counter
    family of ``registry`` (the process-wide default unless one is given),
    so ``GET /metrics`` exposes the same outcomes Prometheus-style.  The
    instance's own fields stay authoritative for ``/health``: they count
    this server only, while the registry family accumulates process-wide.
    """

    _FIELDS = ("admitted", "served", "rejected", "timeouts", "errors", "invalid")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)
        registry = registry if registry is not None else default_registry()
        self._counters = {
            name: registry.counter(
                "repro_http_requests_total",
                help="HTTP requests by outcome (admitted/served/rejected/...).",
                labels={"outcome": name},
            )
            for name in self._FIELDS
        }

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)
        self._counters[name].inc(by)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}


class _Admitted:
    """One admitted request riding the queue to the dispatcher."""

    __slots__ = ("artifact", "n", "conditions", "seed", "future", "enqueued")

    def __init__(self, artifact: str, n: int, conditions, seed) -> None:
        self.artifact = artifact
        self.n = n
        self.conditions = conditions
        self.seed = seed
        self.future: Future = Future()
        self.enqueued = time.monotonic()


class _HTTPError(Exception):
    """An HTTP error response (status + JSON body + extra headers)."""

    def __init__(self, status: int, message: str, headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class _Handler(BaseHTTPRequestHandler):
    """Request handler; all state lives on ``self.server`` (the outer class)."""

    protocol_version = "HTTP/1.1"
    server: "SamplingHTTPServer"

    # -- plumbing ------------------------------------------------------- #
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(
        self, status: int, body: bytes, content_type: str, headers: dict | None = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        # Record the request before its body leaves: a client holding the
        # reply then always finds it in GET /metrics.
        self._observe(status)
        self.wfile.write(body)

    def _respond(self, status: int, document: dict, headers: dict | None = None) -> None:
        body = json.dumps(document).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _fail(self, error: _HTTPError) -> None:
        self._respond(error.status, {"error": str(error)}, error.headers)

    def _respond_metrics(self, query: str) -> None:
        if query == "format=json":
            self._respond(200, self.server.metrics_snapshot())
            return
        body = self.server.metrics_text().encode("utf-8")
        self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")

    # -- latency -------------------------------------------------------- #
    def _begin(self, endpoint: str) -> None:
        self._endpoint = endpoint
        self._start = time.perf_counter()
        self._observed = False

    def _observe(self, status: int) -> None:
        if not self._observed:
            self._observed = True
            self.server.observe_request(self._endpoint, status, time.perf_counter() - self._start)

    # -- routes --------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802
        path, _, query = self.path.partition("?")
        self._begin(path)
        try:
            if path == "/health":
                self._respond(200, self.server.health())
            elif path == "/artifacts":
                self._respond(200, {"artifacts": self.server.pool.manifests})
            elif path == "/metrics":
                self._respond_metrics(query)
            else:
                self._fail(_HTTPError(404, f"no route {self.path!r}"))
        finally:
            self._observe(500)  # no reply was sent

    def do_POST(self) -> None:  # noqa: N802
        self._begin(self.path)
        try:
            if self.path != "/sample":
                self._fail(_HTTPError(404, f"no route {self.path!r}"))
                return
            try:
                admitted = self.server.admit(self._parse_sample_body())
                self._respond(200, self.server.await_result(admitted))
            except _HTTPError as error:
                self._fail(error)
        finally:
            self._observe(500)  # no reply was sent

    def _parse_sample_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise _HTTPError(400, "missing or invalid Content-Length")
        if length <= 0:
            raise _HTTPError(400, "empty request body")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HTTPError(400, f"malformed JSON body: {error}")
        if not isinstance(body, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return body


class SamplingHTTPServer:
    """HTTP front door over a :class:`ServingPool`, with production semantics.

    * **Bounded admission**: at most ``queue_depth`` requests wait at once;
      requests arriving while the queue is full are rejected immediately
      with ``429`` and a ``Retry-After: <retry_after>`` header, so clients
      get backpressure instead of unbounded latency.
    * **Per-artifact concurrency**: per dispatch burst at most
      ``artifact_concurrency`` requests of the same artifact run on the
      pool together; excess requests stay queued (fair to other artifacts,
      bounds any one model's worker share).
    * **Deadlines**: ``request_deadline`` bounds both queue wait and
      execution (via :class:`~repro.runtime.TaskPolicy`); an overrun
      answers ``504``.
    * **Graceful drain**: ``stop(drain=True)`` stops admitting (``503``),
      serves every request already admitted, then shuts the listener down.

    Use as a context manager or call :meth:`start` / :meth:`stop`.  The
    operator runbook (knob tuning, capacity planning) is
    ``docs/serving.md``.
    """

    def __init__(
        self,
        pool: ServingPool,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_depth: int = 64,
        artifact_concurrency: int = 8,
        request_deadline: float | None = None,
        max_rows: int = 1_000_000,
        retry_after: float = 1.0,
        verbose: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if artifact_concurrency < 1:
            raise ValueError("artifact_concurrency must be positive")
        if request_deadline is not None and request_deadline <= 0:
            raise ValueError("request_deadline must be positive (or None)")
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        self.pool = pool
        self.queue_depth = queue_depth
        self.artifact_concurrency = artifact_concurrency
        self.request_deadline = request_deadline
        self.max_rows = max_rows
        self.retry_after = retry_after
        self.verbose = verbose
        # The registry behind GET /metrics.  The process-wide default also
        # receives the runtime's task/pool counters and any engine metrics
        # published in this process, so one scrape covers all three layers;
        # pass a private registry to isolate a server (tests do).
        self.registry = registry if registry is not None else default_registry()
        self.stats = ServerStats(self.registry)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._listener: threading.Thread | None = None
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        # The handler reaches the front-end through its server object.
        self._httpd.pool = pool  # type: ignore[attr-defined]
        self._httpd.admit = self.admit  # type: ignore[attr-defined]
        self._httpd.await_result = self.await_result  # type: ignore[attr-defined]
        self._httpd.health = self.health  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.metrics_text = self.metrics_text  # type: ignore[attr-defined]
        self._httpd.metrics_snapshot = self.metrics_snapshot  # type: ignore[attr-defined]
        self._httpd.observe_request = self._observe_request  # type: ignore[attr-defined]

    # -- lifecycle ------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port resolved when ``port=0``)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "SamplingHTTPServer":
        """Start the listener and dispatcher threads (idempotent)."""
        if self._listener is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serving-dispatcher", daemon=True
            )
            self._dispatcher.start()
            self._listener = threading.Thread(
                target=self._httpd.serve_forever, name="serving-listener", daemon=True
            )
            self._listener.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down; with ``drain`` serve everything already admitted first.

        New requests are answered ``503`` the moment drain begins.  Without
        ``drain``, queued requests fail with ``503`` instead of running.
        """
        self._draining.set()
        if not drain:
            self._flush_queue("server stopped before serving this request")
        deadline = time.monotonic() + timeout
        while drain and not self._queue.empty() and time.monotonic() < deadline:
            time.sleep(0.01)
        self._stopped.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=max(0.0, deadline - time.monotonic()))
            self._dispatcher = None
        self._httpd.shutdown()
        if self._listener is not None:
            self._listener.join(timeout=5.0)
            self._listener = None
        self._httpd.server_close()

    def __enter__(self) -> "SamplingHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- admission ------------------------------------------------------ #
    def admit(self, body: dict) -> _Admitted:
        """Validate a parsed ``/sample`` body and enqueue it, or raise.

        Raises :class:`_HTTPError` 503 while draining, 400 for invalid
        fields (``conditions`` included, checked against the artifact's
        condition vocabulary), 404 for unknown artifacts and 429 (with
        ``Retry-After``) when the admission queue is full.
        """
        if self._draining.is_set():
            raise _HTTPError(503, "server is draining; not admitting new requests")
        artifact = body.get("artifact")
        if not isinstance(artifact, str) or not artifact:
            self.stats.bump("invalid")
            raise _HTTPError(400, "body needs an 'artifact' string")
        key = self.pool.resolve_name(artifact)
        if key is None:
            self.stats.bump("invalid")
            raise _HTTPError(
                404, f"unknown artifact {artifact!r}; serving {self.pool.artifact_names}"
            )
        n = body.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            self.stats.bump("invalid")
            raise _HTTPError(400, "body needs a positive integer 'n'")
        if n > self.max_rows:
            self.stats.bump("invalid")
            raise _HTTPError(400, f"n={n} exceeds the server's max_rows={self.max_rows}")
        conditions = body.get("conditions")
        if conditions is not None and not isinstance(conditions, dict):
            self.stats.bump("invalid")
            raise _HTTPError(400, "'conditions' must be an object or null")
        try:
            self.pool.check_conditions(key, conditions or {})
        except ValueError as error:
            self.stats.bump("invalid")
            raise _HTTPError(400, str(error))
        seed = body.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            self.stats.bump("invalid")
            raise _HTTPError(400, "'seed' must be an integer or null")
        admitted = _Admitted(key, n, conditions, seed)
        try:
            self._queue.put_nowait(admitted)
        except queue.Full:
            self.stats.bump("rejected")
            raise _HTTPError(
                429,
                f"admission queue full ({self.queue_depth} pending); retry later",
                headers={"Retry-After": f"{self.retry_after:g}"},
            )
        self.stats.bump("admitted")
        self._queue_gauge().set(self._queue.qsize())
        return admitted

    def await_result(self, admitted: _Admitted) -> dict:
        """Block until the dispatcher resolves the request; map to a document."""
        try:
            table = admitted.future.result()
        except _HTTPError:
            raise
        except Exception as error:  # pragma: no cover - defensive
            raise _HTTPError(500, f"internal serving error: {error}")
        return {
            "artifact": admitted.artifact,
            "n": admitted.n,
            "seed": admitted.seed,
            **table_to_wire(table),
        }

    def health(self) -> dict:
        """The ``/health`` document."""
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_depth,
            "artifacts": self.pool.artifact_names,
            "workers": getattr(self.pool.executor, "max_workers", 1),
            "request_deadline": self.request_deadline,
            "stats": self.stats.snapshot(),
            "runtime": self._runtime_health(),
        }

    def _runtime_health(self) -> dict:
        """Runtime-internal counters for ``/health``: respawns, task tallies.

        Task counters live in the process-wide default registry (that is
        where ``Executor.map_tasks`` records), labelled by executor kind;
        they accumulate across every pool of that kind in the process, so
        treat them as monotonic process totals, not per-server counts.
        """
        executor = self.pool.executor
        registry = default_registry()
        labels = {"executor": executor.name}

        def count(metric: str, extra: dict | None = None) -> int:
            value = registry.value(metric, {**labels, **(extra or {})})
            return int(value) if value else 0

        return {
            "executor": executor.name,
            "respawns": getattr(executor, "respawns", 0),
            "tasks": {
                "dispatched": count("repro_tasks_dispatched_total"),
                "completed": count("repro_tasks_completed_total"),
                "retries": count("repro_task_retries_total"),
                "timeouts": count("repro_tasks_failed_total", {"cause": "timeout"}),
                "crashes": count("repro_tasks_failed_total", {"cause": "crash"}),
                "errors": count("repro_tasks_failed_total", {"cause": "error"}),
            },
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition."""
        return self.registry.prometheus_text()

    def metrics_snapshot(self) -> dict:
        """The ``GET /metrics?format=json`` document."""
        return self.registry.snapshot()

    def _observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one HTTP request into the per-endpoint latency histogram."""
        self.registry.histogram(
            "repro_http_request_seconds",
            help="End-to-end HTTP request latency by endpoint and status.",
            labels={"endpoint": endpoint, "status": str(status)},
        ).observe(seconds)

    def _queue_gauge(self):
        return self.registry.gauge(
            "repro_http_queue_depth",
            help="Requests waiting in the admission queue.",
        )

    def _inflight_gauge(self):
        return self.registry.gauge(
            "repro_http_inflight",
            help="Requests currently executing on the serving pool.",
        )

    # -- dispatch ------------------------------------------------------- #
    def _dispatch_loop(self) -> None:
        """Single dispatcher: drain bursts, cap per artifact, run the pool.

        Dispatch runs on exactly one thread because ``Executor.map_tasks``
        is not safe to call concurrently; the burst shape (one
        ``map_tasks`` per drain) is also what makes the per-artifact cap
        a real concurrency bound on the workers.
        """
        deferred: list[_Admitted] = []
        while True:
            batch = deferred
            deferred = []
            if not batch:
                try:
                    batch.append(self._queue.get(timeout=0.05))
                except queue.Empty:
                    if self._stopped.is_set():
                        return
                    continue
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            dispatch: list[_Admitted] = []
            counts: dict[str, int] = {}
            for item in batch:
                if counts.get(item.artifact, 0) < self.artifact_concurrency:
                    counts[item.artifact] = counts.get(item.artifact, 0) + 1
                    dispatch.append(item)
                else:
                    deferred.append(item)
            self._run_batch(dispatch)
            if self._stopped.is_set() and not deferred and self._queue.empty():
                return

    def _run_batch(self, batch: list[_Admitted]) -> None:
        live: list[_Admitted] = []
        now = time.monotonic()
        for item in batch:
            if not item.future.set_running_or_notify_cancel():
                continue
            waited = now - item.enqueued
            if self.request_deadline is not None and waited > self.request_deadline:
                self.stats.bump("timeouts")
                item.future.set_exception(
                    _HTTPError(
                        504,
                        f"request queued {waited:.3f}s, past its "
                        f"{self.request_deadline}s deadline",
                    )
                )
                continue
            live.append(item)
        if not live:
            return
        requests = [(item.artifact, item.n, item.conditions, item.seed) for item in live]
        self._queue_gauge().set(self._queue.qsize())
        self._inflight_gauge().inc(len(live))
        try:
            results = self.pool.sample_batch(requests, timeout=self.request_deadline)
        except Exception as error:
            for item in live:
                item.future.set_exception(_HTTPError(500, f"dispatch failed: {error}"))
            return
        finally:
            self._inflight_gauge().dec(len(live))
        for item, result in zip(live, results):
            if result.failure is None:
                self.stats.bump("served")
                item.future.set_result(result.value)
                continue
            failure = result.failure
            if failure.cause == "timeout":
                self.stats.bump("timeouts")
                item.future.set_exception(
                    _HTTPError(504, f"sampling overran its deadline: {failure.message}")
                )
            elif failure.cause == "error":
                self.stats.bump("errors")
                item.future.set_exception(
                    _HTTPError(400, f"sampling failed: {failure.message}")
                )
            else:
                self.stats.bump("errors")
                item.future.set_exception(
                    _HTTPError(500, f"worker failure ({failure.cause}): {failure.message}")
                )

    def _flush_queue(self, message: str) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(_HTTPError(503, message))


# --------------------------------------------------------------------------- #
# Client helpers
# --------------------------------------------------------------------------- #
def fetch_json(url: str, path: str, timeout: float = 30.0) -> dict:
    """GET ``url + path`` and parse the JSON document (e.g. ``/health``)."""
    with urllib.request.urlopen(url.rstrip("/") + path, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def request_samples(
    url: str,
    artifact: str,
    n: int,
    conditions: dict | None = None,
    seed: int | None = None,
    timeout: float = 60.0,
) -> Table:
    """POST a ``/sample`` request and rebuild the returned table.

    Raises :class:`urllib.error.HTTPError` on non-200 responses (status
    429 carries a ``Retry-After`` header; inspect ``error.headers``).
    The returned table is bit-identical to the in-process
    ``model.sample(n, conditions, sampling_rng(seed))``.
    """
    body = json.dumps(
        {"artifact": artifact, "n": n, "conditions": conditions, "seed": seed}
    ).encode("utf-8")
    request = urllib.request.Request(
        url.rstrip("/") + "/sample",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return table_from_wire(json.loads(response.read().decode("utf-8")))
