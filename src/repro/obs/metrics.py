"""Process-local metrics registry with a Prometheus-text exporter.

The registry is deliberately tiny and dependency-free: three instrument
kinds (counter, gauge, fixed-bucket histogram), label support, a single
lock per child for thread safety, and two export formats -- the
Prometheus text exposition served by ``GET /metrics`` and a plain JSON
snapshot for programmatic scraping (``repro metrics --json``).

Instruments are created lazily and cached per ``(name, labels)`` pair,
so call sites simply do::

    default_registry().counter("repro_tasks_dispatched_total",
                               help="...", labels={"executor": "thread"}).inc()

Nothing here ever touches an RNG stream; recording a metric is a dict
lookup plus a locked float update, cheap enough to leave permanently on.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "default_registry",
    "set_default_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds), tuned for request / task latencies.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelValues = tuple[tuple[str, str], ...]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_suffix(labels: LabelValues, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value; ``inc`` by a non-negative amount."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; inc() amount must be >= 0")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value that can move in either direction."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative bucket counts, sum, and count."""

    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending with ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: list[tuple[float, int]] = []
        for bound, count in zip(self.bounds, counts):
            total += count
            out.append((bound, total))
        out.append((math.inf, total + counts[-1]))
        return out


class _Family:
    def __init__(self, name: str, kind: str, help_text: str, buckets: tuple[float, ...] | None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: dict[LabelValues, Counter | Gauge | Histogram] = {}


class MetricsRegistry:
    """Thread-safe home for every metric family in the process.

    One registry normally exists per process (:func:`default_registry`);
    tests construct their own for isolation.  A family is identified by
    its metric name; children within a family are identified by their
    sorted label pairs.  Re-requesting an existing family with a
    conflicting kind raises, mirroring Prometheus client behaviour.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _labels_key(self, labels: Mapping[str, str] | None) -> LabelValues:
        if not labels:
            return ()
        pairs = []
        for key in sorted(labels):
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name: {key!r}")
            pairs.append((key, str(labels[key])))
        return tuple(pairs)

    def _child(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Mapping[str, str] | None,
        buckets: tuple[float, ...] | None = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        key = self._labels_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, not {kind}"
                )
            child = family.children.get(key)
            if child is None:
                if kind == "counter":
                    child = Counter()
                elif kind == "gauge":
                    child = Gauge()
                else:
                    child = Histogram(family.buckets or DEFAULT_BUCKETS)
                family.children[key] = child
            return child

    def counter(
        self, name: str, *, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._child(name, "counter", help, labels)

    def gauge(self, name: str, *, help: str = "", labels: Mapping[str, str] | None = None) -> Gauge:
        return self._child(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        *,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._child(name, "histogram", help, labels, tuple(float(b) for b in buckets))

    def value(self, name: str, labels: Mapping[str, str] | None = None) -> float | None:
        """Current value of a counter/gauge child, or ``None`` if absent."""
        key = self._labels_key(labels)
        with self._lock:
            family = self._families.get(name)
            child = family.children.get(key) if family else None
        if child is None or isinstance(child, Histogram):
            return None
        return child.value

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        with self._lock:
            families = [
                (family, sorted(family.children.items()))
                for _, family in sorted(self._families.items())
            ]
        lines: list[str] = []
        for family, children in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in children:
                if isinstance(child, Histogram):
                    for bound, cumulative in child.cumulative():
                        suffix = _label_suffix(labels, (("le", _format_value(bound)),))
                        lines.append(f"{family.name}_bucket{suffix} {cumulative}")
                    base = _label_suffix(labels)
                    lines.append(f"{family.name}_sum{base} {_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{base} {child.count}")
                else:
                    suffix = _label_suffix(labels)
                    lines.append(f"{family.name}{suffix} {_format_value(child.value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """JSON-serialisable dump: family -> kind/help/samples."""
        with self._lock:
            families = [
                (family, sorted(family.children.items()))
                for _, family in sorted(self._families.items())
            ]
        out: dict[str, dict] = {}
        for family, children in families:
            samples = []
            for labels, child in children:
                entry: dict = {"labels": dict(labels)}
                if isinstance(child, Histogram):
                    entry["count"] = child.count
                    entry["sum"] = child.sum
                    entry["buckets"] = [
                        {"le": "+Inf" if math.isinf(b) else b, "count": c}
                        for b, c in child.cumulative()
                    ]
                else:
                    entry["value"] = child.value
                samples.append(entry)
            out[family.name] = {"kind": family.kind, "help": family.help, "samples": samples}
        return out

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every built-in instrument records into."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
