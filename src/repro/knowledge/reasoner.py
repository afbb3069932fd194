"""Reasoning over the NetworkKG.

:class:`KGReasoner` answers the queries the paper's knowledge-guided
discriminator needs (section III-B): given a (partial) record, is the
attribute combination valid, and which values of a given attribute are
admissible?  The reasoner works purely from the knowledge-graph triples the
builder produced -- it never sees the original catalog.

Validity
--------
``KGReasoner.__init__`` compiles the graph once into an immutable
constraint table with five families: ``protocol``, ``source-ip``,
``destination-ip``, ``destination-port`` and ``source-port``.  Every
validity query is one evaluator over that table, which yields a violation
mask per family (:meth:`KGReasoner.violation_masks`);
:meth:`~KGReasoner.validity_mask`, :meth:`~KGReasoner.violations`, the
:class:`~repro.knowledge.validator.BatchValidator` reports and the tables
D_KG gets from :meth:`~KGReasoner.bind` all read those masks.  A row is
valid when its event is known and no family is violated.  The special
cases, stated once here:

1. a ``None`` event is skipped: the row is valid whatever its other values;
2. an unknown event (one the graph does not describe) is invalid, reported
   as the ``known-event`` rule, and no family is checked for it;
3. an empty allowed set leaves its family unconstrained for that event;
4. an unparseable destination port (not a finite number) is invalid for
   every known event, constrained or not; parsed ports are truncated to
   integers;
5. the source port is checked only when the event has a source-port range.

A family whose column is missing from the record or table is not checked,
and without an event column nothing is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.knowledge.builder import (
    EVENT_NS,
    IP_NS,
    PORT_NS,
    PROTOCOL_NS,
)
from repro.knowledge.catalog import DEFAULT_FIELD_MAP
from repro.knowledge.graph import KnowledgeGraph

__all__ = [
    "BoundConstraints",
    "ConstraintFamily",
    "EventConstraints",
    "KGReasoner",
    "KNOWN_EVENT",
    "Violation",
]

#: Rule name of the violation an unknown event type raises.
KNOWN_EVENT = "known-event"


def _strip(uri: object, namespace: str) -> str:
    text = str(uri)
    if text.startswith(namespace):
        return text[len(namespace) :]
    return text


def _numeric_column(values) -> tuple[np.ndarray, np.ndarray]:
    """``(floats, parseable)`` for a possibly non-numeric column; anything
    that fails to parse as a float, or is non-finite, is unparseable."""
    values = np.asarray(values)
    try:
        floats = values.astype(np.float64)
    except (TypeError, ValueError):
        floats = np.full(len(values), np.nan)
        for i, value in enumerate(values):
            try:
                floats[i] = float(value)
            except (TypeError, ValueError):
                pass
    return floats, np.isfinite(floats)


def _columns(table_or_columns) -> tuple[list[str], object, int]:
    """``(names, get_column, n_rows)`` of a Table or a ``{column: array}`` mapping."""
    if isinstance(table_or_columns, Mapping):
        names = list(table_or_columns)
        n_rows = len(table_or_columns[names[0]]) if names else 0
        return names, table_or_columns.__getitem__, n_rows
    table = table_or_columns
    return list(table.schema.names), table.column, table.n_rows


@dataclass(frozen=True)
class EventConstraints:
    """What the knowledge graph allows for one event type (empty: unconstrained)."""

    name: str
    kind: str = "benign"
    protocols: frozenset[str] = frozenset()
    source_ips: frozenset[str] = frozenset()
    destination_ips: frozenset[str] = frozenset()
    destination_ports: frozenset[int] = frozenset()
    destination_port_range: tuple[int, int] | None = None
    source_port_range: tuple[int, int] | None = None


@dataclass(frozen=True)
class Violation:
    """One violated rule of one record."""

    rule_name: str
    attribute: str
    value: object
    reason: str


@dataclass(frozen=True)
class ConstraintFamily:
    """One family of the compiled constraint table.

    Raw values map to codes through the family's fixed ``vocabulary``, the
    union of its allowed values over all events (a ``{value: code}`` dict,
    or the sorted port array of a port family), plus one extra code,
    ``len(vocabulary)``, for a value in no allowed set.  Row ``e`` of
    ``allowed`` holds event ``e``'s membership bits (all true when the
    event leaves the family unconstrained).  Port families parse their
    values and add an inclusive per-event ``[low, high]`` range (empty:
    ``low > high``) and ``needs_number``, the events for which an
    unparseable value violates; membership families leave those ``None``.
    """

    name: str
    role: str
    vocabulary: dict | np.ndarray
    allowed: np.ndarray
    low: np.ndarray | None = None
    high: np.ndarray | None = None
    needs_number: np.ndarray | None = None

    def encode(self, values) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """``(codes, ports, parseable)`` of raw values (ports: port families only)."""
        absent = len(self.vocabulary)
        if self.low is None:
            get = self.vocabulary.get
            codes = np.fromiter((get(value, absent) for value in values), np.intp, len(values))
            return codes, None, None
        floats, parseable = _numeric_column(values)
        # Clipping keeps the int64 cast defined; no allowed port comes near 2**62.
        ports = np.trunc(np.clip(np.where(parseable, floats, 0.0), -(2.0**62), 2.0**62))
        ports = ports.astype(np.int64)
        codes = np.full(len(ports), absent, dtype=np.intp)
        if absent:
            at = np.minimum(np.searchsorted(self.vocabulary, ports), absent - 1)
            hit = self.vocabulary[at] == ports
            codes[hit] = at[hit]
        return codes, ports, parseable

    def violated(self, events, codes, ports=None, parseable=None) -> np.ndarray:
        """Violation mask of encoded values under table event codes (broadcasts)."""
        out = ~self.allowed[events, codes]
        if self.low is None:
            return out
        out &= (ports < self.low[events]) | (ports > self.high[events])
        return np.where(parseable, out, self.needs_number[events])


@dataclass(frozen=True)
class BoundConstraints:
    """The constraint table bound to fixed category lists (:meth:`KGReasoner.bind`).

    Row ``e`` of each array belongs to the ``e``-th event category:
    ``events`` is its table event code and ``known`` is false when the graph
    does not describe it.  ``tables[column][e, c]`` is the family validity
    of ``column``'s category ``c`` under event category ``e`` (all true for
    unknown and ``None`` events).  ``families`` holds the families of the
    constrained columns that were not bound, for :meth:`column_valid`.
    """

    events: np.ndarray
    known: np.ndarray
    tables: dict[str, np.ndarray]
    families: dict[str, ConstraintFamily]

    def column_valid(self, column: str, event_codes, values) -> np.ndarray:
        """Family validity of raw ``values`` of an unbound column, per
        event-category code."""
        family = self.families[column]
        return ~family.violated(self.events[event_codes], *family.encode(values))


class KGReasoner:
    """Validity queries over a NetworkKG."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        field_map: dict[str, str] | None = None,
    ) -> None:
        self.graph = graph
        self.field_map = dict(field_map) if field_map is not None else dict(DEFAULT_FIELD_MAP)
        self._constraints: dict[str, EventConstraints] = {
            c.name: c for c in map(self._read_event, graph.entities_of_type("EventType"))
        }
        # Table event codes: one per graph event, then unknown, then None.
        self._event_index: dict = {name: code for code, name in enumerate(self._constraints)}
        self._unknown = len(self._event_index)
        self._event_index[None] = self._unknown + 1
        self.families: tuple[ConstraintFamily, ...] = self._compile_families()

    # ------------------------------------------------------------------ #
    # Compilation from triples
    # ------------------------------------------------------------------ #
    def _read_event(self, event_uri: str) -> EventConstraints:
        graph = self.graph
        kinds = graph.objects(event_uri, "hasEventKind")
        # Source IPs come from the devices allowed to originate the event.
        source_ips = {
            _strip(ip_uri, IP_NS)
            for device_uri in graph.objects(event_uri, "allowsSourceDevice")
            for ip_uri in graph.objects(str(device_uri), "hasIPAddress")
        }
        # Destination IPs: explicit IPs plus resolved domains.
        destination_ips = {
            _strip(ip_uri, IP_NS) for ip_uri in graph.objects(event_uri, "allowsDestinationIP")
        }
        for domain_uri in graph.objects(event_uri, "allowsDestinationDomain"):
            destination_ips.update(
                _strip(ip_uri, IP_NS) for ip_uri in graph.objects(str(domain_uri), "resolvesTo")
            )
        destination_ports = set()
        for port_uri in graph.objects(event_uri, "allowsDestinationPort"):
            numbers = graph.objects(str(port_uri), "portNumber")
            destination_ports.add(int(numbers[0]) if numbers else int(_strip(port_uri, PORT_NS)))
        return EventConstraints(
            name=_strip(event_uri, EVENT_NS),
            kind=str(kinds[0]) if kinds else "benign",
            protocols=frozenset(
                _strip(obj, PROTOCOL_NS) for obj in graph.objects(event_uri, "allowsProtocol")
            ),
            source_ips=frozenset(source_ips),
            destination_ips=frozenset(destination_ips),
            destination_ports=frozenset(destination_ports),
            destination_port_range=self._read_range(event_uri, "allowsDestinationPortRange"),
            source_port_range=self._read_range(event_uri, "allowsSourcePortRange"),
        )

    def _read_range(self, event_uri: str, predicate: str) -> tuple[int, int] | None:
        ranges = self.graph.objects(event_uri, predicate)
        if not ranges:
            return None
        range_uri = str(ranges[0])
        lows = self.graph.objects(range_uri, "rangeLow")
        highs = self.graph.objects(range_uri, "rangeHigh")
        if not lows or not highs:
            return None
        return int(lows[0]), int(highs[0])

    def _compile_families(self) -> tuple[ConstraintFamily, ...]:
        """The five families; rows of every array are the table event codes."""
        events = list(self._constraints.values())
        n_rows = len(events) + 2  # the unknown and None rows constrain nothing

        def frozen(array: np.ndarray) -> np.ndarray:
            array.flags.writeable = False
            return array

        def membership(vocabulary: list, sets: list) -> np.ndarray:
            """``allowed`` over ``vocabulary`` plus the absent code; ``None``
            sets leave their event unconstrained."""
            allowed = np.ones((n_rows, len(vocabulary) + 1), dtype=bool)
            for e, members in enumerate(sets):
                if members is not None:
                    allowed[e, :-1] = [value in members for value in vocabulary]
                    allowed[e, -1] = False
            return frozen(allowed)

        families = []
        for name, role, attr in (
            ("protocol", "protocol", "protocols"),
            ("source-ip", "source_ip", "source_ips"),
            ("destination-ip", "destination_ip", "destination_ips"),
        ):
            sets = [getattr(c, attr) or None for c in events]
            vocabulary = sorted(set().union(*filter(None, sets)), key=repr)
            index = {value: code for code, value in enumerate(vocabulary)}
            families.append(ConstraintFamily(name, role, index, membership(vocabulary, sets)))

        def port_family(name, role, ports, ranges, needs_number) -> ConstraintFamily:
            low = np.ones(n_rows, dtype=np.int64)
            high = np.zeros(n_rows, dtype=np.int64)
            for e, bounds in enumerate(ranges):
                if bounds is not None:
                    low[e], high[e] = bounds
            flags = np.zeros(n_rows, dtype=bool)
            flags[: len(events)] = needs_number
            vocabulary = sorted(set().union(*filter(None, ports)))
            return ConstraintFamily(
                name,
                role,
                frozen(np.array(vocabulary, dtype=np.int64)),
                membership(vocabulary, ports),
                frozen(low),
                frozen(high),
                frozen(flags),
            )

        # A destination port is constrained by its explicit set, its range or
        # both; an event with neither leaves it free but still needs a number.
        destination_sets = [
            c.destination_ports or (frozenset() if c.destination_port_range else None)
            for c in events
        ]
        families.append(
            port_family(
                "destination-port",
                "destination_port",
                destination_sets,
                [c.destination_port_range for c in events],
                [True] * len(events),
            )
        )
        families.append(
            port_family(
                "source-port",
                "source_port",
                [None if c.source_port_range is None else frozenset() for c in events],
                [c.source_port_range for c in events],
                [c.source_port_range is not None for c in events],
            )
        )
        return tuple(families)

    # ------------------------------------------------------------------ #
    # Basic lookups
    # ------------------------------------------------------------------ #
    def event_names(self) -> list[str]:
        return sorted(self._constraints)

    def has_event(self, event_name: str) -> bool:
        return event_name in self._constraints

    def constraints(self, event_name: str) -> EventConstraints:
        if event_name not in self._constraints:
            raise KeyError(f"unknown event type {event_name!r}")
        return self._constraints[event_name]

    def event_kind(self, event_name: str) -> str:
        return self.constraints(event_name).kind

    def attack_events(self) -> list[str]:
        return [name for name, c in self._constraints.items() if c.kind == "attack"]

    def benign_events(self) -> list[str]:
        return [name for name, c in self._constraints.items() if c.kind == "benign"]

    def valid_protocols(self, event_name: str) -> set[str]:
        return set(self.constraints(event_name).protocols)

    def valid_source_ips(self, event_name: str) -> set[str]:
        return set(self.constraints(event_name).source_ips)

    def valid_destination_ips(self, event_name: str) -> set[str]:
        return set(self.constraints(event_name).destination_ips)

    def destination_port_range(self, event_name: str) -> tuple[int, int] | None:
        return self.constraints(event_name).destination_port_range

    def source_port_range(self, event_name: str) -> tuple[int, int] | None:
        return self.constraints(event_name).source_port_range

    def valid_values(self, role: str, event_name: str) -> set:
        """Admissible values of a semantic role for a given event type.

        Roles are the keys of the field map (``protocol``, ``source_ip``,
        ``destination_ip``, ``destination_port``).  An empty set means the
        knowledge graph does not constrain that role for this event.
        """
        constraints = self.constraints(event_name)
        if role == "protocol":
            return set(constraints.protocols)
        if role == "source_ip":
            return set(constraints.source_ips)
        if role == "destination_ip":
            return set(constraints.destination_ips)
        if role == "destination_port":
            ports = set(constraints.destination_ports)
            if constraints.destination_port_range is not None:
                low, high = constraints.destination_port_range
                ports.update(range(low, high + 1))
            return ports
        raise ValueError(f"unknown role {role!r}")

    # ------------------------------------------------------------------ #
    # Validity (the paper's "Q" query; special cases: module docstring)
    # ------------------------------------------------------------------ #
    def _event_codes(self, values) -> np.ndarray:
        index, unknown = self._event_index, self._unknown
        return np.fromiter(
            (index.get(value, unknown) for value in values), dtype=np.intp, count=len(values)
        )

    def violation_masks(self, table_or_columns) -> dict[str, np.ndarray]:
        """Per-rule violation masks of a table or ``{column: array}`` mapping.

        ``known-event`` first, then one mask per family whose column is
        present, in :attr:`families` order; empty without an event column.
        """
        names, get_column, _ = _columns(table_or_columns)
        event_column = self.field_map["event_type"]
        if event_column not in names:
            return {}
        events = self._event_codes(get_column(event_column))
        masks = {KNOWN_EVENT: events == self._unknown}
        for family in self.families:
            column = self.field_map.get(family.role)
            if column in names:
                masks[family.name] = family.violated(events, *family.encode(get_column(column)))
        return masks

    def validity_mask(self, table_or_columns) -> np.ndarray:
        """Per-row validity of a whole table as one boolean array: the AND
        of the negated :meth:`violation_masks`."""
        _, _, n_rows = _columns(table_or_columns)
        valid = np.ones(n_rows, dtype=bool)
        for mask in self.violation_masks(table_or_columns).values():
            valid &= ~mask
        return valid

    def violations(self, record: Mapping) -> list[Violation]:
        """All violations of one record: the one-row evaluator plus messages."""
        columns = {KNOWN_EVENT: self.field_map["event_type"]}
        columns.update((f.name, self.field_map.get(f.role)) for f in self.families)
        event = record.get(columns[KNOWN_EVENT])
        found = []
        for rule, mask in self.violation_masks({k: [v] for k, v in record.items()}).items():
            if mask[0]:
                reason = f"invalid for event {event!r}"
                if rule == KNOWN_EVENT:
                    reason = "event type is not described in the knowledge graph"
                found.append(Violation(rule, columns[rule], record[columns[rule]], reason))
        return found

    def is_valid(self, record: Mapping) -> bool:
        """True when the record violates no knowledge-graph constraint."""
        return not self.violations(record)

    def bind(self, categories_by_column: Mapping[str, Sequence]) -> BoundConstraints:
        """The constraint table over fixed category lists (e.g. a transformer's).

        ``categories_by_column`` must list the event column.  Each family
        whose column is listed is evaluated once over every (event
        category, category) pair, with the same predicates as
        :meth:`violation_masks`; families over other columns stay in
        ``families`` for per-row evaluation.
        """
        events = self._event_codes(categories_by_column[self.field_map["event_type"]])
        tables, families = {}, {}
        for family in self.families:
            column = self.field_map.get(family.role)
            if column in categories_by_column:
                encoded = family.encode(categories_by_column[column])
                tables[column] = ~family.violated(events[:, None], *encoded)
            elif column is not None:
                families[column] = family
        return BoundConstraints(events, events != self._unknown, tables, families)
