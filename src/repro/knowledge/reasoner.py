"""Reasoning over the NetworkKG.

:class:`KGReasoner` answers the queries the paper's knowledge-guided
discriminator needs (section III-B): given a (partial) record, is the
attribute combination valid, and which values of a given attribute are
admissible?  The reasoner works purely from the knowledge-graph triples the
builder produced -- it never sees the original catalog -- and compiles them
into per-event constraint tables the first time it is used.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.knowledge.builder import (
    EVENT_NS,
    IP_NS,
    PORT_NS,
    PROTOCOL_NS,
)
from repro.knowledge.catalog import DEFAULT_FIELD_MAP
from repro.knowledge.graph import KnowledgeGraph
from repro.knowledge.rules import ImplicationRule, MembershipRule, RuleSet, RuleViolation

__all__ = ["EventConstraints", "KGReasoner"]


def _strip(uri: object, namespace: str) -> str:
    text = str(uri)
    if text.startswith(namespace):
        return text[len(namespace):]
    return text


def _numeric_column(values) -> tuple[np.ndarray, np.ndarray]:
    """``(floats, parseable)`` for a possibly non-numeric column.

    Mirrors the record path's ``int(float(value))`` contract: anything that
    fails to parse (or is non-finite) is flagged unparseable and treated as
    a violation wherever a port check applies.
    """
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


@dataclass
class EventConstraints:
    """Compiled constraints for one event type."""

    name: str
    kind: str = "benign"
    protocols: set[str] = field(default_factory=set)
    source_ips: set[str] = field(default_factory=set)
    destination_ips: set[str] = field(default_factory=set)
    destination_ports: set[int] = field(default_factory=set)
    destination_port_range: tuple[int, int] | None = None
    source_port_range: tuple[int, int] | None = None

    def destination_port_valid(self, port: int) -> bool:
        """A destination port is valid if it matches the explicit set or range."""
        if not self.destination_ports and self.destination_port_range is None:
            return True
        if port in self.destination_ports:
            return True
        if self.destination_port_range is not None:
            low, high = self.destination_port_range
            return low <= port <= high
        return False

    def source_port_valid(self, port: int) -> bool:
        if self.source_port_range is None:
            return True
        low, high = self.source_port_range
        return low <= port <= high


class KGReasoner:
    """Validity queries over a NetworkKG."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        field_map: dict[str, str] | None = None,
    ) -> None:
        self.graph = graph
        self.field_map = dict(field_map) if field_map is not None else dict(DEFAULT_FIELD_MAP)
        self._constraints: dict[str, EventConstraints] = {}
        self._compile()
        # Lazily-built lookup registries for the batched validity mask; the
        # constraint set is immutable after _compile(), so cached lookups
        # never go stale.  Guarded by a lock because federated thread
        # executors may share one reasoner across sites.
        self._batch_tables: dict | None = None
        self._batch_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks cannot be pickled and the batch registries are a pure cache;
        # both are rebuilt lazily on the other side.
        state = self.__dict__.copy()
        state["_batch_tables"] = None
        state["_batch_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._batch_tables = None
        self._batch_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Compilation from triples
    # ------------------------------------------------------------------ #
    def _compile(self) -> None:
        for event_uri in self.graph.entities_of_type("EventType"):
            name = _strip(event_uri, EVENT_NS)
            constraints = EventConstraints(name=name)
            kinds = self.graph.objects(event_uri, "hasEventKind")
            if kinds:
                constraints.kind = str(kinds[0])
            constraints.protocols = {
                _strip(obj, PROTOCOL_NS) for obj in self.graph.objects(event_uri, "allowsProtocol")
            }
            # Source IPs come from the devices allowed to originate the event.
            for device_uri in self.graph.objects(event_uri, "allowsSourceDevice"):
                for ip_uri in self.graph.objects(str(device_uri), "hasIPAddress"):
                    constraints.source_ips.add(_strip(ip_uri, IP_NS))
            # Destination IPs: explicit IPs plus resolved domains.
            for ip_uri in self.graph.objects(event_uri, "allowsDestinationIP"):
                constraints.destination_ips.add(_strip(ip_uri, IP_NS))
            for domain_uri in self.graph.objects(event_uri, "allowsDestinationDomain"):
                for ip_uri in self.graph.objects(str(domain_uri), "resolvesTo"):
                    constraints.destination_ips.add(_strip(ip_uri, IP_NS))
            # Destination ports: explicit ports plus an optional range.
            for port_uri in self.graph.objects(event_uri, "allowsDestinationPort"):
                numbers = self.graph.objects(str(port_uri), "portNumber")
                if numbers:
                    constraints.destination_ports.add(int(numbers[0]))
                else:
                    constraints.destination_ports.add(int(_strip(port_uri, PORT_NS)))
            constraints.destination_port_range = self._read_range(
                event_uri, "allowsDestinationPortRange"
            )
            constraints.source_port_range = self._read_range(event_uri, "allowsSourcePortRange")
            self._constraints[name] = constraints

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

    # ------------------------------------------------------------------ #
    # Validity queries (the paper's "Q" query)
    # ------------------------------------------------------------------ #
    def violations(self, record: dict) -> list[RuleViolation]:
        """All constraint violations of a record, using the field map."""
        fm = self.field_map
        event_column = fm["event_type"]
        violations: list[RuleViolation] = []
        event_name = record.get(event_column)
        if event_name is None:
            return violations
        if event_name not in self._constraints:
            return [
                RuleViolation(
                    rule_name="known-event",
                    attribute=event_column,
                    value=event_name,
                    reason="event type is not described in the knowledge graph",
                )
            ]
        constraints = self._constraints[event_name]

        def _check_membership(role: str, allowed: set, rule_name: str) -> None:
            column = fm[role]
            if not allowed or column not in record:
                return
            value = record[column]
            if value not in allowed:
                violations.append(
                    RuleViolation(
                        rule_name=rule_name,
                        attribute=column,
                        value=value,
                        reason=f"invalid for event {event_name!r}",
                    )
                )

        _check_membership("protocol", constraints.protocols, "protocol")
        _check_membership("source_ip", constraints.source_ips, "source-ip")
        _check_membership("destination_ip", constraints.destination_ips, "destination-ip")

        dst_port_column = fm["destination_port"]
        if dst_port_column in record:
            try:
                port = int(float(record[dst_port_column]))
                if not constraints.destination_port_valid(port):
                    violations.append(
                        RuleViolation(
                            rule_name="destination-port",
                            attribute=dst_port_column,
                            value=port,
                            reason=f"port invalid for event {event_name!r}",
                        )
                    )
            except (TypeError, ValueError):
                violations.append(
                    RuleViolation(
                        rule_name="destination-port",
                        attribute=dst_port_column,
                        value=record[dst_port_column],
                        reason="port is not numeric",
                    )
                )
        src_port_column = fm["source_port"]
        if src_port_column in record and constraints.source_port_range is not None:
            try:
                port = int(float(record[src_port_column]))
                if not constraints.source_port_valid(port):
                    violations.append(
                        RuleViolation(
                            rule_name="source-port",
                            attribute=src_port_column,
                            value=port,
                            reason=f"port invalid for event {event_name!r}",
                        )
                    )
            except (TypeError, ValueError):
                violations.append(
                    RuleViolation(
                        rule_name="source-port",
                        attribute=src_port_column,
                        value=record[src_port_column],
                        reason="port is not numeric",
                    )
                )
        return violations

    def is_valid(self, record: dict) -> bool:
        """True when the record violates no knowledge-graph constraint."""
        return not self.violations(record)

    # ------------------------------------------------------------------ #
    # Batched validity (the vectorized form of the "Q" query)
    # ------------------------------------------------------------------ #
    _MEMBERSHIP_ATTRS = {
        "protocol": "protocols",
        "source_ip": "source_ips",
        "destination_ip": "destination_ips",
    }

    def _batch_registries(self) -> dict:
        """Lazily-built persistent lookup state for :meth:`validity_mask`.

        Value -> code registries grow monotonically across calls (first-seen
        order), so the per-(event, role) allowed-value bitmaps and the sorted
        per-event port arrays are computed once and reused every step instead
        of being rebuilt per batch.
        """
        with self._batch_lock:
            if self._batch_tables is None:
                self._batch_tables = {
                    "event_codes": {},  # event value -> code
                    "event_info": [],   # code -> EventConstraints | "skip" | None
                    "role_codes": {role: {} for role in self._MEMBERSHIP_ATTRS},
                    "allowed": {},      # (role, event_code) -> bool lookup array
                    "dst_ports": {      # event name -> sorted unique port array
                        name: np.array(sorted(c.destination_ports), dtype=np.int64)
                        for name, c in self._constraints.items()
                    },
                }
        return self._batch_tables

    def _allowed_lookup(self, tables: dict, role: str, event_id: int, allowed: set) -> np.ndarray:
        """Bool array mapping a role's value codes to set membership."""
        registry = tables["role_codes"][role]
        lookup = tables["allowed"].get((role, event_id))
        if lookup is None or lookup.size < len(registry):
            values = list(registry)  # insertion order == code order
            lookup = np.fromiter((v in allowed for v in values), dtype=bool, count=len(values))
            tables["allowed"][(role, event_id)] = lookup
        return lookup

    def validity_mask(self, table_or_columns) -> np.ndarray:
        """Per-row validity of a whole table as one boolean array.

        Accepts a :class:`~repro.tabular.table.Table` or a ``{column:
        array}`` mapping.  Rows are grouped by event type and every
        constraint (protocol / IP memberships, port sets and ranges) is
        checked with batched numpy operations, so the cost is a few C passes
        per event instead of one Python ``violations()`` call per row.  The
        semantics match :meth:`is_valid` row for row.

        Because the constraint tables are immutable, the value -> code
        registries and per-event allowed-value lookups live on the reasoner
        and persist across calls: in steady state each call costs one
        registry-mapping pass per constrained column plus a few small indexed
        reads per event, with no per-batch set scans or ``np.isin`` calls.
        """
        if isinstance(table_or_columns, Mapping):
            names = list(table_or_columns.keys())
            get_column = table_or_columns.__getitem__
            n_rows = len(table_or_columns[names[0]]) if names else 0
        else:
            names = list(table_or_columns.schema.names)
            get_column = table_or_columns.column
            n_rows = table_or_columns.n_rows

        fm = self.field_map
        event_column = fm["event_type"]
        valid = np.ones(n_rows, dtype=bool)
        if event_column not in names or n_rows == 0:
            # No event attribute: nothing is constrained (matches the
            # record path, where a missing event type yields no violations).
            return valid

        tables = self._batch_registries()
        event_registry = tables["event_codes"]
        ev_setdefault = event_registry.setdefault
        event_codes = np.fromiter(
            (ev_setdefault(v, len(event_registry)) for v in get_column(event_column)),
            dtype=np.int64,
            count=n_rows,
        )
        event_info = tables["event_info"]
        if len(event_registry) > len(event_info):
            with self._batch_lock:
                for value, _code in list(event_registry.items())[len(event_info):]:
                    if value is None:
                        event_info.append("skip")
                    else:
                        event_info.append(self._constraints.get(value))

        membership: dict[str, np.ndarray] = {}
        for role in self._MEMBERSHIP_ATTRS:
            column = fm.get(role)
            if column in names:
                registry = tables["role_codes"][role]
                rsetdefault = registry.setdefault
                membership[role] = np.fromiter(
                    (rsetdefault(v, len(registry)) for v in get_column(column)),
                    dtype=np.int64,
                    count=n_rows,
                )

        numeric: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for role in ("destination_port", "source_port"):
            column = fm.get(role)
            if column in names:
                numeric[role] = _numeric_column(get_column(column))

        for event_id in np.unique(event_codes):
            rows = np.nonzero(event_codes == event_id)[0]
            constraints = event_info[event_id]
            if constraints == "skip":  # event value was None
                continue
            if constraints is None:
                valid[rows] = False
                continue
            for role, codes in membership.items():
                allowed = getattr(constraints, self._MEMBERSHIP_ATTRS[role])
                if not allowed:
                    continue
                lookup = self._allowed_lookup(tables, role, int(event_id), allowed)
                valid[rows] &= lookup[codes[rows]]
            if "destination_port" in numeric:
                ports, parseable = numeric["destination_port"]
                ok = parseable[rows].copy()
                here = np.trunc(ports[rows][ok]).astype(np.int64)
                if constraints.destination_ports or constraints.destination_port_range is not None:
                    # Sorted-array membership == np.isin on the same set.
                    allowed_ports = tables["dst_ports"][constraints.name]
                    if allowed_ports.size:
                        idx = np.minimum(
                            np.searchsorted(allowed_ports, here), allowed_ports.size - 1
                        )
                        port_ok = allowed_ports[idx] == here
                    else:
                        port_ok = np.zeros(here.size, dtype=bool)
                    if constraints.destination_port_range is not None:
                        low, high = constraints.destination_port_range
                        port_ok |= (here >= low) & (here <= high)
                    ok[np.nonzero(ok)[0][~port_ok]] = False
                valid[rows] &= ok
            if "source_port" in numeric and constraints.source_port_range is not None:
                ports, parseable = numeric["source_port"]
                ok = parseable[rows].copy()
                here = np.trunc(ports[rows][ok]).astype(np.int64)
                low, high = constraints.source_port_range
                in_range = (here >= low) & (here <= high)
                ok[np.nonzero(ok)[0][~in_range]] = False
                valid[rows] &= ok
        return valid

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

    def sample_valid_record(self, event_name: str, rng) -> dict:
        """Draw one attribute combination the knowledge graph deems valid.

        Used by the knowledge-guided discriminator to provide positive
        (valid) examples for condition vectors, per section III-B-1.
        """
        constraints = self.constraints(event_name)
        fm = self.field_map
        record: dict = {fm["event_type"]: event_name}
        if constraints.protocols:
            record[fm["protocol"]] = sorted(constraints.protocols)[
                rng.integers(0, len(constraints.protocols))
            ]
        if constraints.source_ips:
            record[fm["source_ip"]] = sorted(constraints.source_ips)[
                rng.integers(0, len(constraints.source_ips))
            ]
        if constraints.destination_ips:
            record[fm["destination_ip"]] = sorted(constraints.destination_ips)[
                rng.integers(0, len(constraints.destination_ips))
            ]
        if constraints.destination_ports or constraints.destination_port_range is not None:
            if constraints.destination_ports and (
                constraints.destination_port_range is None or rng.uniform() < 0.5
            ):
                ports = sorted(constraints.destination_ports)
                record[fm["destination_port"]] = ports[rng.integers(0, len(ports))]
            else:
                low, high = constraints.destination_port_range
                record[fm["destination_port"]] = int(rng.integers(low, high + 1))
        if constraints.source_port_range is not None:
            low, high = constraints.source_port_range
            record[fm["source_port"]] = int(rng.integers(low, high + 1))
        return record

    # ------------------------------------------------------------------ #
    # Rule-set compilation
    # ------------------------------------------------------------------ #
    def to_rule_set(self) -> RuleSet:
        """Compile the per-event constraints into a declarative rule set."""
        fm = self.field_map
        event_column = fm["event_type"]
        rules = RuleSet(name=f"rules[{self.graph.name}]")
        rules.add(
            MembershipRule(
                attribute=event_column,
                allowed=frozenset(self._constraints),
                name="known-event",
            )
        )
        for name, constraints in self._constraints.items():
            memberships: dict[str, frozenset] = {}
            ranges: dict[str, tuple[float, float]] = {}
            if constraints.protocols:
                memberships[fm["protocol"]] = frozenset(constraints.protocols)
            if constraints.source_ips:
                memberships[fm["source_ip"]] = frozenset(constraints.source_ips)
            if constraints.destination_ips:
                memberships[fm["destination_ip"]] = frozenset(constraints.destination_ips)
            if constraints.destination_port_range is not None and not constraints.destination_ports:
                ranges[fm["destination_port"]] = constraints.destination_port_range
            elif constraints.destination_ports and constraints.destination_port_range is None:
                memberships[fm["destination_port"]] = frozenset(constraints.destination_ports)
            if constraints.source_port_range is not None:
                ranges[fm["source_port"]] = constraints.source_port_range
            if memberships or ranges:
                rules.add(
                    ImplicationRule(
                        when={event_column: name},
                        memberships=memberships,
                        ranges=ranges,
                        name=f"event[{name}]",
                    )
                )
        return rules
