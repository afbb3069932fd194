"""Domain catalogs: the ground truth a NetworkKG is built from.

A :class:`DomainCatalog` describes a monitored environment -- its devices,
the benign communication events they generate, and the attacks that can be
observed -- together with the attribute constraints each event type imposes
(allowed protocols, destination endpoints, port ranges).  Dataset modules
publish a catalog alongside the data they generate; the knowledge-graph
builder turns the catalog into triples and the reasoner answers validity
queries against those triples.

The catalog also fixes the *field map*: which table columns play the roles
of event type, protocol, source/destination IP and ports.  This keeps the
knowledge machinery independent of any particular dataset's column names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_FIELD_MAP",
    "DeviceSpec",
    "EventSpec",
    "AttackSpec",
    "DomainCatalog",
]

#: Default mapping from semantic roles to table column names.
DEFAULT_FIELD_MAP: dict[str, str] = {
    "event_type": "event_type",
    "protocol": "protocol",
    "source_ip": "src_ip",
    "destination_ip": "dst_ip",
    "source_port": "src_port",
    "destination_port": "dst_port",
    "label": "label",
}


@dataclass(frozen=True)
class DeviceSpec:
    """A monitored device: name, address and device kind."""

    name: str
    ip: str
    kind: str = "iot"
    description: str = ""


@dataclass(frozen=True)
class EventSpec:
    """A network event type and the attribute combinations it allows.

    ``destination_ports`` lists explicitly allowed ports while
    ``destination_port_range`` allows a contiguous span (both may be given;
    a destination port is valid if it matches either).  An empty collection
    means "unconstrained" for that attribute.
    """

    name: str
    kind: str = "benign"  # "benign" or "attack"
    protocols: tuple[str, ...] = ()
    source_devices: tuple[str, ...] = ()
    destination_ips: tuple[str, ...] = ()
    destination_domains: tuple[str, ...] = ()
    destination_ports: tuple[int, ...] = ()
    destination_port_range: tuple[int, int] | None = None
    source_port_range: tuple[int, int] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("benign", "attack"):
            raise ValueError(f"event kind must be 'benign' or 'attack', got {self.kind!r}")
        for range_name in ("destination_port_range", "source_port_range"):
            value = getattr(self, range_name)
            if value is not None:
                low, high = value
                if low > high:
                    raise ValueError(f"{range_name} low > high for event {self.name!r}")


@dataclass(frozen=True)
class AttackSpec:
    """An attack description linking a CVE to the event type it manifests as.

    The paper's running example is CVE-1999-0003, whose valid destination
    ports lie in 32771..34000; that constraint is expressed here through the
    ``event`` the attack manifests as.
    """

    name: str
    cve: str
    event: EventSpec
    description: str = ""

    def __post_init__(self) -> None:
        if self.event.kind != "attack":
            raise ValueError(f"attack {self.name!r} must manifest as an 'attack' event")


@dataclass
class DomainCatalog:
    """Everything the KG builder needs to know about a monitored environment."""

    name: str
    devices: list[DeviceSpec] = field(default_factory=list)
    events: list[EventSpec] = field(default_factory=list)
    attacks: list[AttackSpec] = field(default_factory=list)
    #: Mapping of external domain URL -> resolved IP address.
    domains: dict[str, str] = field(default_factory=dict)
    #: Mapping from semantic role to table column name.
    field_map: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_FIELD_MAP))

    def __post_init__(self) -> None:
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise ValueError("duplicate device names in catalog")
        event_names = [e.name for e in self.all_events()]
        if len(set(event_names)) != len(event_names):
            raise ValueError("duplicate event names in catalog")

    # ------------------------------------------------------------------ #
    def all_events(self) -> list[EventSpec]:
        """Benign events plus the events each attack manifests as."""
        return list(self.events) + [attack.event for attack in self.attacks]

    def event(self, name: str) -> EventSpec:
        for spec in self.all_events():
            if spec.name == name:
                return spec
        raise KeyError(f"no event named {name!r}")

    def device(self, name: str) -> DeviceSpec:
        for spec in self.devices:
            if spec.name == name:
                return spec
        raise KeyError(f"no device named {name!r}")

    @property
    def event_names(self) -> list[str]:
        return [e.name for e in self.all_events()]

    @property
    def protocols(self) -> list[str]:
        seen: dict[str, None] = {}
        for spec in self.all_events():
            for proto in spec.protocols:
                seen.setdefault(proto, None)
        return list(seen)

    def destination_ips_for(self, event_name: str) -> list[str]:
        """Explicit destination IPs for an event, resolving domains."""
        spec = self.event(event_name)
        ips = list(spec.destination_ips)
        for domain in spec.destination_domains:
            if domain in self.domains:
                ips.append(self.domains[domain])
        return ips
