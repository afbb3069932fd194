"""A lightweight ontology model extending the Unified Cybersecurity Ontology.

The paper (section IV-A) extends UCO with network-activity concepts such as
``networkEvent`` and ``domainURL`` and properties like protocol, source /
destination IP addresses and port numbers.  This module represents that
ontology explicitly: classes with a subsumption hierarchy and typed
properties with domains and ranges.  The NetworkKG builder types every
entity it creates against this ontology, and the reasoner uses it to check
that queries make sense (e.g. you cannot ask for the protocol of a port).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OntologyClass", "OntologyProperty", "Ontology", "default_network_ontology"]


@dataclass(frozen=True)
class OntologyClass:
    """An ontology class (concept)."""

    name: str
    parent: str | None = None
    description: str = ""


@dataclass(frozen=True)
class OntologyProperty:
    """A typed property linking a domain class to a range class or literal."""

    name: str
    domain: str
    range: str
    description: str = ""
    functional: bool = False


@dataclass
class Ontology:
    """A set of classes (with single inheritance) and typed properties."""

    classes: dict[str, OntologyClass] = field(default_factory=dict)
    properties: dict[str, OntologyProperty] = field(default_factory=dict)

    def add_class(
        self, name: str, parent: str | None = None, description: str = ""
    ) -> OntologyClass:
        if name in self.classes:
            raise ValueError(f"class {name!r} already defined")
        if parent is not None and parent not in self.classes:
            raise ValueError(f"parent class {parent!r} is not defined")
        cls = OntologyClass(name=name, parent=parent, description=description)
        self.classes[name] = cls
        return cls

    def add_property(
        self,
        name: str,
        domain: str,
        range: str,
        description: str = "",
        functional: bool = False,
    ) -> OntologyProperty:
        if name in self.properties:
            raise ValueError(f"property {name!r} already defined")
        if domain not in self.classes:
            raise ValueError(f"domain class {domain!r} is not defined")
        if range not in self.classes and range != "Literal":
            raise ValueError(f"range class {range!r} is not defined")
        prop = OntologyProperty(
            name=name, domain=domain, range=range, description=description, functional=functional
        )
        self.properties[name] = prop
        return prop

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def has_property(self, name: str) -> bool:
        return name in self.properties

    def ancestors(self, name: str) -> list[str]:
        """All (transitive) superclasses of ``name``, nearest first."""
        if name not in self.classes:
            raise KeyError(f"unknown class {name!r}")
        chain: list[str] = []
        parent = self.classes[name].parent
        while parent is not None:
            chain.append(parent)
            parent = self.classes[parent].parent
        return chain

    def is_subclass_of(self, name: str, ancestor: str) -> bool:
        """Reflexive subsumption check."""
        return name == ancestor or ancestor in self.ancestors(name)

    def subclasses(self, name: str) -> list[str]:
        """All (transitive) subclasses of ``name``."""
        if name not in self.classes:
            raise KeyError(f"unknown class {name!r}")
        return [
            other for other in self.classes if other != name and self.is_subclass_of(other, name)
        ]

    def properties_of(self, class_name: str) -> list[OntologyProperty]:
        """Properties whose domain subsumes ``class_name``."""
        return [
            prop
            for prop in self.properties.values()
            if self.is_subclass_of(class_name, prop.domain)
        ]

    def validate_assertion(self, subject_class: str, property_name: str) -> bool:
        """Whether an instance of ``subject_class`` may carry ``property_name``."""
        if property_name not in self.properties:
            return False
        if subject_class not in self.classes:
            return False
        return self.is_subclass_of(subject_class, self.properties[property_name].domain)


def default_network_ontology() -> Ontology:
    """The UCO-extended network-activity ontology used by the paper (Fig. 2).

    The upper classes mirror UCO (``Means``, ``Consequence``, ``Attack``,
    ``Indicator``); the network-activity extension adds ``NetworkEvent``,
    ``DomainURL``, ``IPAddress``, ``Port``, ``Protocol`` and ``Device`` plus
    the properties that tie a network event to its endpoints.
    """
    onto = Ontology()
    # UCO core (the subset relevant here).
    onto.add_class("Entity", description="Top-level UCO entity")
    onto.add_class("Means", parent="Entity", description="Means by which an attack is carried out")
    onto.add_class("Attack", parent="Entity", description="A cybersecurity attack")
    onto.add_class("Consequence", parent="Entity", description="Consequence of an attack")
    onto.add_class("Indicator", parent="Entity", description="Observable indicator")
    onto.add_class("Vulnerability", parent="Entity", description="A CVE-identified weakness")

    # Network-activity extension (paper section IV-A, figure 2).
    onto.add_class("NetworkEvent", parent="Indicator", description="A captured network event")
    onto.add_class(
        "AttackEvent",
        parent="NetworkEvent",
        description="A network event that is part of an attack",
    )
    onto.add_class("BenignEvent", parent="NetworkEvent", description="Normal device communication")
    onto.add_class("Device", parent="Entity", description="A monitored IoT / mobile device")
    onto.add_class("IPAddress", parent="Entity", description="IPv4 address")
    onto.add_class("Port", parent="Entity", description="Transport-layer port number")
    onto.add_class("Protocol", parent="Entity", description="Transport / application protocol")
    onto.add_class("DomainURL", parent="Entity", description="Remote service endpoint")
    onto.add_class("EventType", parent="Entity", description="Semantic label of a network event")
    onto.add_class("PortRange", parent="Entity", description="A contiguous span of ports")

    # Properties of a network event.
    onto.add_property("hasProtocol", "NetworkEvent", "Protocol", functional=True)
    onto.add_property("hasSourceIP", "NetworkEvent", "IPAddress", functional=True)
    onto.add_property("hasDestinationIP", "NetworkEvent", "IPAddress", functional=True)
    onto.add_property("hasSourcePort", "NetworkEvent", "Port", functional=True)
    onto.add_property("hasDestinationPort", "NetworkEvent", "Port", functional=True)
    onto.add_property("hasEventType", "NetworkEvent", "EventType", functional=True)
    onto.add_property("hasDomainURL", "NetworkEvent", "DomainURL")
    onto.add_property("originatesFrom", "NetworkEvent", "Device")
    onto.add_property("targets", "NetworkEvent", "Device")

    # Event-type level constraints (what the reasoner queries).
    onto.add_property("hasEventKind", "EventType", "Literal", functional=True)
    onto.add_property("allowsProtocol", "EventType", "Protocol")
    onto.add_property("allowsSourceDevice", "EventType", "Device")
    onto.add_property("allowsDestinationIP", "EventType", "IPAddress")
    onto.add_property("allowsDestinationDomain", "EventType", "DomainURL")
    onto.add_property("allowsDestinationPort", "EventType", "Port")
    onto.add_property("allowsDestinationPortRange", "EventType", "PortRange")
    onto.add_property("allowsSourcePortRange", "EventType", "PortRange")

    # Device and attack descriptions.
    onto.add_property("hasIPAddress", "Device", "IPAddress", functional=True)
    onto.add_property("hasDeviceKind", "Device", "Literal")
    onto.add_property("resolvesTo", "DomainURL", "IPAddress")
    onto.add_property("exploits", "Attack", "Vulnerability")
    onto.add_property("manifestsAs", "Attack", "EventType")
    onto.add_property("usesProtocol", "Attack", "Protocol")
    onto.add_property("targetsPortRange", "Attack", "PortRange")

    # Port-range and port literals.
    onto.add_property("rangeLow", "PortRange", "Literal", functional=True)
    onto.add_property("rangeHigh", "PortRange", "Literal", functional=True)
    onto.add_property("portNumber", "Port", "Literal", functional=True)
    return onto
