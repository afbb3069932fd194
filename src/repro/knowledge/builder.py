"""NetworkKG construction.

:class:`NetworkKGBuilder` converts a :class:`~repro.knowledge.catalog.DomainCatalog`
into a typed knowledge graph laid out against the UCO-extended network
ontology (paper section IV-A):

* devices become ``device:*`` entities carrying their IP address,
* external endpoints become ``domain:*`` entities resolving to IPs,
* every event type becomes an ``event:*`` entity with ``allows*`` assertions
  describing the attribute combinations it admits,
* attacks become ``attack:*`` entities linked to the CVE they exploit and to
  the event type they manifest as (including the target port range --
  e.g. the paper's CVE-1999-0003 example with ports 32771..34000).

The reasoner then answers validity queries purely from these triples, so the
knowledge graph -- not the catalog -- is the artefact the GAN training
consumes.
"""

from __future__ import annotations

from repro.knowledge.catalog import DomainCatalog
from repro.knowledge.graph import KnowledgeGraph
from repro.knowledge.ontology import Ontology, default_network_ontology

__all__ = ["NetworkKGBuilder", "build_network_kg"]

# URI namespaces used for the entities the builder mints.
DEVICE_NS = "device:"
EVENT_NS = "event:"
PROTOCOL_NS = "proto:"
IP_NS = "ip:"
DOMAIN_NS = "domain:"
PORT_NS = "port:"
PORTRANGE_NS = "portrange:"
ATTACK_NS = "attack:"
VULN_NS = "vuln:"


class NetworkKGBuilder:
    """Builds a NetworkKG from a domain catalog."""

    def __init__(self, ontology: Ontology | None = None) -> None:
        self.ontology = ontology if ontology is not None else default_network_ontology()

    def build(self, catalog: DomainCatalog) -> KnowledgeGraph:
        """Construct the knowledge graph for ``catalog``."""
        graph = KnowledgeGraph(name=f"NetworkKG[{catalog.name}]")
        self._add_devices(graph, catalog)
        self._add_domains(graph, catalog)
        self._add_events(graph, catalog)
        self._add_attacks(graph, catalog)
        return graph

    # ------------------------------------------------------------------ #
    def _assert(
        self, graph: KnowledgeGraph, subject: str, subject_class: str, predicate: str, obj: object
    ) -> None:
        """Add a triple after checking the ontology admits it."""
        if not self.ontology.validate_assertion(subject_class, predicate):
            raise ValueError(
                f"ontology does not allow property {predicate!r} on class {subject_class!r}"
            )
        graph.add_triple(subject, predicate, obj)

    def _add_devices(self, graph: KnowledgeGraph, catalog: DomainCatalog) -> None:
        for device in catalog.devices:
            uri = DEVICE_NS + device.name
            graph.add_type(uri, "Device")
            ip_uri = IP_NS + device.ip
            graph.add_type(ip_uri, "IPAddress")
            self._assert(graph, uri, "Device", "hasIPAddress", ip_uri)
            self._assert(graph, uri, "Device", "hasDeviceKind", device.kind)

    def _add_domains(self, graph: KnowledgeGraph, catalog: DomainCatalog) -> None:
        for domain, ip in catalog.domains.items():
            uri = DOMAIN_NS + domain
            graph.add_type(uri, "DomainURL")
            ip_uri = IP_NS + ip
            graph.add_type(ip_uri, "IPAddress")
            self._assert(graph, uri, "DomainURL", "resolvesTo", ip_uri)

    def _add_events(self, graph: KnowledgeGraph, catalog: DomainCatalog) -> None:
        for spec in catalog.all_events():
            uri = EVENT_NS + spec.name
            graph.add_type(uri, "EventType")
            self._assert(graph, uri, "EventType", "hasEventKind", spec.kind)
            for protocol in spec.protocols:
                proto_uri = PROTOCOL_NS + protocol
                graph.add_type(proto_uri, "Protocol")
                self._assert(graph, uri, "EventType", "allowsProtocol", proto_uri)
            for device_name in spec.source_devices:
                self._assert(graph, uri, "EventType", "allowsSourceDevice", DEVICE_NS + device_name)
            for ip in spec.destination_ips:
                ip_uri = IP_NS + ip
                graph.add_type(ip_uri, "IPAddress")
                self._assert(graph, uri, "EventType", "allowsDestinationIP", ip_uri)
            for domain in spec.destination_domains:
                self._assert(graph, uri, "EventType", "allowsDestinationDomain", DOMAIN_NS + domain)
            for port in spec.destination_ports:
                port_uri = PORT_NS + str(port)
                graph.add_type(port_uri, "Port")
                self._assert(graph, port_uri, "Port", "portNumber", int(port))
                self._assert(graph, uri, "EventType", "allowsDestinationPort", port_uri)
            if spec.destination_port_range is not None:
                self._add_port_range(
                    graph,
                    uri,
                    spec.name,
                    "dst",
                    "allowsDestinationPortRange",
                    spec.destination_port_range,
                )
            if spec.source_port_range is not None:
                self._add_port_range(
                    graph,
                    uri,
                    spec.name,
                    "src",
                    "allowsSourcePortRange",
                    spec.source_port_range,
                )

    def _add_port_range(
        self,
        graph: KnowledgeGraph,
        event_uri: str,
        event_name: str,
        direction: str,
        predicate: str,
        port_range: tuple[int, int],
    ) -> None:
        low, high = port_range
        range_uri = f"{PORTRANGE_NS}{event_name}-{direction}"
        graph.add_type(range_uri, "PortRange")
        self._assert(graph, range_uri, "PortRange", "rangeLow", int(low))
        self._assert(graph, range_uri, "PortRange", "rangeHigh", int(high))
        self._assert(graph, event_uri, "EventType", predicate, range_uri)

    def _add_attacks(self, graph: KnowledgeGraph, catalog: DomainCatalog) -> None:
        for attack in catalog.attacks:
            uri = ATTACK_NS + attack.name
            graph.add_type(uri, "Attack")
            vuln_uri = VULN_NS + attack.cve
            graph.add_type(vuln_uri, "Vulnerability")
            self._assert(graph, uri, "Attack", "exploits", vuln_uri)
            self._assert(graph, uri, "Attack", "manifestsAs", EVENT_NS + attack.event.name)
            for protocol in attack.event.protocols:
                self._assert(graph, uri, "Attack", "usesProtocol", PROTOCOL_NS + protocol)
            if attack.event.destination_port_range is not None:
                range_uri = f"{PORTRANGE_NS}{attack.event.name}-dst"
                self._assert(graph, uri, "Attack", "targetsPortRange", range_uri)


def build_network_kg(catalog: DomainCatalog, ontology: Ontology | None = None) -> KnowledgeGraph:
    """Convenience wrapper: build the NetworkKG for ``catalog``."""
    return NetworkKGBuilder(ontology=ontology).build(catalog)
