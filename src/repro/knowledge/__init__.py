"""Knowledge representation: ontology, knowledge graph and reasoning.

The paper grounds KiNETGAN's knowledge-guided discriminator in a Network
Traffic Knowledge Graph (NetworkKG) built on an extension of the Unified
Cybersecurity Ontology (UCO).  This subpackage provides the full pipeline:

* :mod:`repro.knowledge.ontology` -- the UCO-extended ontology (classes such
  as ``NetworkEvent``, ``DomainURL``, properties such as ``hasProtocol``).
* :mod:`repro.knowledge.graph` -- an insertion-ordered triple store.
* :mod:`repro.knowledge.catalog` -- the domain catalog (devices, events,
  attacks and their valid attribute combinations) that datasets publish.
* :mod:`repro.knowledge.builder` -- NetworkKG construction from an ontology
  plus a domain catalog.
* :mod:`repro.knowledge.reasoner` -- validity queries over the NetworkKG
  (is this (event, protocol, IPs, ports) combination valid? which values are
  admissible for an event?), all answered from one compiled constraint
  table.
* :mod:`repro.knowledge.validator` -- batch validity scoring used by the
  knowledge-guided discriminator (D_KG) and the evaluation harness.
"""

from repro.knowledge.ontology import Ontology, default_network_ontology
from repro.knowledge.graph import KnowledgeGraph, Triple
from repro.knowledge.catalog import (
    AttackSpec,
    DeviceSpec,
    DomainCatalog,
    EventSpec,
)
from repro.knowledge.builder import NetworkKGBuilder, build_network_kg
from repro.knowledge.reasoner import KGReasoner, Violation
from repro.knowledge.validator import BatchValidator, ValidityReport

__all__ = [
    "Ontology",
    "default_network_ontology",
    "KnowledgeGraph",
    "Triple",
    "DeviceSpec",
    "EventSpec",
    "AttackSpec",
    "DomainCatalog",
    "NetworkKGBuilder",
    "build_network_kg",
    "KGReasoner",
    "Violation",
    "BatchValidator",
    "ValidityReport",
]
