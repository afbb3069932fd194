"""Tour of the knowledge pipeline: ontology -> NetworkKG -> constraint table.

Run with::

    python examples/knowledge_graph_tour.py

Shows how the UCO-extended ontology and the lab catalog combine into the
NetworkKG, the constraint table the reasoner compiles from it, what
validity queries it answers (including the paper's CVE-1999-0003 port-range
example), and how invalid synthetic records are flagged.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import load_lab_iot
from repro.knowledge import (
    BatchValidator,
    KGReasoner,
    build_network_kg,
    default_network_ontology,
)


def main() -> None:
    ontology = default_network_ontology()
    print(f"Ontology: {len(ontology.classes)} classes, {len(ontology.properties)} properties")
    print("  NetworkEvent properties:", [p.name for p in ontology.properties_of("NetworkEvent")])

    bundle = load_lab_iot(n_records=2000, seed=3)
    graph = build_network_kg(bundle.catalog)
    print(f"\n{graph}")
    print("  predicates:", sorted(graph.predicates()))

    reasoner = KGReasoner(graph, field_map=bundle.catalog.field_map)
    print("\nEvent types known to the KG:", reasoner.event_names())
    print("Attack events:", reasoner.attack_events())

    print("\nThe paper's running example -- CVE-1999-0003:")
    print("  valid protocols:", reasoner.valid_protocols("cve_1999_0003"))
    print("  valid destination port range:", reasoner.destination_port_range("cve_1999_0003"))
    print("  valid destination IPs:", reasoner.valid_destination_ips("cve_1999_0003"))

    valid = {
        "event_type": "cve_1999_0003", "protocol": "TCP", "src_ip": "192.168.1.66",
        "dst_ip": "192.168.1.10", "dst_port": 33000, "src_port": 40000,
    }
    invalid = dict(valid, dst_port=80)
    print("\n  record with dst_port=33000 valid?", reasoner.is_valid(valid))
    print("  record with dst_port=80 valid?", reasoner.is_valid(invalid))
    for violation in reasoner.violations(invalid):
        print("   violation:", violation)

    n_events = len(reasoner.event_names())
    print(f"\nCompiled constraint table: {n_events} events, one row each per family")
    for family in reasoner.families:
        constrained = int((~family.allowed[:n_events]).any(axis=1).sum())
        line = (
            f"  {family.name:<16} {len(family.vocabulary):>3} allowed values, "
            f"constrains {constrained}/{n_events} events"
        )
        if family.low is not None:
            line += f", {int((family.low <= family.high).sum())} by a port range"
        print(line)

    validator = BatchValidator(reasoner)
    report = validator.report(bundle.table)
    print("\nValidity of the real capture:", report)

    rng = np.random.default_rng(0)
    records = bundle.table.sample(200, rng).to_records()
    for record in records[:100]:
        record["dst_port"] = int(rng.integers(1, 65535))
    from repro.tabular import Table

    corrupted = Table.from_records(bundle.schema, records)
    print("Validity after corrupting half of the ports:")
    print(validator.report(corrupted))


if __name__ == "__main__":
    main()
