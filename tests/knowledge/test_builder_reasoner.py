"""NetworkKG builder, reasoner and batch-validator tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.lab_iot import lab_iot_catalog
from repro.knowledge.builder import build_network_kg
from repro.knowledge.catalog import AttackSpec, DeviceSpec, DomainCatalog, EventSpec
from repro.knowledge.reasoner import KGReasoner
from repro.knowledge.validator import BatchValidator


@pytest.fixture(scope="module")
def lab_reasoner() -> KGReasoner:
    catalog = lab_iot_catalog()
    graph = build_network_kg(catalog)
    return KGReasoner(graph, field_map=catalog.field_map)


class TestCatalog:
    def test_lab_catalog_contains_paper_entities(self):
        catalog = lab_iot_catalog()
        device_names = {d.name for d in catalog.devices}
        assert {"blink_camera", "smart_plug", "motion_sensor"} <= device_names
        assert "cve_1999_0003" in catalog.event_names
        assert "motion_detected" in catalog.event_names

    def test_destination_ips_resolve_domains(self):
        catalog = lab_iot_catalog()
        ips = catalog.destination_ips_for("motion_detected")
        assert "18.210.45.3" in ips

    def test_duplicate_devices_rejected(self):
        with pytest.raises(ValueError):
            DomainCatalog(
                name="x",
                devices=[DeviceSpec("a", "1.1.1.1"), DeviceSpec("a", "2.2.2.2")],
            )

    def test_attack_event_kind_enforced(self):
        with pytest.raises(ValueError):
            AttackSpec(name="bad", cve="CVE-0", event=EventSpec(name="e", kind="benign"))

    def test_event_port_range_order_enforced(self):
        with pytest.raises(ValueError):
            EventSpec(name="e", destination_port_range=(10, 5))


class TestBuilder:
    def test_graph_contains_expected_entity_types(self, lab_reasoner):
        graph = lab_reasoner.graph
        assert len(graph.entities_of_type("Device")) == 6
        assert len(graph.entities_of_type("EventType")) == 10
        assert len(graph.entities_of_type("Attack")) == 3
        assert len(graph.entities_of_type("Vulnerability")) == 3

    def test_cve_attack_links_to_port_range(self, lab_reasoner):
        graph = lab_reasoner.graph
        ranges = graph.objects("attack:cve_1999_0003", "targetsPortRange")
        assert ranges
        assert graph.objects(str(ranges[0]), "rangeLow") == [32771]
        assert graph.objects(str(ranges[0]), "rangeHigh") == [34000]

    def test_ontology_violations_rejected(self):
        from repro.knowledge.builder import NetworkKGBuilder
        from repro.knowledge.ontology import Ontology

        bare = Ontology()
        bare.add_class("Entity")
        builder = NetworkKGBuilder(ontology=bare)
        with pytest.raises(Exception):
            builder.build(lab_iot_catalog())


class TestReasoner:
    def test_event_inventory(self, lab_reasoner):
        assert set(lab_reasoner.attack_events()) == {
            "traffic_flooding", "port_scan", "cve_1999_0003",
        }
        assert "motion_detected" in lab_reasoner.benign_events()
        assert lab_reasoner.event_kind("port_scan") == "attack"

    def test_paper_example_port_range(self, lab_reasoner):
        assert lab_reasoner.destination_port_range("cve_1999_0003") == (32771, 34000)

    def test_valid_protocols_and_ips(self, lab_reasoner):
        assert lab_reasoner.valid_protocols("motion_detected") == {"TCP"}
        assert lab_reasoner.valid_source_ips("motion_detected") == {"192.168.1.12"}
        assert lab_reasoner.valid_destination_ips("motion_detected") == {"18.210.45.3"}

    def test_valid_record_accepted(self, lab_reasoner):
        record = {
            "event_type": "motion_detected",
            "protocol": "TCP",
            "src_ip": "192.168.1.12",
            "dst_ip": "18.210.45.3",
            "dst_port": 443,
            "src_port": 50000,
        }
        assert lab_reasoner.is_valid(record)

    def test_invalid_port_rejected(self, lab_reasoner):
        record = {
            "event_type": "cve_1999_0003",
            "protocol": "TCP",
            "src_ip": "192.168.1.66",
            "dst_ip": "192.168.1.10",
            "dst_port": 80,  # outside 32771..34000
            "src_port": 50000,
        }
        violations = lab_reasoner.violations(record)
        assert any(v.rule_name == "destination-port" for v in violations)

    def test_unknown_event_rejected(self, lab_reasoner):
        violations = lab_reasoner.violations({"event_type": "not_an_event"})
        assert violations and violations[0].rule_name == "known-event"

    def test_wrong_source_device_rejected(self, lab_reasoner):
        record = {
            "event_type": "motion_detected",
            "protocol": "TCP",
            "src_ip": "192.168.1.66",  # attacker box cannot send motion events
            "dst_ip": "18.210.45.3",
            "dst_port": 443,
        }
        assert not lab_reasoner.is_valid(record)

    def test_valid_values_enumeration(self, lab_reasoner):
        ports = lab_reasoner.valid_values("destination_port", "cve_1999_0003")
        assert 32771 in ports and 34000 in ports and 80 not in ports
        protocols = lab_reasoner.valid_values("protocol", "dns_lookup")
        assert protocols == {"UDP"}
        with pytest.raises(ValueError):
            lab_reasoner.valid_values("nonsense-role", "dns_lookup")


class TestBatchValidator:
    def test_real_lab_data_is_fully_valid(self, lab_reasoner, lab_bundle_small):
        report = BatchValidator(lab_reasoner).report(lab_bundle_small.table)
        assert report.validity_rate == 1.0
        assert report.violation_rate == 0.0

    def test_corrupted_rows_are_flagged(self, lab_reasoner, lab_bundle_small):
        records = lab_bundle_small.table.to_records()[:50]
        for record in records:
            record["dst_port"] = 31337  # not valid for any lab event
        from repro.tabular.table import Table

        corrupted = Table.from_records(lab_bundle_small.schema, records)
        report = BatchValidator(lab_reasoner).report(corrupted)
        assert report.validity_rate == 0.0
        assert report.violations_by_rule.get("destination-port", 0) == 50

    def test_scores_are_binary(self, lab_reasoner, lab_bundle_small):
        scores = BatchValidator(lab_reasoner).table_scores(lab_bundle_small.table.head(30))
        assert set(np.unique(scores)).issubset({0.0, 1.0})


@settings(max_examples=20, deadline=None)
@given(port=st.integers(min_value=1, max_value=65535))
def test_reasoner_port_validity_property(port):
    """Property: the reasoner accepts a CVE-1999-0003 destination port iff it
    lies inside the knowledge-graph range 32771..34000 (the explicit ports in
    the catalog are all inside that range too)."""
    catalog = lab_iot_catalog()
    reasoner = KGReasoner(build_network_kg(catalog), field_map=catalog.field_map)
    record = {
        "event_type": "cve_1999_0003",
        "protocol": "TCP",
        "src_ip": "192.168.1.66",
        "dst_ip": "192.168.1.10",
        "dst_port": port,
        "src_port": 40000,
    }
    assert reasoner.is_valid(record) == (32771 <= port <= 34000)
