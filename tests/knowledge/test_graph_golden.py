"""Golden fingerprints of the NetworkKGs built from the dataset catalogs.

The reasoner's compiled tables, the serving artifact and every KG-guided
fit read these graphs, so their observable shape is pinned here: the
SHA-256 of :meth:`KnowledgeGraph.to_text` (which fixes triple order), the
triple and entity counts, and ``degree`` / ``neighbors`` for a few entities
-- the first subject, an entity first seen as an object that later gains
out-edges, a class node with many in-edges and a literal.  Rerun
``PYTHONPATH=src python tests/knowledge/test_graph_golden.py`` to print the
fingerprints, and only re-record them for an intended change to a catalog
or to the builder.

The unit tests below pin the store semantics the golden relies on: one
edge per repeated triple, a self-loop counted twice by ``degree``, first
insertion order for entities and literal round-trips through the text
format.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets import (
    cicids2017_catalog,
    lab_iot_catalog,
    nsl_kdd_catalog,
    unsw_nb15_catalog,
)
from repro.knowledge import KnowledgeGraph, build_network_kg

CATALOGS = {
    "lab_iot": lab_iot_catalog,
    "unsw_nb15": unsw_nb15_catalog,
    "nsl_kdd": nsl_kdd_catalog,
    "cicids2017": cicids2017_catalog,
}

#: Entities whose ``degree`` and ``neighbors`` are pinned, per catalog.
ENTITIES = {
    "lab_iot": ("device:blink_camera", "ip:192.168.1.10", "Port", "literal:int:34000"),
    "unsw_nb15": ("event:http", "port:80", "Port", "literal:int:514"),
    "nsl_kdd": ("event:http", "proto:tcp", "EventType"),
    "cicids2017": ("event:BENIGN", "port:21", "proto:TCP", "literal:int:444"),
}

GOLDEN: dict[str, dict] = {
    "lab_iot": {
        "sha256": "bdf0dac67f993983c82add92d88f8ff2e799e7ac48efe292cc50dd5b60b76644",
        "triples": 296,
        "entities": 149,
        "degree": {
            "device:blink_camera": 6,
            "ip:192.168.1.10": 5,
            "Port": 38,
            "literal:int:34000": 2,
        },
        "neighbors": {
            "device:blink_camera": ["Device", "ip:192.168.1.10", "camera"],
            "ip:192.168.1.10": ["IPAddress"],
            "Port": [],
            "literal:int:34000": [],
        },
    },
    "unsw_nb15": {
        "sha256": "7a319dde2b740e6ea318f77d3ada281e0fb7953c6bf2f5fc2a6f4a4bf91f8287",
        "triples": 163,
        "entities": 80,
        "degree": {
            "event:http": 6,
            "port:80": 3,
            "Port": 22,
            "literal:int:514": 1,
        },
        "neighbors": {
            "event:http": [
                "EventType",
                "benign",
                "proto:tcp",
                "port:80",
                "port:8080",
                "portrange:http-src",
            ],
            "port:80": ["Port", "literal:int:80"],
            "Port": [],
            "literal:int:514": [],
        },
    },
    "nsl_kdd": {
        "sha256": "5b9cc4532db80c86351efe799dd6aa726b9b5ff34b8183f6ec0d0b69555a9546",
        "triples": 66,
        "entities": 26,
        "degree": {
            "event:http": 3,
            "proto:tcp": 15,
            "EventType": 20,
        },
        "neighbors": {
            "event:http": ["EventType", "benign", "proto:tcp"],
            "proto:tcp": ["Protocol"],
            "EventType": [],
        },
    },
    "cicids2017": {
        "sha256": "3b89b6250dd709fcab6c70aeeea07a38389569edb9fd5d234dc3875f16a16898",
        "triples": 149,
        "entities": 63,
        "degree": {
            "event:BENIGN": 13,
            "port:21": 5,
            "proto:TCP": 24,
            "literal:int:444": 1,
        },
        "neighbors": {
            "event:BENIGN": [
                "EventType",
                "benign",
                "proto:TCP",
                "proto:UDP",
                "port:21",
                "port:22",
                "port:53",
                "port:80",
                "port:123",
                "port:443",
                "port:465",
                "port:3389",
                "port:8080",
            ],
            "port:21": ["Port", "literal:int:21"],
            "proto:TCP": ["Protocol"],
            "literal:int:444": [],
        },
    },
}


def fingerprint(name: str) -> dict:
    """The pinned observables of the KG built from catalog ``name``."""
    graph = build_network_kg(CATALOGS[name]())
    entities = ENTITIES[name]
    return {
        "sha256": hashlib.sha256(graph.to_text().encode()).hexdigest(),
        "triples": len(graph),
        "entities": graph.num_entities,
        "degree": {entity: graph.degree(entity) for entity in entities},
        "neighbors": {entity: graph.neighbors(entity) for entity in entities},
    }


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_catalog_kg_matches_golden(name):
    assert fingerprint(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_catalog_kg_text_round_trips(name):
    graph = build_network_kg(CATALOGS[name]())
    text = graph.to_text()
    assert KnowledgeGraph.from_text(text).to_text() == text


class TestStoreSemantics:
    def test_repeated_triple_is_one_edge(self):
        graph = KnowledgeGraph()
        graph.add_triple("a", "p", "b")
        graph.add_triple("a", "p", "b")
        graph.add_triple("a", "q", "b")
        assert len(graph) == 2
        assert graph.num_entities == 2
        assert graph.degree("a") == 2
        assert graph.degree("b") == 2
        assert graph.neighbors("a") == ["b"]
        assert graph.to_text() == "a\tp\tR\tb\na\tq\tR\tb"

    def test_self_loop_has_degree_two(self):
        graph = KnowledgeGraph()
        graph.add_triple("a", "sameAs", "a")
        assert len(graph) == 1
        assert graph.num_entities == 1
        assert graph.degree("a") == 2
        assert graph.neighbors("a") == ["a"]

    def test_object_first_entity_keeps_its_position(self):
        graph = KnowledgeGraph()
        graph.add_triple("a", "p", "b")
        graph.add_triple("c", "p", "d")
        graph.add_triple("b", "q", "e")
        graph.add_triple("a", "r", "f")
        assert graph.to_text().splitlines() == [
            "a\tp\tR\tb",
            "a\tr\tR\tf",
            "b\tq\tR\te",
            "c\tp\tR\td",
        ]
        assert graph.num_entities == 6

    def test_targets_in_first_edge_order_predicates_in_insertion_order(self):
        graph = KnowledgeGraph()
        graph.add_triple("a", "p", "y")
        graph.add_triple("a", "p", "x")
        graph.add_triple("a", "q", "y")
        assert graph.neighbors("a") == ["y", "x"]
        assert [(t.predicate, t.object) for t in graph.triples(subject="a")] == [
            ("p", "y"),
            ("q", "y"),
            ("p", "x"),
        ]

    def test_literals_round_trip_through_text(self):
        graph = KnowledgeGraph()
        graph.add_triple("s", "count", 7)
        graph.add_triple("s", "ratio", 0.25)
        graph.add_triple("s", "label", "camera")
        graph.add_triple("s", "big", -12345678901234)
        restored = KnowledgeGraph.from_text(graph.to_text())
        assert restored.to_text() == graph.to_text()
        for predicate, value in (("count", 7), ("ratio", 0.25), ("label", "camera")):
            (got,) = restored.objects("s", predicate)
            assert got == value and type(got) is type(value)
        assert restored.objects("s", "big") == [-12345678901234]
        # Literal nodes count as entities alongside subjects and objects.
        assert restored.num_entities == graph.num_entities == 5

    def test_unknown_subject_yields_nothing(self):
        graph = KnowledgeGraph()
        graph.add_triple("a", "p", "b")
        assert list(graph.triples(subject="zzz")) == []
        assert list(graph.triples(subject="zzz", predicate="p", obj="b")) == []
        assert graph.objects("zzz", "p") == []
        assert graph.neighbors("zzz") == []
        assert graph.degree("zzz") == 0


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: fingerprint(name) for name in CATALOGS}, sort_dicts=False, width=100)
