"""A triple-store knowledge graph over networkx.

Entities are string URIs in a ``namespace:localname`` convention (for
example ``event:MotionDetected`` or ``proto:TCP``); literals are plain
Python scalars.  The store supports the small query surface the reasoner
needs: pattern matching over (subject, predicate, object), neighbourhood
queries and type lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import networkx as nx

__all__ = ["Triple", "KnowledgeGraph"]

RDF_TYPE = "rdf:type"


@dataclass(frozen=True)
class Triple:
    """A (subject, predicate, object) assertion."""

    subject: str
    predicate: str
    object: object

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))


class KnowledgeGraph:
    """A multigraph-backed triple store with simple pattern queries."""

    def __init__(self, name: str = "NetworkKG") -> None:
        self.name = name
        self._graph = nx.MultiDiGraph(name=name)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_triple(self, subject: str, predicate: str, obj: object) -> Triple:
        """Assert a triple; literals are stored as node attributes on edges."""
        if not subject or not predicate:
            raise ValueError("subject and predicate must be non-empty")
        self._graph.add_node(subject)
        # Literals become their repr-stable string node plus a literal flag.
        object_key = self._object_key(obj)
        if object_key not in self._graph:
            self._graph.add_node(object_key, literal=not isinstance(obj, str), value=obj)
        self._graph.add_edge(subject, object_key, key=predicate, predicate=predicate)
        return Triple(subject, predicate, obj)

    def add_type(self, subject: str, class_name: str) -> Triple:
        """Assert ``subject rdf:type class_name``."""
        return self.add_triple(subject, RDF_TYPE, class_name)

    @staticmethod
    def _object_key(obj: object) -> str:
        if isinstance(obj, str):
            return obj
        return f"literal:{type(obj).__name__}:{obj!r}"

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._graph.number_of_edges()

    @property
    def num_entities(self) -> int:
        return self._graph.number_of_nodes()

    def triples(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: object | None = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the given pattern (``None`` = wildcard)."""
        if subject is not None and subject not in self._graph:
            return
        edges = (
            self._graph.out_edges(subject, keys=True, data=True)
            if subject is not None
            else self._graph.edges(keys=True, data=True)
        )
        object_key = self._object_key(obj) if obj is not None else None
        for s, o_key, key, data in edges:
            if predicate is not None and key != predicate:
                continue
            if object_key is not None and o_key != object_key:
                continue
            node_data = self._graph.nodes[o_key]
            value = node_data.get("value", o_key)
            yield Triple(s, key, value)

    def objects(self, subject: str, predicate: str) -> list:
        """All objects ``o`` with ``(subject, predicate, o)`` asserted."""
        return [t.object for t in self.triples(subject=subject, predicate=predicate)]

    def subjects(self, predicate: str, obj: object) -> list[str]:
        """All subjects ``s`` with ``(s, predicate, obj)`` asserted."""
        return [t.subject for t in self.triples(predicate=predicate, obj=obj)]

    def has_triple(self, subject: str, predicate: str, obj: object) -> bool:
        return any(True for _ in self.triples(subject, predicate, obj))

    def entities_of_type(self, class_name: str) -> list[str]:
        """All subjects asserted to be of ``class_name``."""
        return self.subjects(RDF_TYPE, class_name)

    def types_of(self, subject: str) -> list[str]:
        return [str(o) for o in self.objects(subject, RDF_TYPE)]

    def predicates(self) -> set[str]:
        return {key for _, _, key in self._graph.edges(keys=True)}

    def neighbors(self, subject: str) -> list[str]:
        """Entities directly reachable from ``subject`` (any predicate)."""
        if subject not in self._graph:
            return []
        return list(self._graph.successors(subject))

    def degree(self, subject: str) -> int:
        if subject not in self._graph:
            return 0
        return self._graph.degree(subject)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """Serialise to a simple tab-separated triple format."""
        lines = []
        for triple in self.triples():
            obj = triple.object
            marker = "L" if not isinstance(obj, str) else "R"
            lines.append(f"{triple.subject}\t{triple.predicate}\t{marker}\t{obj}")
        return "\n".join(lines)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text() + "\n")

    @classmethod
    def from_text(cls, text: str, name: str = "NetworkKG") -> "KnowledgeGraph":
        graph = cls(name=name)
        for line in text.strip().splitlines():
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"malformed triple line: {line!r}")
            subject, predicate, marker, raw = parts
            obj: object = raw
            if marker == "L":
                try:
                    obj = int(raw)
                except ValueError:
                    try:
                        obj = float(raw)
                    except ValueError:
                        obj = raw
            graph.add_triple(subject, predicate, obj)
        return graph

    @classmethod
    def load(cls, path: str | Path, name: str = "NetworkKG") -> "KnowledgeGraph":
        return cls.from_text(Path(path).read_text(), name=name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnowledgeGraph({self.name!r}, {self.num_entities} entities, {len(self)} triples)"
