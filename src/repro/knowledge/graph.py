"""A triple-store knowledge graph over an insertion-ordered index.

Entities are string URIs in a ``namespace:localname`` convention (for
example ``event:MotionDetected`` or ``proto:TCP``); literals are plain
Python scalars.  The store supports the small query surface the reasoner
needs: pattern matching over (subject, predicate, object), neighbourhood
queries and type lookups.

The index is three plain dicts: every entity (subject, object or literal)
maps to its value, every subject maps to ``{object key: {predicate}}``, and
every entity carries its degree.  All of them keep first-insertion order,
so triples iterate by subject in the order entities were first seen (an
entity first used as an object keeps that place once it gains out-edges),
then by target in first-edge order, then by predicate in insertion order.
A repeated triple is one edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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
    """An insertion-ordered triple store with simple pattern queries."""

    def __init__(self, name: str = "NetworkKG") -> None:
        self.name = name
        # Entity key -> value: the literal for literal keys, the key itself otherwise.
        self._values: dict[str, object] = {}
        # Subject -> {object key -> {predicate: None}} (dicts as ordered sets).
        self._out: dict[str, dict[str, dict[str, None]]] = {}
        # Entity key -> in-degree plus out-degree (a self-loop counts twice).
        self._degree: dict[str, int] = {}
        self._num_triples = 0

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_triple(self, subject: str, predicate: str, obj: object) -> Triple:
        """Assert a triple; literals get a repr-stable ``literal:`` entity key."""
        if not subject or not predicate:
            raise ValueError("subject and predicate must be non-empty")
        self._values.setdefault(subject, subject)
        object_key = self._object_key(obj)
        self._values.setdefault(object_key, obj)
        predicates = self._out.setdefault(subject, {}).setdefault(object_key, {})
        if predicate not in predicates:
            predicates[predicate] = None
            self._num_triples += 1
            self._degree[subject] = self._degree.get(subject, 0) + 1
            self._degree[object_key] = self._degree.get(object_key, 0) + 1
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
        return self._num_triples

    @property
    def num_entities(self) -> int:
        return len(self._values)

    def triples(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: object | None = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the given pattern (``None`` = wildcard)."""
        if subject is not None:
            subjects = (subject,) if subject in self._out else ()
        else:
            # Entity order, so a subject first seen as an object keeps that place.
            subjects = (key for key in self._values if key in self._out)
        object_key = self._object_key(obj) if obj is not None else None
        for s in subjects:
            for o_key, predicates in self._out[s].items():
                if object_key is not None and o_key != object_key:
                    continue
                value = self._values[o_key]
                for key in predicates:
                    if predicate is None or key == predicate:
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
        return {key for targets in self._out.values() for keys in targets.values() for key in keys}

    def neighbors(self, subject: str) -> list[str]:
        """Entities directly reachable from ``subject`` (any predicate)."""
        return list(self._out.get(subject, ()))

    def degree(self, subject: str) -> int:
        return self._degree.get(subject, 0)

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
