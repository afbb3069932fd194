"""Table schemas: typed column descriptions shared across the package.

A :class:`TableSchema` is the contract between datasets, the data
transformer, the knowledge-graph builder and the synthesizers.  It records,
for every column, whether it is categorical or continuous, and (for
categorical columns) the closed set of admissible values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ColumnSpec", "TableSchema", "CATEGORICAL", "CONTINUOUS", "tuples_from_json"]

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"
_KINDS = (CATEGORICAL, CONTINUOUS)


def tuples_from_json(value):
    """``value`` with every list or tuple in it turned into a tuple, recursively.

    JSON has no tuples, so a tuple category comes back from ``json.loads``
    as an (unhashable) array; this restores it.
    """
    if isinstance(value, (list, tuple)):
        return tuple(map(tuples_from_json, value))
    return value


@dataclass(frozen=True)
class ColumnSpec:
    """Description of a single column.

    Parameters
    ----------
    name:
        Column name, unique within a schema.
    kind:
        Either ``"categorical"`` or ``"continuous"``.
    categories:
        Ordered tuple of admissible values for categorical columns.  Ignored
        for continuous columns.
    minimum, maximum:
        Optional closed bounds for continuous columns; used for validation
        and by the knowledge-graph range rules.
    sensitive:
        Whether the privacy attacks treat this column as a sensitive target
        (attribute inference) rather than as a quasi-identifier.
    """

    name: str
    kind: str
    categories: tuple = ()
    minimum: float | None = None
    maximum: float | None = None
    sensitive: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == CATEGORICAL and not self.categories:
            raise ValueError(f"categorical column {self.name!r} needs categories")
        if (
            self.kind == CONTINUOUS
            and self.minimum is not None
            and self.maximum is not None
            and self.minimum > self.maximum
        ):
            raise ValueError(f"column {self.name!r}: minimum > maximum")
        if self.kind == CATEGORICAL and len(set(self.categories)) != len(self.categories):
            raise ValueError(f"column {self.name!r}: duplicate categories")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS

    @property
    def num_categories(self) -> int:
        return len(self.categories)


@dataclass
class TableSchema:
    """An ordered collection of :class:`ColumnSpec` objects."""

    columns: list[ColumnSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def column(self, name: str) -> ColumnSpec:
        """Return the spec for ``name`` or raise ``KeyError``."""
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise KeyError(f"no column named {name!r}")

    def index_of(self, name: str) -> int:
        for i, spec in enumerate(self.columns):
            if spec.name == name:
                return i
        raise KeyError(f"no column named {name!r}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def categorical_names(self) -> list[str]:
        return [c.name for c in self.columns if c.is_categorical]

    @property
    def continuous_names(self) -> list[str]:
        return [c.name for c in self.columns if c.is_continuous]

    @property
    def sensitive_names(self) -> list[str]:
        return [c.name for c in self.columns if c.sensitive]

    def subset(self, names: list[str]) -> "TableSchema":
        """Schema restricted to ``names``, preserving their given order."""
        return TableSchema([self.column(name) for name in names])

    def without(self, names: list[str]) -> "TableSchema":
        """Schema with the listed columns removed."""
        drop = set(names)
        return TableSchema([c for c in self.columns if c.name not in drop])

    def validate_value(self, name: str, value) -> bool:
        """Check a scalar against the column's domain (categories or bounds)."""
        spec = self.column(name)
        if spec.is_categorical:
            return value in spec.categories
        try:
            numeric = float(value)
        except (TypeError, ValueError):
            return False
        if spec.minimum is not None and numeric < spec.minimum:
            return False
        if spec.maximum is not None and numeric > spec.maximum:
            return False
        return True

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the schema."""
        return {
            "columns": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "categories": list(c.categories),
                    "minimum": c.minimum,
                    "maximum": c.maximum,
                    "sensitive": c.sensitive,
                }
                for c in self.columns
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TableSchema":
        """Inverse of :meth:`to_dict`, also after a JSON round trip (which
        turns tuple categories into arrays; they become tuples again)."""
        return cls(
            [
                ColumnSpec(
                    name=c["name"],
                    kind=c["kind"],
                    categories=tuple(map(tuples_from_json, c.get("categories", ()))),
                    minimum=c.get("minimum"),
                    maximum=c.get("maximum"),
                    sensitive=c.get("sensitive", False),
                )
                for c in payload["columns"]
            ]
        )
