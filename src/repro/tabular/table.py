"""A minimal column-store table.

:class:`Table` provides the handful of dataframe operations the rest of the
package relies on (column access, row selection, filtering, sampling,
value counts, CSV round-trips) without pulling in pandas.  Columns are plain
numpy arrays: ``float64`` for continuous columns and ``object`` for
categorical columns, so category values can be strings, ints or tuples.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.tabular.schema import TableSchema

__all__ = ["Table", "factorize_values"]


def factorize_values(values) -> tuple[np.ndarray, list]:
    """``(codes, uniques)`` for a value sequence, uniques in first-seen order.

    Unlike ``np.unique`` this never compares values against each other, so
    mixed-type object sequences (ints and strings) are safe.  Backs
    :meth:`Table.factorize`.
    """
    seen: dict = {}
    setdefault = seen.setdefault
    codes = np.fromiter(
        (setdefault(v, len(seen)) for v in values), dtype=np.int64, count=len(values)
    )
    return codes, list(seen)


class Table:
    """Column-oriented table bound to a :class:`TableSchema`."""

    def __init__(self, schema: TableSchema, columns: dict[str, np.ndarray]) -> None:
        if set(columns) != set(schema.names):
            missing = set(schema.names) - set(columns)
            extra = set(columns) - set(schema.names)
            raise ValueError(
                f"columns do not match schema (missing={sorted(missing)}, extra={sorted(extra)})"
            )
        lengths = {len(columns[name]) for name in schema.names}
        if len(lengths) > 1:
            raise ValueError(f"columns have inconsistent lengths: {sorted(lengths)}")
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        for spec in schema:
            values = np.asarray(columns[spec.name])
            # Columns already in their storage dtype are adopted as-is
            # (columns are treated as immutable throughout; ``column()``
            # documents that it returns the backing array, not a copy).
            if spec.is_continuous:
                if values.dtype != np.float64:
                    values = values.astype(np.float64)
            elif values.dtype != object:
                values = values.astype(object)
            self._columns[spec.name] = values

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(cls, schema: TableSchema, records: Iterable[dict]) -> "Table":
        """Build a table from an iterable of ``{column: value}`` dicts."""
        records = list(records)
        columns: dict[str, np.ndarray] = {}
        n = len(records)
        for name in schema.names:
            try:
                columns[name] = np.fromiter(
                    (record[name] for record in records), dtype=object, count=n
                )
            except KeyError:
                raise KeyError(f"record missing column {name!r}") from None
        return cls(schema, columns)

    @classmethod
    def from_rows(cls, schema: TableSchema, rows: Sequence[Sequence]) -> "Table":
        """Build a table from row tuples ordered like ``schema.names``."""
        columns = {name: [] for name in schema.names}
        for row in rows:
            if len(row) != len(schema.names):
                raise ValueError(
                    f"row has {len(row)} values but schema has {len(schema.names)} columns"
                )
            for name, value in zip(schema.names, row):
                columns[name].append(value)
        return cls(schema, {name: np.asarray(vals, dtype=object) for name, vals in columns.items()})

    @classmethod
    def empty(cls, schema: TableSchema) -> "Table":
        return cls(schema, {name: np.asarray([], dtype=object) for name in schema.names})

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        if not self.schema.names:
            return 0
        return len(self._columns[self.schema.names[0]])

    @property
    def n_columns(self) -> int:
        return len(self.schema.names)

    def __len__(self) -> int:
        return self.n_rows

    def column(self, name: str) -> np.ndarray:
        """The backing array for ``name`` (not a copy)."""
        if name not in self._columns:
            raise KeyError(f"no column named {name!r}")
        return self._columns[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def row(self, index: int) -> dict:
        """Row ``index`` as a ``{column: value}`` dict."""
        if not 0 <= index < self.n_rows:
            raise IndexError(f"row index {index} out of range for {self.n_rows} rows")
        return {name: self._columns[name][index] for name in self.schema.names}

    def iter_rows(self) -> Iterator[dict]:
        for i in range(self.n_rows):
            yield self.row(i)

    def to_records(self) -> list[dict]:
        return list(self.iter_rows())

    # ------------------------------------------------------------------ #
    # Row / column selection
    # ------------------------------------------------------------------ #
    def select_rows(self, indices: np.ndarray | Sequence[int]) -> "Table":
        """A new table containing the listed rows (duplicates allowed)."""
        indices = np.asarray(indices, dtype=int)
        return Table(
            self.schema,
            {name: self._columns[name][indices] for name in self.schema.names},
        )

    def head(self, n: int = 5) -> "Table":
        return self.select_rows(np.arange(min(n, self.n_rows)))

    def select_columns(self, names: list[str]) -> "Table":
        sub_schema = self.schema.subset(names)
        return Table(sub_schema, {name: self._columns[name] for name in names})

    def drop_columns(self, names: list[str]) -> "Table":
        keep = [n for n in self.schema.names if n not in set(names)]
        return self.select_columns(keep)

    def filter(self, predicate) -> "Table":
        """Rows for which ``predicate(row_dict)`` is truthy."""
        indices = [i for i, row in enumerate(self.iter_rows()) if predicate(row)]
        return self.select_rows(np.asarray(indices, dtype=int))

    def filter_equal(self, name: str, value) -> "Table":
        """Rows where column ``name`` equals ``value`` (vectorised)."""
        mask = self.column(name) == value
        return self.select_rows(np.nonzero(mask)[0])

    def sample(self, n: int, rng: np.random.Generator, replace: bool = False) -> "Table":
        """Uniformly sample ``n`` rows."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if not replace and n > self.n_rows:
            raise ValueError(f"cannot sample {n} rows without replacement from {self.n_rows}")
        indices = rng.choice(self.n_rows, size=n, replace=replace)
        return self.select_rows(indices)

    def shuffle(self, rng: np.random.Generator) -> "Table":
        return self.select_rows(rng.permutation(self.n_rows))

    def concat(self, other: "Table") -> "Table":
        """Row-wise concatenation with an identical schema."""
        if other.schema.names != self.schema.names:
            raise ValueError("cannot concat tables with different schemas")
        return Table(
            self.schema,
            {
                name: np.concatenate([self._columns[name], other._columns[name]])
                for name in self.schema.names
            },
        )

    def with_column(self, spec, values: np.ndarray) -> "Table":
        """A new table with an extra column appended."""
        from repro.tabular.schema import TableSchema

        if len(values) != self.n_rows:
            raise ValueError("new column length does not match table")
        new_schema = TableSchema(list(self.schema.columns) + [spec])
        columns = dict(self._columns)
        columns[spec.name] = np.asarray(values, dtype=object)
        return Table(new_schema, columns)

    # ------------------------------------------------------------------ #
    # Integer-code views (the vectorized data plane's native currency)
    # ------------------------------------------------------------------ #
    def column_codes(self, name: str, index: dict) -> np.ndarray:
        """Integer codes for a column via a ``{value: code}`` mapping.

        Values missing from ``index`` map to -1.  This is the one place the
        data plane pays a per-value Python dict lookup; everything downstream
        (bucketing, condition vectors, validity masks) operates on the
        resulting int64 array.
        """
        column = self.column(name)
        get = index.get
        return np.fromiter((get(v, -1) for v in column), dtype=np.int64, count=len(column))

    def factorize(self, name: str) -> tuple[np.ndarray, list]:
        """``(codes, uniques)`` for a column, uniques in first-seen order."""
        return factorize_values(self.column(name))

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def value_counts(self, name: str) -> dict:
        """Counts of each distinct value in a column, insertion-ordered."""
        codes, uniques = self.factorize(name)
        counts = np.bincount(codes, minlength=len(uniques))
        return {value: int(counts[i]) for i, value in enumerate(uniques)}

    def describe(self) -> dict[str, dict]:
        """Per-column summary statistics."""
        summary: dict[str, dict] = {}
        for spec in self.schema:
            values = self.column(spec.name)
            if spec.is_continuous:
                numeric = values.astype(np.float64)
                summary[spec.name] = {
                    "kind": "continuous",
                    "mean": float(numeric.mean()) if len(numeric) else float("nan"),
                    "std": float(numeric.std()) if len(numeric) else float("nan"),
                    "min": float(numeric.min()) if len(numeric) else float("nan"),
                    "max": float(numeric.max()) if len(numeric) else float("nan"),
                }
            else:
                counts = self.value_counts(spec.name)
                summary[spec.name] = {
                    "kind": "categorical",
                    "num_unique": len(counts),
                    "top": max(counts, key=counts.get) if counts else None,
                }
        return summary

    def class_distribution(self, label_column: str) -> dict:
        """Relative frequency of each label value."""
        counts = self.value_counts(label_column)
        total = sum(counts.values())
        if total == 0:
            return {}
        return {value: count / total for value, count in counts.items()}

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_csv(self, path: str | Path) -> None:
        """Write the table to a CSV file with a header row."""
        with open(Path(path), "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.schema.names)
            for row in self.iter_rows():
                writer.writerow([row[name] for name in self.schema.names])

    @classmethod
    def from_csv(cls, schema: TableSchema, path: str | Path) -> "Table":
        """Read a table written by :meth:`to_csv` using ``schema`` for typing."""
        with open(Path(path), newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if header != schema.names:
                raise ValueError("CSV header does not match schema column order")
            rows = list(reader)
        columns: dict[str, list] = {name: [] for name in schema.names}
        for row in rows:
            for name, raw in zip(schema.names, row):
                spec = schema.column(name)
                if spec.is_continuous:
                    columns[name].append(float(raw))
                else:
                    # Categories may be ints or strings; try to recover ints.
                    value = raw
                    if spec.categories and isinstance(spec.categories[0], int):
                        value = int(raw)
                    columns[name].append(value)
        return cls(schema, {name: np.asarray(vals, dtype=object) for name, vals in columns.items()})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.n_rows} rows x {self.n_columns} columns)"
