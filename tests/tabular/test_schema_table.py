"""Schema and Table tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table


class TestColumnSpec:
    def test_categorical_requires_categories(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", "categorical")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", "text")

    def test_bounds_order_enforced(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", "continuous", minimum=5, maximum=1)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", "categorical", categories=("a", "a"))

    def test_properties(self):
        spec = ColumnSpec("x", "categorical", categories=("a", "b"))
        assert spec.is_categorical and not spec.is_continuous
        assert spec.num_categories == 2


class TestTableSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TableSchema([
                ColumnSpec("x", "continuous"),
                ColumnSpec("x", "continuous"),
            ])

    def test_lookup_and_membership(self, tiny_schema):
        assert "proto" in tiny_schema
        assert tiny_schema.column("proto").is_categorical
        assert tiny_schema.index_of("bytes") == 2
        with pytest.raises(KeyError):
            tiny_schema.column("missing")

    def test_name_lists(self, tiny_schema):
        assert tiny_schema.categorical_names == ["proto", "service", "label"]
        assert tiny_schema.continuous_names == ["bytes", "duration"]
        assert tiny_schema.sensitive_names == ["label"]

    def test_subset_and_without(self, tiny_schema):
        subset = tiny_schema.subset(["label", "proto"])
        assert subset.names == ["label", "proto"]
        remaining = tiny_schema.without(["label"])
        assert "label" not in remaining

    def test_validate_value(self, tiny_schema):
        assert tiny_schema.validate_value("proto", "tcp")
        assert not tiny_schema.validate_value("proto", "icmp")
        assert tiny_schema.validate_value("bytes", 100.0)
        assert not tiny_schema.validate_value("bytes", -5.0)
        assert not tiny_schema.validate_value("bytes", "not-a-number")

    def test_dict_round_trip(self, tiny_schema):
        restored = TableSchema.from_dict(tiny_schema.to_dict())
        assert restored.names == tiny_schema.names
        assert restored.column("label").sensitive

    def test_tuple_categories_survive_json(self):
        categories = ((21, "x"), (80, ("tcp", 1)), "plain")
        schema = TableSchema([ColumnSpec("pair", "categorical", categories=categories)])
        restored = TableSchema.from_dict(json.loads(json.dumps(schema.to_dict())))
        assert restored.column("pair").categories == categories
        assert [type(c) for c in restored.column("pair").categories] == [tuple, tuple, str]

    @pytest.mark.parametrize("categories", ["tcp", {"tcp": 1}, 3])
    def test_non_array_categories_rejected(self, categories):
        document = {"columns": [{"name": "proto", "kind": "categorical", "categories": categories}]}
        with pytest.raises(ValueError, match="'proto'"):
            TableSchema.from_dict(document)


class TestTable:
    def test_from_records_and_row_access(self, tiny_table):
        assert tiny_table.n_rows == 300
        row = tiny_table.row(0)
        assert set(row) == set(tiny_table.schema.names)

    def test_missing_column_in_record_rejected(self, tiny_schema):
        with pytest.raises(KeyError):
            Table.from_records(tiny_schema, [{"proto": "tcp"}])

    def test_from_rows_checks_width(self, tiny_schema):
        with pytest.raises(ValueError):
            Table.from_rows(tiny_schema, [("tcp", "http", 1.0)])

    def test_column_typing(self, tiny_table):
        assert tiny_table.column("bytes").dtype == np.float64
        assert tiny_table.column("proto").dtype == object

    def test_inconsistent_lengths_rejected(self, tiny_schema):
        columns = {name: np.asarray(["x"], dtype=object) for name in tiny_schema.names}
        columns["bytes"] = np.asarray([1.0, 2.0])
        with pytest.raises(ValueError):
            Table(tiny_schema, columns)

    def test_select_rows_allows_duplicates(self, tiny_table):
        selected = tiny_table.select_rows([0, 0, 1])
        assert selected.n_rows == 3

    def test_select_and_drop_columns(self, tiny_table):
        selected = tiny_table.select_columns(["label", "bytes"])
        assert selected.schema.names == ["label", "bytes"]
        dropped = tiny_table.drop_columns(["label"])
        assert "label" not in dropped.schema

    def test_filter_and_filter_equal_agree(self, tiny_table):
        a = tiny_table.filter(lambda row: row["label"] == "attack")
        b = tiny_table.filter_equal("label", "attack")
        assert a.n_rows == b.n_rows > 0

    def test_sample_without_replacement_bounds(self, tiny_table, rng):
        with pytest.raises(ValueError):
            tiny_table.sample(tiny_table.n_rows + 1, rng)
        assert tiny_table.sample(10, rng).n_rows == 10

    def test_shuffle_preserves_multiset(self, tiny_table, rng):
        shuffled = tiny_table.shuffle(rng)
        assert shuffled.value_counts("label") == tiny_table.value_counts("label")

    def test_concat_requires_same_schema(self, tiny_table):
        other = tiny_table.select_columns(["proto", "label"])
        with pytest.raises(ValueError):
            tiny_table.concat(other)
        combined = tiny_table.concat(tiny_table)
        assert combined.n_rows == 2 * tiny_table.n_rows

    def test_with_column(self, tiny_table):
        from repro.tabular.schema import ColumnSpec

        flags = np.asarray(["yes"] * tiny_table.n_rows, dtype=object)
        extended = tiny_table.with_column(
            ColumnSpec("flag", "categorical", categories=("yes", "no")), flags
        )
        assert "flag" in extended.schema
        assert extended.n_rows == tiny_table.n_rows

    def test_value_counts_and_distribution(self, tiny_table):
        counts = tiny_table.value_counts("label")
        assert sum(counts.values()) == tiny_table.n_rows
        distribution = tiny_table.class_distribution("label")
        assert pytest.approx(sum(distribution.values())) == 1.0

    def test_describe_covers_all_columns(self, tiny_table):
        summary = tiny_table.describe()
        assert set(summary) == set(tiny_table.schema.names)
        assert summary["bytes"]["kind"] == "continuous"
        assert summary["label"]["kind"] == "categorical"

    def test_csv_round_trip(self, tiny_table, tmp_path):
        path = tmp_path / "table.csv"
        tiny_table.to_csv(path)
        restored = Table.from_csv(tiny_table.schema, path)
        assert restored.n_rows == tiny_table.n_rows
        assert restored.value_counts("label") == tiny_table.value_counts("label")
        np.testing.assert_allclose(
            restored.column("bytes"), tiny_table.column("bytes"), rtol=1e-9
        )

    def test_head_and_len(self, tiny_table):
        assert len(tiny_table) == 300
        assert tiny_table.head(7).n_rows == 7

    def test_row_index_out_of_range(self, tiny_table):
        with pytest.raises(IndexError):
            tiny_table.row(10_000)
