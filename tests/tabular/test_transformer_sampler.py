"""DataTransformer, ConditionSampler and splitting tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tabular.sampler import ConditionSampler
from repro.tabular.split import kfold_indices, train_test_split
from repro.tabular.transformer import DataTransformer


class TestDataTransformer:
    def test_output_dim_matches_info(self, fitted_transformer):
        assert fitted_transformer.output_dim == sum(
            info.dim for info in fitted_transformer.output_info
        )

    def test_transform_shape_and_range(self, fitted_transformer, tiny_table, rng):
        matrix = fitted_transformer.transform(tiny_table, rng=rng)
        assert matrix.shape == (tiny_table.n_rows, fitted_transformer.output_dim)
        # One-hot and mode blocks are in [0, 1]; alpha scalars in [-1, 1].
        assert matrix.min() >= -1.0 and matrix.max() <= 1.0

    def test_inverse_transform_recovers_categoricals_exactly(
        self, fitted_transformer, tiny_table, rng
    ):
        matrix = fitted_transformer.transform(tiny_table, rng=rng)
        restored = fitted_transformer.inverse_transform(matrix)
        for column in ("proto", "service", "label"):
            assert list(restored.column(column)) == list(tiny_table.column(column))

    def test_inverse_transform_continuous_close(self, fitted_transformer, tiny_table, rng):
        matrix = fitted_transformer.transform(tiny_table, rng=rng)
        restored = fitted_transformer.inverse_transform(matrix)
        original = tiny_table.column("bytes").astype(float)
        recovered = restored.column("bytes").astype(float)
        relative_error = np.abs(recovered - original) / (np.abs(original) + 1.0)
        assert np.median(relative_error) < 0.2

    def test_minmax_encoding_variant(self, tiny_table, rng):
        transformer = DataTransformer(continuous_encoding="minmax").fit(tiny_table)
        info = transformer.column_info("bytes")
        assert info.dim == 1
        restored = transformer.inverse_transform(transformer.transform(tiny_table, rng=rng))
        assert restored.n_rows == tiny_table.n_rows

    def test_activation_spans_cover_output(self, fitted_transformer):
        spans = fitted_transformer.activation_spans()
        covered = sum(end - start for start, end, _ in spans)
        assert covered == fitted_transformer.output_dim

    def test_schema_bounds_clamped_on_inverse(self, fitted_transformer, tiny_table, rng):
        matrix = fitted_transformer.transform(tiny_table, rng=rng)
        # Push an alpha far negative to try to force an out-of-bounds value.
        info = fitted_transformer.column_info("bytes")
        matrix[:, info.start] = -1.0
        restored = fitted_transformer.inverse_transform(matrix)
        assert restored.column("bytes").astype(float).min() >= 0.0

    def test_wrong_width_rejected(self, fitted_transformer):
        with pytest.raises(ValueError):
            fitted_transformer.inverse_transform(np.zeros((3, fitted_transformer.output_dim + 1)))

    def test_use_before_fit_rejected(self, tiny_table):
        with pytest.raises(RuntimeError):
            DataTransformer().transform(tiny_table)

    def test_mismatched_schema_rejected(self, fitted_transformer, tiny_table):
        with pytest.raises(ValueError):
            fitted_transformer.transform(tiny_table.select_columns(["proto", "label"]))


def _naive_harden(transformer: DataTransformer, matrix: np.ndarray) -> np.ndarray:
    """The pre-engine per-block hardening loop, kept as the reference."""
    hardened = matrix.copy()
    for start, end, activation in transformer.activation_spans():
        if activation != "softmax":
            continue
        block = hardened[:, start:end]
        one_hot = np.zeros_like(block)
        one_hot[np.arange(len(block)), block.argmax(axis=1)] = 1.0
        hardened[:, start:end] = one_hot
    return hardened


class TestHarden:
    def test_matches_reference_implementation(self, fitted_transformer, rng):
        soft = rng.uniform(0.0, 1.0, size=(64, fitted_transformer.output_dim))
        np.testing.assert_array_equal(
            fitted_transformer.harden(soft), _naive_harden(fitted_transformer, soft)
        )

    def test_softmax_blocks_become_exact_one_hot(self, fitted_transformer, rng):
        soft = rng.uniform(0.0, 1.0, size=(32, fitted_transformer.output_dim))
        hard = fitted_transformer.harden(soft)
        for start, end in fitted_transformer.softmax_spans():
            block = hard[:, start:end]
            assert set(np.unique(block)) <= {0.0, 1.0}
            np.testing.assert_array_equal(block.sum(axis=1), np.ones(len(block)))

    def test_tanh_spans_untouched(self, fitted_transformer, rng):
        soft = rng.uniform(-1.0, 1.0, size=(16, fitted_transformer.output_dim))
        hard = fitted_transformer.harden(soft)
        for start, end, activation in fitted_transformer.activation_spans():
            if activation == "tanh":
                np.testing.assert_array_equal(hard[:, start:end], soft[:, start:end])

    def test_inplace_avoids_copy(self, fitted_transformer, rng):
        soft = rng.uniform(0.0, 1.0, size=(8, fitted_transformer.output_dim))
        result = fitted_transformer.harden(soft, inplace=True)
        assert result is soft

    def test_copy_by_default(self, fitted_transformer, rng):
        soft = rng.uniform(0.0, 1.0, size=(8, fitted_transformer.output_dim))
        original = soft.copy()
        fitted_transformer.harden(soft)
        np.testing.assert_array_equal(soft, original)

    def test_empty_batch(self, fitted_transformer):
        empty = np.zeros((0, fitted_transformer.output_dim))
        assert fitted_transformer.harden(empty).shape == empty.shape

    def test_wrong_width_rejected(self, fitted_transformer):
        with pytest.raises(ValueError):
            fitted_transformer.harden(np.zeros((4, fitted_transformer.output_dim + 1)))

    def test_unfitted_rejected(self, tiny_table):
        with pytest.raises(RuntimeError):
            DataTransformer().harden(np.zeros((2, 3)))


class TestConditionSampler:
    def test_condition_dim_is_sum_of_categories(self, tiny_table, fitted_transformer):
        sampler = ConditionSampler(tiny_table, fitted_transformer,
                                   conditional_columns=["proto", "label"])
        assert sampler.condition_dim == 2 + 2

    def test_sample_shapes_and_one_hot_structure(self, tiny_table, fitted_transformer, rng):
        sampler = ConditionSampler(tiny_table, fitted_transformer)
        batch = sampler.sample(32, rng)
        assert batch.vector.shape == (32, sampler.condition_dim)
        # Every conditional column block is exactly one-hot.
        for column in sampler.conditional_columns:
            block = batch.vector[:, sampler.condition_slice(column)]
            np.testing.assert_allclose(block.sum(axis=1), 1.0)

    def test_vector_round_trip(self, tiny_table, fitted_transformer):
        sampler = ConditionSampler(tiny_table, fitted_transformer)
        values = {"proto": "udp", "label": "attack"}
        vector = sampler.vector_from_values(values)
        decoded = sampler.values_from_vector(vector)
        assert decoded["proto"] == "udp" and decoded["label"] == "attack"

    def test_unknown_value_rejected(self, tiny_table, fitted_transformer):
        sampler = ConditionSampler(tiny_table, fitted_transformer)
        with pytest.raises(ValueError):
            sampler.vector_from_values({"proto": "icmp"})
        with pytest.raises(KeyError):
            sampler.vector_from_values({"bytes": 4.0})

    def test_real_batch_matches_pivot_condition(self, tiny_table, fitted_transformer, rng):
        sampler = ConditionSampler(tiny_table, fitted_transformer, uniform_probability=0.0)
        batch = sampler.sample(64, rng)
        real = sampler.real_batch(batch)
        matches = 0
        for i, pivot in enumerate(batch.pivot_columns):
            if real.row(i)[pivot] == batch.values[i][pivot]:
                matches += 1
        assert matches / 64 > 0.95

    def test_uniform_boosting_overrepresents_minority(self, tiny_table, fitted_transformer, rng):
        boosted = ConditionSampler(
            tiny_table, fitted_transformer, conditional_columns=["label"], uniform_probability=1.0
        )
        batch = boosted.sample(400, rng)
        attack_fraction = np.mean([v["label"] == "attack" for v in batch.values])
        real_fraction = tiny_table.class_distribution("label").get("attack", 0.0)
        assert attack_fraction > real_fraction + 0.1

    def test_empirical_conditions_match_real_distribution(
        self, tiny_table, fitted_transformer, rng
    ):
        sampler = ConditionSampler(tiny_table, fitted_transformer, conditional_columns=["label"])
        conditions = sampler.empirical_conditions(600, rng)
        attack_index = sampler.categories("label").index("attack")
        fraction = conditions[:, sampler.condition_offset("label") + attack_index].mean()
        real_fraction = tiny_table.class_distribution("label").get("attack", 0.0)
        assert abs(fraction - real_fraction) < 0.1

    def test_non_categorical_conditional_column_rejected(self, tiny_table, fitted_transformer):
        with pytest.raises(ValueError):
            ConditionSampler(tiny_table, fitted_transformer, conditional_columns=["bytes"])


class TestSplit:
    def test_sizes(self, tiny_table, rng):
        train, test = train_test_split(tiny_table, 0.25, rng)
        assert train.n_rows + test.n_rows == tiny_table.n_rows
        assert abs(test.n_rows - 75) <= 2

    def test_stratified_split_preserves_minority(self, tiny_table, rng):
        train, test = train_test_split(tiny_table, 0.25, rng, stratify_column="label")
        assert "attack" in test.value_counts("label")
        assert "attack" in train.value_counts("label")

    def test_invalid_fraction_rejected(self, tiny_table, rng):
        with pytest.raises(ValueError):
            train_test_split(tiny_table, 1.5, rng)

    def test_kfold_partitions_everything_once(self, rng):
        folds = kfold_indices(50, 5, rng)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(50))

    def test_kfold_train_test_disjoint(self, rng):
        for train, test in kfold_indices(30, 3, rng):
            assert not set(train) & set(test)

    def test_kfold_invalid_k(self, rng):
        with pytest.raises(ValueError):
            kfold_indices(10, 1, rng)
        with pytest.raises(ValueError):
            kfold_indices(3, 5, rng)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000))
def test_split_property_partition(n, seed):
    """Property: train/test split is a partition of the rows."""
    from repro.tabular.schema import ColumnSpec, TableSchema
    from repro.tabular.table import Table

    schema = TableSchema([ColumnSpec("x", "continuous")])
    table = Table(schema, {"x": np.arange(n, dtype=float)})
    generator = np.random.default_rng(seed)
    train, test = train_test_split(table, 0.3, generator)
    combined = sorted(list(train.column("x")) + list(test.column("x")))
    np.testing.assert_allclose(combined, np.arange(n, dtype=float))
