"""Vectorized data-plane regression tests.

Three layers of protection for the batched sampler / encoder paths:

* **Golden test** -- the sampler's seeded draws on ``_golden_table`` must
  reproduce the committed values *bit for bit* (row indices, pivots, codes,
  condition vectors and the empirical-condition stream).
* **Distributional checks** -- pivot values follow the training-by-sampling
  mixture ``u/k + (1-u)·p`` and drawn rows always come from the matching
  bucket.
* **Exact equivalence** -- for fixed codes (no randomness) the vectorized
  vector/values construction agrees element-wise with the per-row helpers,
  and the batched encoder transforms agree with per-value reference loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tabular.encoders import ModeSpecificNormalizer, OneHotEncoder, OrdinalEncoder
from repro.tabular.sampler import ConditionSampler
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.segments import BlockLayout
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer


def _golden_table() -> Table:
    """The exact table the golden values were captured against."""
    schema = TableSchema(
        [
            ColumnSpec("proto", "categorical", categories=("tcp", "udp")),
            ColumnSpec("service", "categorical", categories=("http", "dns", "ssh")),
            ColumnSpec("bytes", "continuous", minimum=0.0, maximum=10_000.0),
            ColumnSpec("label", "categorical", categories=("normal", "attack")),
        ]
    )
    generator = np.random.default_rng(7)
    records = []
    for _ in range(40):
        is_attack = generator.uniform() < 0.2
        service = "ssh" if is_attack else ["http", "dns"][generator.integers(0, 2)]
        records.append(
            {
                "proto": "udp" if service == "dns" else "tcp",
                "service": service,
                "bytes": float(generator.lognormal(4, 0.5)),
                "label": "attack" if is_attack else "normal",
            }
        )
    return Table.from_records(schema, records)


#: Captured from the vectorized ConditionSampler with uniform_probability=0.3,
#: rng seed 123, batch 8 / empirical seed 77, n=5.
_GOLDEN_ROW_INDICES = [9, 18, 13, 17, 0, 38, 31, 8]
_GOLDEN_PIVOTS = ["proto", "label", "service", "proto", "label", "proto", "proto", "proto"]
_GOLDEN_CODES = [
    [0, 2, 1],
    [0, 0, 0],
    [0, 2, 1],
    [1, 1, 0],
    [1, 1, 0],
    [1, 1, 0],
    [1, 1, 0],
    [1, 1, 0],
]
_GOLDEN_VECTOR = [
    [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
    [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
]
_GOLDEN_VALUES = [
    {"proto": "tcp", "service": "ssh", "label": "attack"},
    {"proto": "tcp", "service": "http", "label": "normal"},
    {"proto": "tcp", "service": "ssh", "label": "attack"},
    {"proto": "udp", "service": "dns", "label": "normal"},
    {"proto": "udp", "service": "dns", "label": "normal"},
    {"proto": "udp", "service": "dns", "label": "normal"},
    {"proto": "udp", "service": "dns", "label": "normal"},
    {"proto": "udp", "service": "dns", "label": "normal"},
]
_GOLDEN_EMPIRICAL = [
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
]


class TestSeededDraws:
    """Seeded sampler draws stay bit-identical to the committed capture."""

    def _sampler(self) -> ConditionSampler:
        table = _golden_table()
        transformer = DataTransformer(max_modes=3, seed=0).fit(table)
        return ConditionSampler(table, transformer, uniform_probability=0.3)

    def test_sample_matches_golden_bit_for_bit(self):
        batch = self._sampler().sample(8, np.random.default_rng(123))
        np.testing.assert_array_equal(batch.vector, np.asarray(_GOLDEN_VECTOR))
        assert batch.row_indices.tolist() == _GOLDEN_ROW_INDICES
        assert batch.codes.tolist() == _GOLDEN_CODES
        assert batch.pivot_columns == _GOLDEN_PIVOTS
        assert batch.values == _GOLDEN_VALUES

    def test_empirical_conditions_stream_unchanged(self):
        conditions = self._sampler().empirical_conditions(5, np.random.default_rng(77))
        np.testing.assert_array_equal(conditions, np.asarray(_GOLDEN_EMPIRICAL))


class TestVectorizedEquivalence:
    """The batched sampler draws from the training-by-sampling distribution."""

    @pytest.fixture()
    def sampler(self, tiny_table, fitted_transformer):
        return ConditionSampler(tiny_table, fitted_transformer)

    def test_pivot_value_marginals_match(self, sampler):
        batch = sampler.sample(4000, np.random.default_rng(5))
        u = sampler.uniform_probability
        for position, column in enumerate(sampler.conditional_columns):
            k = len(sampler.categories(column))
            pivot_codes = batch.codes[batch.pivot_indices == position, position]
            observed = np.bincount(pivot_codes, minlength=k) / len(pivot_codes)
            expected = u / k + (1.0 - u) * sampler._category_probs[column]
            np.testing.assert_allclose(observed, expected, atol=0.04)

    def test_rows_come_from_matching_buckets(self, sampler):
        batch = sampler.sample(256, np.random.default_rng(3))
        real = sampler.real_batch(batch)
        for i, pivot in enumerate(batch.pivot_columns):
            # Every pivot value present in the table has a non-empty bucket,
            # so the drawn row must carry the sampled pivot value.
            assert real.row(i)[pivot] == batch.values[i][pivot]

    def test_vector_matches_codes_scatter(self, sampler):
        batch = sampler.sample(64, np.random.default_rng(11))
        np.testing.assert_array_equal(batch.vector, sampler.vectors_from_codes(batch.codes))
        # And the lazily materialised dicts rebuild the same vectors through
        # the per-row helper.
        rebuilt = np.stack([sampler.vector_from_values(v) for v in batch.values])
        np.testing.assert_array_equal(batch.vector, rebuilt)

    def test_fixed_codes_round_trip(self, sampler):
        codes = np.asarray([[0, 1, 0], [1, 2, 1], [0, 0, 1]])
        vectors = sampler.vectors_from_codes(codes)
        for row, values in zip(vectors, sampler.values_from_codes(codes)):
            assert sampler.values_from_vector(row) == values

    def test_unknown_code_gives_zero_block_and_omitted_value(self, sampler):
        codes = np.asarray([[-1, 0, 1]])
        vectors = sampler.vectors_from_codes(codes)
        first = sampler.conditional_columns[0]
        assert vectors[0, sampler.condition_slice(first)].sum() == 0.0
        assert first not in sampler.values_from_codes(codes)[0]


class TestEncoderEquivalence:
    """Batched encoder paths agree with per-value reference loops."""

    def test_onehot_transform_matches_reference(self):
        values = np.asarray(["a", "b", "c", "a", "b"] * 20, dtype=object)
        encoder = OneHotEncoder().fit(values)
        reference = np.zeros((len(values), 3))
        for row, value in enumerate(values):
            reference[row, encoder._index[value]] = 1.0
        np.testing.assert_array_equal(encoder.transform(values), reference)

    def test_onehot_decode_matches_listcomp(self):
        encoder = OneHotEncoder(categories=["x", "y", "z"])
        codes = np.asarray([2, 0, 1, 1, 2])
        expected = [encoder.categories[i] for i in codes]
        assert list(encoder.decode(codes)) == expected

    def test_ordinal_transform_matches_reference(self):
        values = np.asarray(["p", "q", "p", "r"], dtype=object)
        encoder = OrdinalEncoder().fit(values)
        np.testing.assert_allclose(encoder.transform(values), [0.0, 1.0, 0.0, 2.0])

    def test_mode_normalizer_distributionally_identical(self, rng):
        values = np.concatenate([rng.normal(-4, 0.4, 800), rng.normal(4, 0.4, 800)])
        normalizer = ModeSpecificNormalizer(max_modes=4, seed=3).fit(values)
        encoded = normalizer.transform(values, rng=np.random.default_rng(0))

        # Per-row reference draw (the seed loop) with its own stream.
        proba = normalizer.gmm.predict_proba(values)
        reference_rng = np.random.default_rng(1)
        reference_modes = np.asarray(
            [reference_rng.choice(normalizer.n_modes, p=p) for p in proba]
        )
        modes = np.argmax(encoded[:, 1:], axis=1)
        # Same mode-assignment marginals...
        counts_a = np.bincount(modes, minlength=normalizer.n_modes) / len(values)
        counts_b = np.bincount(reference_modes, minlength=normalizer.n_modes) / len(values)
        np.testing.assert_allclose(counts_a, counts_b, atol=0.05)
        # ...and identical alpha given the same modes.
        mu = normalizer.gmm.means[modes]
        sigma = normalizer.gmm.stds[modes]
        np.testing.assert_allclose(
            encoded[:, 0], np.clip((values - mu) / (4.0 * sigma), -1.0, 1.0)
        )

    def test_mode_transform_one_rng_draw_per_batch(self):
        values = np.random.default_rng(0).normal(size=200)
        normalizer = ModeSpecificNormalizer(max_modes=3, seed=0).fit(values)
        rng = np.random.default_rng(9)
        normalizer.transform(values, rng=rng)
        # Exactly one uniform batch was consumed: a fresh generator advanced
        # by one size-200 uniform call is now aligned with ``rng``.
        other = np.random.default_rng(9)
        other.uniform(size=200)
        assert rng.integers(0, 1 << 30) == other.integers(0, 1 << 30)


class TestBlockLayout:
    def test_argmax_matches_per_block(self, rng):
        layout = BlockLayout([(0, 3), (3, 5), (7, 13), (13, 16)])
        matrix = rng.normal(size=(50, 16))
        winners = layout.argmax_matrix(matrix)
        for b, (s, e) in enumerate(layout.bounds):
            np.testing.assert_array_equal(winners[:, b], matrix[:, s:e].argmax(axis=1))

    def test_winners_fast_path_matches_argmax_on_one_hot(self, rng):
        layout = BlockLayout([(0, 4), (4, 6), (6, 11)])
        codes = np.stack([rng.integers(0, 4, 40), rng.integers(0, 2, 40),
                          rng.integers(0, 5, 40)], axis=1)
        matrix = np.zeros((40, 11))
        for b, (s, _) in enumerate(layout.bounds):
            matrix[np.arange(40), s + codes[:, b]] = 1.0
        np.testing.assert_array_equal(layout.winners(matrix), codes)

    def test_winners_falls_back_on_soft_input(self, rng):
        layout = BlockLayout([(0, 4), (4, 9)])
        matrix = rng.uniform(size=(30, 9))
        np.testing.assert_array_equal(layout.winners(matrix), layout.argmax_matrix(matrix))

    def test_softmax_matches_per_block_reference(self, rng):
        layout = BlockLayout([(0, 3), (3, 8)])
        matrix = rng.normal(size=(20, 8))
        gathered = layout.gather(matrix)
        soft = layout.softmax(gathered, tau=0.5)
        for b, (s, e) in enumerate(layout.bounds):
            block = matrix[:, s:e] / 0.5
            shifted = np.exp(block - block.max(axis=1, keepdims=True))
            np.testing.assert_allclose(
                soft[:, layout.starts[b] : layout.starts[b] + layout.widths[b]],
                shifted / shifted.sum(axis=1, keepdims=True),
            )


class TestTransformerVectorized:
    def test_transform_matches_reference_blocks(self, fitted_transformer, tiny_table):
        # Same seed twice: the batched single-pass writer must equal the
        # concatenation of the per-encoder blocks.
        a = fitted_transformer.transform(tiny_table, rng=np.random.default_rng(4))
        blocks = []
        rng = np.random.default_rng(4)
        for info in fitted_transformer.output_info:
            encoder = fitted_transformer.encoder(info.name)
            values = tiny_table.column(info.name)
            if isinstance(encoder, ModeSpecificNormalizer):
                blocks.append(encoder.transform(values.astype(np.float64), rng=rng))
            elif isinstance(encoder, OneHotEncoder):
                blocks.append(encoder.transform(values))
            else:
                blocks.append(encoder.transform(values.astype(np.float64))[:, None])
        np.testing.assert_array_equal(a, np.concatenate(blocks, axis=1))

    def test_inverse_equals_per_encoder_decode(self, fitted_transformer, tiny_table, rng):
        matrix = fitted_transformer.transform(tiny_table, rng=rng)
        soft = rng.uniform(size=(64, fitted_transformer.output_dim))
        for candidate in (matrix, soft):
            restored = fitted_transformer.inverse_transform(candidate)
            for info in fitted_transformer.output_info:
                encoder = fitted_transformer.encoder(info.name)
                block = candidate[:, info.start : info.end]
                if isinstance(encoder, OneHotEncoder):
                    np.testing.assert_array_equal(
                        restored.column(info.name), encoder.inverse_transform(block)
                    )

    def test_table_codes_and_factorize(self, tiny_table):
        codes = tiny_table.column_codes("proto", {"tcp": 0, "udp": 1})
        np.testing.assert_array_equal(
            codes, [0 if v == "tcp" else 1 for v in tiny_table.column("proto")]
        )
        fcodes, uniques = tiny_table.factorize("service")
        assert [uniques[c] for c in fcodes] == list(tiny_table.column("service"))
