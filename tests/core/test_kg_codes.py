"""The knowledge head's integer-code path (``KGRows``).

``train_step`` corrupts, scores and encodes its negatives on code arrays.
These tests pin that path against the per-record reasoner query it replaced
-- including values the transformer's encoders never saw, which code as -1
and are scored through the reasoner -- check that the public table
adapter and the trainer's per-fit cached arrays are one path, and that
scoring transformed rows agrees with scoring the decoded table.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.generator import TabularOutputActivation
from repro.core.kg_discriminator import KnowledgeGuidedDiscriminator
from repro.knowledge.builder import build_network_kg
from repro.knowledge.reasoner import KGReasoner
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

#: Columns whose last categories the narrow transformer never sees.
_NARROWED = ("src_ip", "dst_port")


@pytest.fixture
def reasoner(lab_bundle_small):
    return KGReasoner(
        build_network_kg(lab_bundle_small.catalog),
        field_map=lab_bundle_small.catalog.field_map,
    )


def _transformer(table: Table, narrow: bool) -> DataTransformer:
    """A transformer fit on ``table`` -- or, when ``narrow``, on its rows
    whose values avoid the last two categories of :data:`_NARROWED`, under
    a schema listing only the remaining categories."""
    if narrow:
        specs = [
            dataclasses.replace(spec, categories=spec.categories[:-2])
            if spec.name in _NARROWED
            else spec
            for spec in table.schema
        ]
        schema = TableSchema(specs)
        keep = np.ones(table.n_rows, dtype=bool)
        for name in _NARROWED:
            allowed = set(schema.column(name).categories)
            keep &= np.array([value in allowed for value in table.column(name)])
        table = Table(schema, {name: table.column(name)[keep] for name in schema.names})
    return DataTransformer(max_modes=4, seed=0).fit(table)


def _records(dkg: KnowledgeGuidedDiscriminator, rows) -> list[dict]:
    records = []
    for i in range(len(rows)):
        record = {name: rows.labels[i, j] for j, name in enumerate(dkg._categorical_kg)}
        record.update({name: rows.values[i, j] for j, name in enumerate(dkg._continuous_kg)})
        records.append(record)
    return records


def test_unseen_categories_score_like_is_valid(lab_bundle_small, reasoner, monkeypatch):
    table = lab_bundle_small.table.head(400)
    transformer = _transformer(table, narrow=True)
    dkg = KnowledgeGuidedDiscriminator(
        reasoner, transformer, hidden_dims=(8,), rng=np.random.default_rng(2)
    )
    scored = []
    rows_valid = dkg._rows_valid

    def spy(rows):
        valid = rows_valid(rows)
        scored.append((rows, valid))
        return valid

    monkeypatch.setattr(dkg, "_rows_valid", spy)
    real_matrix = transformer.transform(table, rng=np.random.default_rng(0))
    for start in range(0, 400, 100):
        batch = table.select_rows(np.arange(start, start + 100))
        dkg.train_step(batch, real_matrix[start : start + 100], fake_matrix=None, negatives=100)

    pools = [rows for rows, _ in scored]
    unseen = sum(int((rows.codes < 0).any(axis=1).sum()) for rows in pools)
    assert unseen > 0, "the table must carry values the transformer never saw"
    for rows, valid in scored:
        expected = [reasoner.is_valid(record) for record in _records(dkg, rows)]
        assert valid.tolist() == expected
    outcomes = np.concatenate([valid for _, valid in scored])
    assert outcomes.any() and not outcomes.all()


@pytest.mark.parametrize("narrow", [False, True], ids=["seen", "unseen"])
def test_table_adapter_matches_cached_rows(lab_bundle_small, reasoner, narrow):
    """``train_step(real_table=...)`` and the trainer's call on per-fit
    cached arrays give the same loss, head weights and RNG state."""
    table = lab_bundle_small.table.head(500)
    transformer = _transformer(table, narrow)
    idx = np.random.default_rng(4).integers(0, table.n_rows, size=64)
    batch = table.select_rows(idx)
    real_matrix = transformer.transform(batch, rng=np.random.default_rng(1))
    fake = np.random.default_rng(3).uniform(size=(64, transformer.output_dim))
    negatives = 48

    adapter, cached = (
        KnowledgeGuidedDiscriminator(
            reasoner, transformer, hidden_dims=(16,), rng=np.random.default_rng(9)
        )
        for _ in range(2)
    )
    kg_valid, kg_rows = cached.hard_scores(table), cached.kg_rows(table)
    for _ in range(3):
        loss_adapter = adapter.train_step(batch, real_matrix, fake, negatives=negatives)
        loss_cached = cached.train_step(
            None,
            real_matrix,
            fake,
            negatives=negatives,
            real_valid=kg_valid[idx],
            real_rows=kg_rows.take(idx[:negatives]),
        )
        assert loss_adapter == loss_cached
    assert adapter.rng.bit_generator.state == cached.rng.bit_generator.state
    state_adapter, state_cached = adapter.head.state_dict(), cached.head.state_dict()
    for key in state_adapter:
        assert np.array_equal(state_adapter[key], state_cached[key]), key


def test_train_step_needs_a_table_or_cached_arrays(lab_bundle_small, reasoner):
    table = lab_bundle_small.table.head(64)
    transformer = _transformer(table, narrow=False)
    dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=np.random.default_rng(0))
    real_matrix = transformer.transform(table, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        dkg.train_step(None, real_matrix, None, real_valid=np.ones(64))


@pytest.mark.parametrize("encoding", ["mode", "minmax"])
def test_matrix_scores_match_the_decoded_table(lab_bundle_small, reasoner, encoding):
    """Scoring transformed rows decodes only the KG columns, yet agrees
    with the reasoner on the fully decoded table -- for min-max encoded
    source ports too."""
    table = lab_bundle_small.table.head(300)
    transformer = DataTransformer(max_modes=4, continuous_encoding=encoding, seed=0).fit(table)
    dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=np.random.default_rng(0))
    raw = np.random.default_rng(1).normal(size=(300, transformer.output_dim)) * 2
    activation = TabularOutputActivation(
        transformer.activation_spans(), rng=np.random.default_rng(2)
    )
    noise = activation.forward(raw)
    matrix = np.concatenate([transformer.transform(table, rng=np.random.default_rng(3)), noise])
    expected = reasoner.validity_mask(transformer.inverse_transform(matrix))
    scores = dkg.hard_scores_matrix(matrix, batch_size=128)
    assert scores.tolist() == expected.astype(np.float64).tolist()
    assert 0.0 < scores.mean() < 1.0
