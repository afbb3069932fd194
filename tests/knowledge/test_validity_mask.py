"""Batched ``KGReasoner.validity_mask`` parity with the per-record query,
the validator reports and D_KG's bound tables."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.kg_discriminator import KnowledgeGuidedDiscriminator
from repro.datasets import load_cicids2017, load_lab_iot, load_nsl_kdd, load_unsw_nb15
from repro.knowledge.builder import build_network_kg
from repro.knowledge.catalog import DeviceSpec, DomainCatalog, EventSpec
from repro.knowledge.reasoner import KGReasoner
from repro.knowledge.validator import BatchValidator
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer


@pytest.fixture(scope="module")
def lab():
    bundle = load_lab_iot(n_records=400, seed=3)
    reasoner = KGReasoner(build_network_kg(bundle.catalog), field_map=bundle.catalog.field_map)
    return bundle, reasoner


#: The four datasets, keyed by short test ids.
_LOADERS = {
    "lab": load_lab_iot,
    "unsw": load_unsw_nb15,
    "nsl": load_nsl_kdd,
    "cic": load_cicids2017,
}


def _per_record(reasoner: KGReasoner, table: Table) -> np.ndarray:
    return np.asarray([reasoner.is_valid(record) for record in table.to_records()])


def _corrupt(table: Table, kg_columns: list[str], rng: np.random.Generator) -> Table:
    """A copy of ``table`` with one KG column of every row replaced: by the
    value of another row, a schema category, an unknown label or ``None``
    (categorical), or a random port or NaN (continuous)."""
    columns = {name: table.column(name).copy() for name in table.schema.names}
    for i in range(table.n_rows):
        name = kg_columns[rng.integers(0, len(kg_columns))]
        spec, draw = table.schema.column(name), rng.random()
        if draw < 0.5:
            value = table.column(name)[rng.integers(0, table.n_rows)]
        elif spec.is_continuous:
            value = float(rng.integers(0, 65536)) if draw < 0.9 else np.nan
        elif draw < 0.85:
            value = spec.categories[rng.integers(0, len(spec.categories))]
        else:
            value = "unheard-of" if draw < 0.95 else None
        columns[name][i] = value
    return Table(table.schema, columns)


class TestValidityMask:
    def test_matches_per_record_on_real_data(self, lab):
        bundle, reasoner = lab
        mask = reasoner.validity_mask(bundle.table)
        np.testing.assert_array_equal(mask, _per_record(reasoner, bundle.table))
        assert mask.all()  # generated lab data is valid by construction

    @pytest.mark.parametrize("dataset", sorted(_LOADERS))
    def test_matches_per_record_on_corrupted_rows(self, dataset):
        """``validity_mask``, per-record ``is_valid`` and D_KG's bound tables
        agree row for row on seeded single-column corruptions, and the
        report's per-rule counts equal the per-record tallies."""
        bundle = _LOADERS[dataset](n_records=2000, seed=3)
        table = bundle.table
        reasoner = KGReasoner(build_network_kg(bundle.catalog), field_map=bundle.catalog.field_map)
        transformer = DataTransformer(max_modes=2, seed=0).fit(table)
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=np.random.default_rng(0))
        corrupted = _corrupt(table, dkg.kg_columns, np.random.default_rng(0))

        mask = reasoner.validity_mask(corrupted)
        np.testing.assert_array_equal(mask, _per_record(reasoner, corrupted))
        np.testing.assert_array_equal(mask, dkg._rows_valid(dkg.kg_rows(corrupted)))
        assert 0 < mask.sum() < len(mask)

        tallies = Counter(
            v.rule_name for record in corrupted.to_records() for v in reasoner.violations(record)
        )
        report = BatchValidator(reasoner).report(corrupted)
        assert report.violations_by_rule == dict(tallies)
        assert report.valid == int(mask.sum())

    def test_accepts_column_mapping(self, lab):
        bundle, reasoner = lab
        table = bundle.table
        columns = {name: table.column(name) for name in table.schema.names}
        np.testing.assert_array_equal(
            reasoner.validity_mask(columns), reasoner.validity_mask(table)
        )

    def test_unconstrained_when_event_column_absent(self, lab):
        bundle, reasoner = lab
        table = bundle.table.drop_columns([reasoner.field_map["event_type"]])
        assert reasoner.validity_mask(table).all()

    def test_non_numeric_port_is_invalid(self, lab):
        bundle, reasoner = lab
        table = bundle.table
        columns = {name: table.column(name).copy() for name in table.schema.names}
        port_column = reasoner.field_map["destination_port"]
        if table.schema.column(port_column).is_continuous:
            pytest.skip("port column stored as float in this schema")
        columns[port_column][0] = "not-a-port"
        corrupted = Table(table.schema, columns)
        mask = reasoner.validity_mask(corrupted)
        np.testing.assert_array_equal(mask, _per_record(reasoner, corrupted))

    def test_table_scores_uses_batched_path(self, lab):
        bundle, reasoner = lab
        scores = BatchValidator(reasoner).table_scores(bundle.table)
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(scores, _per_record(reasoner, bundle.table).astype(float))


@pytest.fixture(scope="module")
def tiny() -> KGReasoner:
    """One unconstrained event and one constrained in every family."""
    catalog = DomainCatalog(
        name="tiny",
        devices=[DeviceSpec("cam", "10.0.0.2")],
        events=[
            EventSpec("free"),
            EventSpec(
                "web",
                protocols=("TCP",),
                source_devices=("cam",),
                destination_ports=(80, 443),
                destination_port_range=(8000, 8080),
                source_port_range=(1024, 65535),
            ),
        ],
    )
    return KGReasoner(build_network_kg(catalog))


class TestSpecialCases:
    """The five special cases of the reasoner module docstring, per record
    and batched."""

    @pytest.mark.parametrize(
        "record, rules",
        [
            ({"event_type": None, "protocol": "junk", "dst_port": "x"}, []),
            ({"event_type": "nope", "protocol": "junk", "dst_port": "x"}, ["known-event"]),
            ({"event_type": "free", "protocol": "junk", "src_ip": "1.2.3.4", "dst_port": 5}, []),
            ({"event_type": "free", "dst_port": "x"}, ["destination-port"]),
            ({"event_type": "web", "dst_port": float("nan")}, ["destination-port"]),
            ({"event_type": "free", "src_port": "x"}, []),
            ({"event_type": "web", "src_port": "x"}, ["source-port"]),
            ({"event_type": "web", "src_port": 80}, ["source-port"]),
            ({"event_type": "web", "dst_port": 443.9, "src_port": 2000}, []),
            ({"event_type": "web", "dst_port": "8080"}, []),
            ({"event_type": "web", "dst_port": 8081}, ["destination-port"]),
            (
                {"event_type": "web", "protocol": "UDP", "src_ip": "9.9.9.9"},
                ["protocol", "source-ip"],
            ),
        ],
    )
    def test_record_and_mask_agree(self, tiny, record, rules):
        assert [v.rule_name for v in tiny.violations(record)] == rules
        columns = {name: np.array([value], dtype=object) for name, value in record.items()}
        assert tiny.validity_mask(columns).tolist() == [not rules]

    def test_bind_matches_the_row_evaluator(self, tiny):
        events, ports = ["web", "free", None, "nope"], [80, "8080", 8081, "x"]
        bound = tiny.bind({"event_type": events, "dst_port": ports})
        assert bound.known.tolist() == [True, True, True, False]
        expected = [
            [
                not any(
                    v.rule_name == "destination-port"
                    for v in tiny.violations({"event_type": event, "dst_port": port})
                )
                for port in ports
            ]
            for event in events
        ]
        assert bound.tables["dst_port"].tolist() == expected
        assert set(bound.families) == {"protocol", "src_ip", "dst_ip", "src_port"}


@settings(max_examples=40, deadline=None)
@given(port=st.one_of(st.integers(-10, 70_000), st.floats(allow_nan=True, allow_infinity=True)))
@example(port=float("inf"))
@example(port=1e300)
@example(port=1023.9)
def test_source_port_family_is_its_range(tiny, port):
    """Property: a source port violates iff it does not parse or its
    truncation lies outside the event's range; per record and batched."""
    inside = bool(np.isfinite(port)) and 1024 <= int(port) <= 65535
    record = {"event_type": "web", "src_port": port}
    assert tiny.is_valid(record) == inside
    columns = {name: np.array([value], dtype=object) for name, value in record.items()}
    assert tiny.validity_mask(columns)[0] == inside
    assert tiny.is_valid({"event_type": "free", "src_port": port})


@settings(max_examples=40, deadline=None)
@given(protocol=st.one_of(st.sampled_from(["TCP", "UDP", "tcp"]), st.text(max_size=4), st.none()))
def test_protocol_family_is_membership(tiny, protocol):
    """Property: a protocol violates iff it is outside the event's allowed
    set, and never for an event that leaves protocols unconstrained."""
    assert tiny.is_valid({"event_type": "web", "protocol": protocol}) == (protocol == "TCP")
    assert tiny.is_valid({"event_type": "free", "protocol": protocol})
