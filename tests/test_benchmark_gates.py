"""The benchmark gate table (``benchmarks/run.py``) and its evaluator.

The evaluator tests pin each kind's boundary: a value exactly at the bound
holds and the next representable value past it fails.  The table tests
check :data:`GATES` against the committed ``BENCH_*.json`` files, so a
trajectory entry can be neither ungated nor gated by a row its own record
fails.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from dataclasses import replace

import pytest

from benchmarks import run
from benchmarks.run import CEILING, EXACT, FLOOR, Gate, Probe, evaluate


def _fixed(*values) -> Probe:
    """A probe whose attempts report ``values`` for ``e.k`` in turn."""
    return Probe("fixed", tuple((lambda v=v: {"e": {"k": v}}) for v in values))


def _verdicts(kind, tolerance, absolute, committed, *measured) -> list[bool]:
    results = []
    for value in measured:
        gate = Gate("s", "e", "k", _fixed(value), kind, tolerance, absolute)
        results += [row["ok"] for row in evaluate([gate], {"s": {"e": {"k": committed}}})]
    return results


class TestEvaluator:
    def test_ceiling_with_slack(self):
        # 10 x 1.3 + 1.0 = 14.0
        bound = Gate("s", "e", "k", _fixed(), CEILING, 0.30, 1.0).bound(10.0)
        assert bound == pytest.approx(14.0)
        past = math.nextafter(bound, math.inf)
        assert _verdicts(CEILING, 0.30, 1.0, 10.0, bound, past) == [True, False]

    def test_integer_ceiling(self):
        # The byte ceilings: 34,048 B x 1.3 = 44,262.4 B.
        assert _verdicts(CEILING, 0.30, 0.0, 34_048, 44_262, 44_263) == [True, False]

    def test_floor_with_minimum(self):
        # max(2.0 x 0.7, 1.5): the minimum wins.
        assert Gate("s", "e", "k", _fixed(), FLOOR, 0.30, 1.5).bound(2.0) == 1.5
        past = math.nextafter(1.5, -math.inf)
        assert _verdicts(FLOOR, 0.30, 1.5, 2.0, 1.5, past) == [True, False]

    def test_floor_band(self):
        bound = Gate("s", "e", "k", _fixed(), FLOOR, 0.30, 1.0).bound(7.36)
        assert bound == pytest.approx(7.36 * 0.7)
        past = math.nextafter(bound, -math.inf)
        assert _verdicts(FLOOR, 0.30, 1.0, 7.36, bound, past) == [True, False]

    def test_absolute_bound_ignores_the_committed_value(self):
        past = math.nextafter(1.0, math.inf)
        assert _verdicts(CEILING, None, 1.0, 1e-5, 1.0, past) == [True, False]
        assert _verdicts(FLOOR, None, 1.2, 5.0, 1.2, 1.19) == [True, False]

    def test_exact_bool(self):
        assert _verdicts(EXACT, None, True, True, True, False) == [True, False]
        # An absolute exact row holds its value whatever was recorded.
        assert _verdicts(EXACT, None, True, False, True, False) == [True, False]

    def test_exact_list(self):
        committed = [0, 0, 0, 1, 0, 1]
        edited = [0, 0, 0, 1, 0, 2]
        assert _verdicts(EXACT, 0.0, 0.0, committed, list(committed), edited) == [True, False]

    def test_exact_number(self):
        past = math.nextafter(0.9167, math.inf)
        assert _verdicts(EXACT, 0.0, 0.0, 0.9167, 0.9167, past) == [True, False]
        assert _verdicts(EXACT, None, 0, 3, 0, 1) == [True, False]

    def test_probe_that_fails_then_passes_reports_its_second_attempt(self):
        gate = Gate("s", "e", "k", _fixed(20.0, 12.0), CEILING, 0.30, 1.0)
        (row,) = evaluate([gate], {"s": {"e": {"k": 10.0}}})
        assert row["ok"] and row["measured"] == 12.0 and row["attempt"] == "2/2"

    def test_rows_of_a_probe_are_judged_on_one_attempt(self):
        # Attempt 1 fails row a, attempt 2 fails row b: neither holds on one
        # attempt, so both rows are reported from the last one.
        measures = ({"e": {"a": 0.0, "b": 9.0}}, {"e": {"a": 9.0, "b": 0.0}})
        probe = Probe("pair", tuple((lambda m=m: m) for m in measures))
        gates = [Gate("s", "e", key, probe, CEILING, 0.0, 1.0) for key in ("a", "b")]
        rows = evaluate(gates, {"s": {"e": {"a": 0.0, "b": 0.0}}})
        assert [(row["measured"], row["ok"], row["attempt"]) for row in rows] == [
            (9.0, False, "2/2"),
            (0.0, True, "2/2"),
        ]

    def test_printer_names_failing_rows(self):
        gates = [Gate("s", "e", "k", _fixed(5.0), CEILING, 0.0, 0.0)]
        text = run.format_rows(evaluate(gates, {"s": {"e": {"k": 4.0}}}))
        assert "FAILED" in text.splitlines()[1]
        assert text.splitlines()[-1] == "[bench] FAILED: s e.k"


class TestMain:
    @pytest.fixture
    def toy_suite(self, tmp_path, monkeypatch):
        """One fake suite whose full run measures ``e.k = 11``."""
        monkeypatch.setattr(run, "ROOT", tmp_path)
        monkeypatch.setattr(run, "SUITES", {"toy": lambda: {"metrics": {"e": {"k": 11}}}})
        gate = Gate("toy", "e", "k", _fixed(), CEILING, 0.0, 1.0)
        monkeypatch.setattr(run, "GATES", (gate,))
        path = tmp_path / "BENCH_toy.json"
        path.write_text(json.dumps({"metrics": {"e": {"k": 10}}}))
        return path

    @pytest.mark.parametrize("suite", ["toy", "all"])
    def test_json_has_one_shape(self, toy_suite, suite, capsys):
        assert run.main(["--suite", suite, "--json", "--no-write"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"suites", "rows", "ok"}
        assert payload["suites"]["toy"]["metrics"] == {"e": {"k": 11}}
        assert payload["rows"][0]["measured"] == 11 and payload["ok"]
        assert json.loads(toy_suite.read_text())["metrics"] == {"e": {"k": 10}}

    def test_full_run_checks_the_committed_bound_then_writes(self, toy_suite, monkeypatch):
        monkeypatch.setattr(run, "SUITES", {"toy": lambda: {"metrics": {"e": {"k": 12}}}})
        assert run.main(["--suite", "toy"]) == 1
        assert json.loads(toy_suite.read_text())["metrics"] == {"e": {"k": 12}}


class TestTable:
    @pytest.fixture(scope="class")
    def committed(self):
        return {suite: run.committed_metrics(suite) for suite in run.SUITES}

    def test_every_trajectory_file_is_a_suite(self):
        files = {path.name for path in run.ROOT.glob("BENCH_*.json")}
        assert files == {run.trajectory_path(suite).name for suite in run.SUITES}

    def test_every_committed_entry_is_named_by_a_row(self, committed):
        named = {(gate.suite, gate.entry) for gate in run.GATES}
        entries = {(suite, entry) for suite, metrics in committed.items() for entry in metrics}
        assert entries - named == set()

    def test_every_row_names_a_committed_entry_and_key(self, committed):
        for gate in run.GATES:
            assert gate.key in committed[gate.suite][gate.entry], gate

    def test_every_committed_value_passes_its_own_row(self, committed):
        record = {suite: Probe("record", (lambda m=m: m,)) for suite, m in committed.items()}
        gates = [replace(gate, probe=record[gate.suite]) for gate in run.GATES]
        failed = [row for row in evaluate(gates, committed) if not row["ok"]]
        assert failed == []


def test_importing_the_table_leaves_blas_settings_alone(monkeypatch):
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    importlib.reload(run)
    assert dict(os.environ) == before
