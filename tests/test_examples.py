"""Smoke tests that run the quick examples' ``main()`` end to end."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_knowledge_graph_tour(capsys):
    _load("knowledge_graph_tour").main()
    out = capsys.readouterr().out
    assert "record with dst_port=33000 valid? True" in out
    assert "record with dst_port=80 valid? False" in out
    assert "rule_name='destination-port'" in out
    for family in ("protocol", "source-ip", "destination-ip", "destination-port", "source-port"):
        assert f"\n  {family} " in out
    assert "Validity of the real capture: ValidityReport: 2000/2000 valid" in out
