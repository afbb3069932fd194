"""The documented metric catalog matches the metric families the code publishes.

Every ``repro_*`` family registered under ``src/repro`` through
``.counter(`` / ``.gauge(`` / ``.histogram(`` must appear in the catalog
table of ``docs/observability.md`` with the same kind, and the table must
name no family the code never registers.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
KINDS = ("counter", "gauge", "histogram")
CATALOG_ROW = re.compile(r"^\| `(repro_\w+)` \| (\w+) \|")


def registered_families() -> dict[str, set[str]]:
    """``name -> kinds`` of every literal ``repro_*`` family in the source."""
    families: dict[str, set[str]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in KINDS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.startswith("repro_")
            ):
                continue
            families.setdefault(node.args[0].value, set()).add(node.func.attr)
    return families


def documented_families() -> dict[str, str]:
    """``name -> kind`` of every row of the documented catalog table."""
    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    catalog = text.split("### Metric catalog", 1)[1]
    rows: dict[str, str] = {}
    for line in catalog.splitlines():
        match = CATALOG_ROW.match(line)
        if match:
            assert match.group(1) not in rows, f"{match.group(1)} documented twice"
            rows[match.group(1)] = match.group(2)
    return rows


def test_catalog_names_every_registered_family_with_its_kind():
    registered = registered_families()
    documented = documented_families()
    assert registered, "found no metric registrations under src/repro"
    assert sorted(registered) == sorted(documented)
    for name, kinds in registered.items():
        assert kinds == {documented[name]}, name
