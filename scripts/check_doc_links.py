"""Check that intra-repository markdown links resolve.

Scans the repository's markdown documentation (``README.md``,
``ROADMAP.md``, ``docs/*.md``) for ``[text](target)`` links and fails if
any relative target does not exist on disk.  External links
(``http(s)://``, ``mailto:``) and pure in-page anchors (``#...``) are
skipped; a ``#fragment`` suffix on a relative target is stripped before
the existence check.

It also scans the package sources (``src/repro/**/*.py``: docstrings,
comments and help text) for cited ``*.md`` names such as
``docs/serving.md`` and fails if one does not exist relative to the
repository root.

Run from the repository root (CI's docs job does):

    python scripts/check_doc_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline link: [text](target).  Targets never contain spaces in
#: this repository's docs, which keeps the pattern simple and precise.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: A markdown file name cited in Python source, e.g. ``docs/serving.md``.
MD_NAME = re.compile(r"[\w./-]+\.md\b")


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md", REPO_ROOT / "ROADMAP.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def broken_links(path: Path) -> list[str]:
    broken = []
    for target in LINK.findall(path.read_text()):
        if target.startswith(SKIP_PREFIXES):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            broken.append(target)
    return broken


def source_files() -> list[Path]:
    return sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))


def missing_md_names(path: Path) -> list[str]:
    return [name for name in MD_NAME.findall(path.read_text()) if not (REPO_ROOT / name).exists()]


def main() -> int:
    failures = 0
    for path in doc_files():
        for target in broken_links(path):
            print(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
            failures += 1
    for path in source_files():
        for name in missing_md_names(path):
            print(f"{path.relative_to(REPO_ROOT)}: cites missing file -> {name}")
            failures += 1
    if failures:
        print(f"{failures} broken link(s)")
        return 1
    print(
        f"checked {len(doc_files())} markdown files and {len(source_files())} source files: "
        "all links resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
