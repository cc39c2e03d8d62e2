"""Docs lint: the README's claims about other files must stay true.

CI runs this as its own step (separate from the code lint) so a doc
drifting out of sync fails with a readable assertion instead of a 404
for the next reader:

* every ``DESIGN.md section N`` reference in README resolves against an
  actual ``## N.`` header in DESIGN.md;
* every path in the README's "Architecture at a glance" table exists on
  disk, and its section column names a real DESIGN.md section;
* the documents the README links by name (DESIGN.md, ROADMAP.md,
  docs/optimizer.md) exist, and docs/optimizer.md's own module
  references point at real files.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
DESIGN = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")

DESIGN_SECTIONS = {
    int(number) for number in re.findall(r"^## (\d+)\.", DESIGN, flags=re.MULTILINE)
}


def test_design_has_contiguous_sections():
    assert DESIGN_SECTIONS == set(range(1, max(DESIGN_SECTIONS) + 1))


def test_readme_design_section_references_resolve():
    references = re.findall(r"DESIGN\.md section (\d+)", README)
    assert references, "README should anchor into DESIGN.md by section"
    for number in references:
        assert int(number) in DESIGN_SECTIONS, (
            f"README references DESIGN.md section {number}, "
            f"but DESIGN.md only has {sorted(DESIGN_SECTIONS)}"
        )


def _architecture_rows() -> list[tuple[str, str]]:
    """(path, sections-cell) pairs from the architecture-at-a-glance table."""
    rows = re.findall(r"^\| `([^`]+)` \| [^|]+ \| ([^|]+) \|$", README, flags=re.MULTILINE)
    return [(path, cell.strip()) for path, cell in rows if cell.strip() != "DESIGN.md"]


def test_architecture_map_paths_exist():
    rows = _architecture_rows()
    assert len(rows) >= 10, "architecture map table went missing or changed shape"
    for path, _ in rows:
        assert (REPO_ROOT / path).exists(), f"architecture map names missing path {path}"


def test_architecture_map_sections_resolve():
    for path, cell in _architecture_rows():
        numbers = re.findall(r"section (\d+)", cell)
        assert numbers, f"row for {path} has no DESIGN.md section"
        for number in numbers:
            assert int(number) in DESIGN_SECTIONS, (
                f"row for {path} cites DESIGN.md section {number}, which does not exist"
            )


def test_cross_cutting_paragraph_covers_remaining_sections():
    # Every DESIGN.md section should be reachable from the README map
    # (table rows plus the cross-cutting paragraph beneath it).
    cited = {int(number) for number in re.findall(r"section (\d+)", README)}
    missing = DESIGN_SECTIONS - cited
    assert not missing, f"DESIGN.md sections unreachable from README: {sorted(missing)}"


def test_linked_documents_exist():
    for relative in ("DESIGN.md", "ROADMAP.md", "docs/optimizer.md", "CHANGES.md"):
        assert (REPO_ROOT / relative).exists(), f"{relative} referenced but missing"


def test_optimizer_doc_module_references_exist():
    text = (REPO_ROOT / "docs" / "optimizer.md").read_text(encoding="utf-8")
    paths = re.findall(r"`((?:src|tests|benchmarks)/[\w/]+\.py)`", text)
    assert paths, "docs/optimizer.md should cite its implementing modules"
    for path in paths:
        assert (REPO_ROOT / path).exists(), f"docs/optimizer.md cites missing {path}"


def test_optimizer_doc_dotted_modules_import_paths_exist():
    text = (REPO_ROOT / "docs" / "optimizer.md").read_text(encoding="utf-8")
    for dotted in re.findall(r"`(repro\.[\w.]+)\.[A-Z]\w*`", text) + re.findall(
        r":mod:`(repro\.[\w.]+)`", text
    ):
        module_path = REPO_ROOT / "src" / Path(*dotted.split("."))
        assert module_path.with_suffix(".py").exists() or module_path.is_dir(), (
            f"docs/optimizer.md cites module {dotted}, which does not exist under src/"
        )
