"""The public surface: ``spinel`` exports exactly what the README documents."""

from __future__ import annotations

import inspect
from pathlib import Path

import spinel

DOCUMENTED = {
    "infer",
    "Check",
    "Synthesize",
    "Diagnostic",
    "spine_infer",
    "check_internal",
    "match_proto",
    "verify_spec",
    "search_spec",
    "parse_term",
    "parse_type",
    "pretty_term",
    "pretty_type",
}


def test_all_is_the_documented_surface():
    assert set(spinel.__all__) == DOCUMENTED
    assert len(spinel.__all__) == len(DOCUMENTED)
    public = {
        name
        for name, value in vars(spinel).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == DOCUMENTED


def test_readme_library_section_names_every_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    for name in DOCUMENTED:
        assert f"`{name}(" in library or f"`{name}`" in library, name
