"""The public surface: ``spinel`` exports exactly what the README documents."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
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
    # `dir`, not `vars`: the oracle's two entry points load on first use
    public = {
        name
        for name in dir(spinel)
        if not name.startswith("_") and not inspect.ismodule(getattr(spinel, name))
    }
    assert public == DOCUMENTED


SRC = Path(spinel.__file__).resolve().parents[1]


def _readme_library():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library", 1)[1]


def test_readme_library_section_names_every_export():
    library = _readme_library()
    for name in DOCUMENTED:
        assert f"`{name}(" in library or f"`{name}`" in library, name


def test_the_readme_library_example_prints_what_its_comments_say():
    example = _readme_library().split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line.rpartition("# ")[2] for line in example.splitlines() if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True, env=env, check=True)
    assert shown and child.stdout.splitlines() == shown


def test_a_run_starts_without_the_oracle_or_the_dataclass_machinery():
    # Only `--spec-verify` replays, so only it loads the oracle; node
    # classes are built by hand, so nothing loads `dataclasses`.
    script = """
import sys
before = set(sys.modules)
import spinel.cli
print(sorted({"dataclasses", "inspect", "spinel.oracle"} & (set(sys.modules) - before)))
import spinel
from spinel import infer
print(type(infer).__name__, infer.__name__, spinel.infer is infer)
print(spinel.verify_spec is sys.modules["spinel.oracle"].verify_spec)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert child.stdout.splitlines() == ["[]", "function infer True", "True"]
