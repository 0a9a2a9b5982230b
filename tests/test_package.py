"""The public surface: each name the README documents is imported from its module."""

from __future__ import annotations

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import spinel
import spinel.infer as infer_mod

DOCUMENTED = {
    "spinel.infer": {"infer", "Check", "Synthesize", "Diagnostic", "spine_infer"},
    "spinel.parser": {"parse_term", "parse_type", "ParseError", "pretty_term", "pretty_type"},
    "spinel.internal": {"check_internal"},
    "spinel.matcher": {"match_proto"},
    "spinel.oracle": {"verify_spec", "search_spec"},
}

SRC = Path(spinel.__file__).resolve().parents[1]


def _readme_library():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library", 1)[1]


def _child(script: str, *argv: str) -> list[str]:
    """The lines ``script`` prints in a fresh interpreter, which has imported nothing of spinel."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True)
    return child.stdout.splitlines()


def test_the_package_root_exports_nothing():
    assert [name for name, value in vars(spinel).items()
            if not name.startswith("_") and not inspect.ismodule(value)] == []
    assert not hasattr(spinel, "__all__") and not hasattr(spinel, "__getattr__")


def test_import_spinel_infer_binds_the_module():
    assert inspect.ismodule(infer_mod) and infer_mod.__name__ == "spinel.infer"
    assert infer_mod.infer.__module__ == "spinel.infer"


def test_every_documented_name_imports_from_the_module_the_readme_names():
    # The Library section lists each name in a bullet under a "`spinel.X`:" line.
    listed: dict[str, set[str]] = {}
    module = None
    for line in _readme_library().splitlines():
        if heading := re.fullmatch(r"`(spinel\.\w+)`:", line):
            module = heading[1]
        elif line.startswith("- `") and module:
            listed.setdefault(module, set()).update(re.findall(r"`(\w+)[(`]", line))
        elif line.startswith("#"):
            break
    assert listed == DOCUMENTED
    for module, names in DOCUMENTED.items():
        for name in names:
            assert getattr(importlib.import_module(module), name).__module__ == module, (module, name)


def test_the_readme_library_example_prints_what_its_comments_say():
    example = _readme_library().split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line.rpartition("# ")[2] for line in example.splitlines() if line.startswith("print(")]
    assert shown and _child(example) == shown


def test_a_run_imports_neither_the_oracle_the_internal_checker_nor_dataclasses_or_inspect(tmp_path):
    # Only `--spec-verify` replays, so only it loads the oracle; the run
    # checks no elaboration, so nothing loads the internal checker; node
    # classes are built by hand, so nothing loads `dataclasses` or `inspect`.
    path = tmp_path / "goals.spn"
    path.write_text("type Nat\nassume z : Nat\nassume f : forall X. X -> X\nsynth f z\ncheck \\x. f x : Nat -> Nat\n")
    script = """
import sys
from spinel.cli import main
assert main(["run", sys.argv[1], "--elab", "--trace"]) == 0
print(sorted({"dataclasses", "inspect", "spinel.internal", "spinel.oracle"} & set(sys.modules)))
"""
    assert _child(script, str(path))[-1] == "[]"


def test_the_oracle_imports_neither_the_parser_nor_the_internal_checker():
    script = "import sys, spinel.oracle; print(sorted({'spinel.internal', 'spinel.parser'} & set(sys.modules)))"
    assert _child(script) == ["[]"]
