"""The public surface: each module's public names are the README's list for it."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinel
import spinel.infer as infer_mod

MODULES = ("syntax", "parser", "infer", "matcher", "internal", "oracle", "cli")

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


def _readme_listed() -> dict[str, set[str]]:
    """The names the Library section lists, by module: under a "`spinel.X`:"
    line, the names a bullet starts with, such as ``infer`` and ``Check``
    in "- `infer(ctx, mode, term)` and `Check`: ..."; and each
    `spinel.X.name` of the paragraph on the names the benchmark uses."""
    listed: dict[str, set[str]] = {}
    module = None
    for paragraph in _readme_library().split("\n\n"):
        if heading := re.fullmatch(r"`spinel\.(\w+)`:", paragraph):
            module = heading[1]
        elif paragraph.startswith("Used by the benchmark"):
            for used, name in re.findall(r"`spinel\.(\w+)\.(\w+)`", paragraph):
                listed.setdefault(used, set()).add(name)
        elif module and paragraph.startswith("- "):
            for bullet in re.split(r"\n(?=- )", paragraph):
                lead = re.match(r"- ((?:`\w+(?:\([^`]*\))?`(?:, and |, | and )?)+)", " ".join(bullet.split()))
                listed.setdefault(module, set()).update(re.findall(r"`(\w+)", lead[1]) if lead else ())
    return listed


def _defined(module: str) -> set[str]:
    """The public names ``module`` defines at its top level: by ``def``,
    ``class`` or assignment, not by import."""
    tree = ast.parse(Path(importlib.import_module(f"spinel.{module}").__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_the_readme_lists_the_seven_modules_and_no_other():
    assert sorted(_readme_listed()) == sorted(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_a_module_defines_exactly_the_public_names_the_readme_lists_for_it(module):
    # Both ways: a public name the README does not list is a helper to make
    # private, and a listed name the module does not define is stale.
    assert _defined(module) == _readme_listed().get(module, set())
    mod = importlib.import_module(f"spinel.{module}")
    for name in _defined(module):
        value = getattr(mod, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == mod.__name__, name


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
