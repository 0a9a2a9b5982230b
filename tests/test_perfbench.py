"""Smoke run of the benchmark's scaling ladder, its library-only audit,
and the names its tracer wraps, so the harness cannot rot."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import CTX, tm, ty
from spinel.cli import main
from spinel.infer import Diagnostic

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", _PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize(
    "chunk", workloads.scaling_chunks(), ids=lambda c: f"{c.family}-{c.size}"
)
def test_scaling_rung_reproduces_its_known_answers(tmp_path, capsys, chunk):
    path = tmp_path / "rung.spn"
    path.write_text(chunk.source(), encoding="utf-8")
    assert main(["run", str(path), "--json", "--elab"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["goal"] for r in records] == list(range(1, len(chunk.goals) + 1))
    for goal, record in zip(chunk.goals, records):
        assert record["status"] == "ok"
        assert record["type"] == goal.known_type
        assert record["elaboration"] == goal.known_elab


# Names the benchmark still lists although the functions are gone; the
# tracer skips them, and the next change to the benchmark drops them.
STALE = {
    "matcher.match_first_order",
    "matcher.rename_deco",
    "matcher.subst_decorated",
    "parser.parse_goal",
    "parser.parse_assume",
    "parser.parse_con_decl",
    "parser.pretty_proto",
    "parser.pretty_decorated",
}


def _bench_names():
    """The ``spinel`` names in ``bench.py``'s ``CALLS`` and ``FIT_COUNTS``,
    read from its source without importing it."""
    tree = ast.parse((_PERFBENCH / "bench.py").read_text(encoding="utf-8"))
    values = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("CALLS", "FIT_COUNTS")
    }
    return {n for names in values["CALLS"].values() for n in names} | set(values["FIT_COUNTS"])


def _tracer_names():
    """The ``spinel`` names in ``tracer.py``'s ``LAYERS`` and ``METHODS``."""
    tracer = _load("tracer")
    names = set(tracer.LAYERS)
    for mod, classes in tracer.METHODS.items():
        names |= {f"{mod}.{cls}.{m}" for cls, methods in classes.items() for m in methods}
    return names


def _resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"spinel.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_traced_name_resolves_but_the_known_stale_ones():
    names = _bench_names() | _tracer_names()
    assert STALE <= names
    assert [n for n in sorted(names - STALE) if not _resolves(n)] == []
    assert [n for n in sorted(STALE) if _resolves(n)] == []


@pytest.fixture(scope="module")
def harness():
    """``drive``, ``checks`` and ``workloads`` as ``perfbench/run.py``
    imports them: by plain name, with ``perfbench/`` on ``sys.path``."""
    names = ("checks", "drive", "workloads")
    sys.path.insert(0, str(_PERFBENCH))
    try:
        yield SimpleNamespace(**{name: importlib.import_module(name) for name in names})
    finally:
        sys.path.remove(str(_PERFBENCH))
        for name in names:
            sys.modules.pop(name, None)


# The audit's goals: (mode, term, expected type, accepted).
AUDIT_GOALS = [
    ("check", r"pair (\x. x) z", "Pair (Nat -> Nat) Nat", True),
    ("synth", "ident suc z", None, True),
    ("synth", r"pair (\x. x) z", None, False),
    ("check", r"rapp z (\y. y)", "Nat", True),
    ("synth", "bot [Nat -> Nat] z", None, True),
    ("check", "z", "B", False),
]


@pytest.mark.parametrize(
    "mode, term, expected, accepted", AUDIT_GOALS, ids=[f"{m} {t}" for m, t, _, _ in AUDIT_GOALS]
)
def test_the_benchmark_audit_runs_on_the_library_it_calls(harness, mode, term, expected, accepted):
    # ``audit_goal`` reads the spine's type, partial elaboration and
    # solution, replays them with ``verify_spec`` and keeps the
    # ``search_spec`` triples that pass the side conditions;
    # ``judge_audit`` reads each kept triple's solved types.
    goal = harness.workloads.Goal(
        0,
        mode,
        term,
        expected=expected,
        must_accept=accepted,
        term_obj=tm(term),
        expected_obj=None if expected is None else ty(expected),
    )
    raw = harness.drive.audit_goal(CTX, goal)
    assert harness.checks.judge_audit(goal, raw, CTX) is None
    assert isinstance(raw.out, Diagnostic) is not accepted
    if accepted and raw.hits is not None:
        assert raw.verdict.accepted and raw.hits
