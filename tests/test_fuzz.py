"""Random well-scoped goals over the standard context, most of them ill
typed, end in a documented outcome: a ``Diagnostic``, or an elaboration
that the internal checker, a second ``Check``, the parser and the
declarative replay all agree with."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import CTX, STANDARD_DECLS
from spinel.cli import main
from spinel.infer import Check, Diagnostic, Synthesize, infer
from spinel.internal import check_internal
from spinel.oracle import _TYPE_POOL, verify_spec
from spinel.parser import parse_term, parse_type, pretty_term, pretty_type
from spinel.syntax import (
    App,
    Arrow,
    Con,
    Forall,
    Lam,
    TApp,
    TermBind,
    TLam,
    TVar,
    Var,
    alpha_equal,
    alpha_equal_term,
)

NAMES = tuple(e.name for e in CTX.entries if type(e) is TermBind)
CONSTANTS = tuple(Con(c) for c, arity in CTX.signature.items() if arity == 0)
CONSTRUCTORS = tuple((c, arity) for c, arity in CTX.signature.items() if arity)

# Every binder is named after its depth (``x3``, ``T3``), counted over
# term and type binders together, so no binder shadows another: the
# parser rejects shadowing.


@st.composite
def types(draw, scope=(), depth=0, budget=3):
    """A type well-formed under the type variables ``scope``."""
    leaves = CONSTANTS + tuple(TVar(a) for a in scope)
    if budget <= 0 or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(("arrow", "forall", "con")))
    if kind == "arrow":
        return Arrow(draw(types(scope, depth, budget - 1)), draw(types(scope, depth, budget - 1)))
    if kind == "forall":
        a = f"T{depth}"
        return Forall(a, draw(types(scope + (a,), depth + 1, budget - 1)))
    con, arity = draw(st.sampled_from(CONSTRUCTORS))
    return Con(con, tuple(draw(types(scope, depth, budget - 1)) for _ in range(arity)))


@st.composite
def terms(draw, names=NAMES, scope=(), depth=0, budget=4):
    """A term whose names are all bound: by the context, a lambda or a
    type lambda around it.  Nothing else holds it to a type."""
    if budget <= 0 or draw(st.integers(0, 2)) == 0:
        return Var(draw(st.sampled_from(names)))
    kind = draw(st.sampled_from(("app", "app", "tapp", "lam", "annotated", "tlam")))
    if kind in ("app", "tapp"):
        # half the heads are names, so that some spines type
        if draw(st.booleans()):
            fun = Var(draw(st.sampled_from(names)))
        else:
            fun = draw(terms(names, scope, depth, budget - 1))
        if kind == "tapp":
            return TApp(fun, draw(types(scope, depth, 2)))
        return App(fun, draw(terms(names, scope, depth, budget - 1)))
    if kind == "tlam":
        a = f"T{depth}"
        return TLam(a, draw(terms(names, scope + (a,), depth + 1, budget - 1)))
    x = f"x{depth}"
    ann = draw(types(scope, depth, 2)) if kind == "annotated" else None
    return Lam(x, ann, draw(terms(names + (x,), scope, depth + 1, budget - 1)))


@st.composite
def goals(draw):
    """A goal's source text: ``check`` against a closed type, often one of
    the common ones, or ``synth``."""
    term = pretty_term(draw(terms()))
    if draw(st.booleans()):
        expected = draw(st.sampled_from(_TYPE_POOL) | types())
        return f"check {term} : {pretty_type(expected)}"
    return f"synth {term}"


def _parsed(goal):
    keyword, rest = goal.split(" ", 1)
    if keyword == "synth":
        return parse_term(rest, CTX), None
    term, expected = rest.rsplit(" : ", 1)
    return parse_term(term, CTX), parse_type(expected, CTX)


@settings(max_examples=400, deadline=None)
@given(goals())
def test_a_random_goal_is_rejected_by_a_diagnostic_or_elaborates_consistently(goal):
    term, expected = _parsed(goal)
    try:
        out = infer(CTX, Synthesize() if expected is None else Check(expected), term)
    except Diagnostic:
        return
    assert alpha_equal(check_internal(CTX, out.elaboration), out.ty)
    again = infer(CTX, Check(out.ty), out.elaboration)
    assert alpha_equal_term(again.elaboration, out.elaboration)
    assert alpha_equal_term(parse_term(pretty_term(out.elaboration), CTX), out.elaboration)
    if type(term) is App:
        triple = (out.spine.deco, out.spine.partial, out.spine.solution)
        verdict = verify_spec(CTX, expected, term, triple)
        assert verdict.accepted, verdict.reason


@settings(max_examples=20, deadline=None)
@given(st.lists(goals(), min_size=1, max_size=8))
def test_a_random_file_runs_to_one_record_per_goal(lines):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "goals.spn"
        path.write_text("\n".join(STANDARD_DECLS + lines) + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", str(path), "--json", "--elab", "--spec-verify"])
    assert code in (0, 1, 2, 3)
    records = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert [r.get("goal") for r in records] == list(range(1, len(lines) + 1))
    assert all(r["status"] != "internal-error" for r in records)
    assert all(r.get("spec", {}).get("accepted") is not False for r in records)
