"""Tests for the surface syntax parser and the pretty-printers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from spinel import parse_term, parse_type, pretty_term, pretty_type
from spinel.parser import (
    Assume,
    ConDecl,
    ParseError,
    parse_declaration,
    parse_program,
)
from spinel.syntax import (
    App,
    Arrow,
    Con,
    Forall,
    Lam,
    TApp,
    TLam,
    TVar,
    Var,
    alpha_equal,
    alpha_equal_term,
)

from conftest import CTX, tm, ty


# ------------------------------------------------------------ types


def test_arrow_associates_to_the_right():
    got = ty("Nat -> Nat -> Nat")
    want = Arrow(Con("Nat"), Arrow(Con("Nat"), Con("Nat")))
    assert alpha_equal(got, want)


def test_parenthesized_arrow_domain():
    got = ty("(Nat -> Nat) -> Nat")
    want = Arrow(Arrow(Con("Nat"), Con("Nat")), Con("Nat"))
    assert alpha_equal(got, want)


def test_forall_body_extends_to_the_right():
    got = ty("forall X. X -> X")
    want = Forall("X", Arrow(TVar("X"), TVar("X")))
    assert alpha_equal(got, want)


def test_constructor_application_consumes_exact_arity():
    got = ty("Pair Nat B")
    want = Con("Pair", (Con("Nat"), Con("B")))
    assert alpha_equal(got, want)


def test_constructor_arguments_are_atoms():
    got = ty("Pair (Nat -> B) Nat -> B")
    want = Arrow(Con("Pair", (Arrow(Con("Nat"), Con("B")), Con("Nat"))), Con("B"))
    assert alpha_equal(got, want)


def test_partially_applied_constructor_is_rejected():
    with pytest.raises(ParseError, match="expects 2 argument"):
        ty("Pair Pair Nat")
    with pytest.raises(ParseError, match="expected a type"):
        ty("Pair Nat")


def test_unbound_type_variable_is_rejected():
    with pytest.raises(ParseError, match="unbound type variable"):
        ty("X -> X")


def test_forall_binder_may_not_shadow():
    with pytest.raises(ParseError, match="shadows"):
        ty("forall X. forall X. X")


def test_forall_binder_may_not_reuse_a_constructor_name():
    with pytest.raises(ParseError, match="already a constructor"):
        ty("forall Nat. Nat")


def test_trailing_input_after_type_is_rejected():
    with pytest.raises(ParseError, match="trailing input"):
        ty("Nat Nat")


# ------------------------------------------------------------ terms


def test_application_associates_to_the_left():
    got = tm("suc suc z")
    want = App(App(Var("suc"), Var("suc")), Var("z"))
    assert alpha_equal_term(got, want)


def test_annotated_and_bare_lambdas():
    assert alpha_equal_term(tm("\\x : Nat. x"), Lam("x", Con("Nat"), Var("x")))
    assert alpha_equal_term(tm("\\x. x"), Lam("x", None, Var("x")))


def test_type_lambda_binds_a_type_variable():
    got = tm("/\\C. \\x : C. x")
    want = TLam("C", Lam("x", TVar("C"), Var("x")))
    assert alpha_equal_term(got, want)


def test_bracketed_type_arguments():
    got = tm("ident [Nat] z")
    want = App(TApp(Var("ident"), Con("Nat")), Var("z"))
    assert alpha_equal_term(got, want)


def test_trailing_lambda_argument_needs_no_parens():
    assert alpha_equal_term(tm("rapp z \\y. y"), tm("rapp z (\\y. y)"))


def test_trailing_lambda_swallows_the_rest_of_the_spine():
    got = tm("suc \\x. suc x")
    want = App(Var("suc"), Lam("x", None, App(Var("suc"), Var("x"))))
    assert alpha_equal_term(got, want)


def test_lambda_binder_may_not_shadow():
    with pytest.raises(ParseError, match="shadows"):
        tm("\\z. z")


def test_lambda_binder_may_not_reuse_a_constructor_name():
    with pytest.raises(ParseError, match="already a constructor"):
        tm("\\Nat. z")


def test_unbound_term_variables_parse_as_free_vars():
    got = parse_term("\\f. f q", CTX)
    assert alpha_equal_term(got, Lam("f", None, App(Var("f"), Var("q"))))


def test_primed_identifiers():
    got = tm("\\x'. x'")
    assert alpha_equal_term(got, Lam("x'", None, Var("x'")))


def test_comments_run_to_end_of_line():
    got = tm("suc -- increments\n  z")
    assert alpha_equal_term(got, App(Var("suc"), Var("z")))


# ------------------------------------------------------------ errors


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        ty("Nat ->\n  forall . X")
    assert exc.value.line == 2
    assert exc.value.col == 10
    assert str(exc.value).startswith("2:10:")


def test_parse_error_at_end_of_input():
    with pytest.raises(ParseError, match="expected a type"):
        ty("Nat ->")


def test_goal_requires_a_colon_when_checking():
    with pytest.raises(ParseError, match="':'"):
        parse_declaration("check", "suc z", CTX)


# ------------------------------------------------------------ programs


PROGRAM = """\
type Nat
type List 1
assume nil : forall X. List X
assume cons : forall X. X -> List X -> List X
assume z : Nat

check cons z (nil [Nat]) : List Nat
synth cons z -- partial application
"""


def test_parse_program_collects_declarations():
    decls = list(parse_program(PROGRAM))
    kinds = [type(d).__name__ for d in decls]
    assert kinds == ["ConDecl", "ConDecl", "Assume", "Assume", "Assume", "Goal", "Goal"]
    assert decls[1].arity == 1
    assert decls[5].expected is not None
    assert decls[6].expected is None
    assert decls[5].span.line == 7


def test_parse_program_rejects_duplicate_declarations():
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_program("type Nat\nassume Nat : Nat")
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_program("type Nat\nassume z : Nat\nassume z : Nat")


def test_parse_program_rejects_stray_tokens():
    with pytest.raises(ParseError, match="expected a declaration"):
        parse_program("typo Nat")


def test_parse_assume_and_con_decl_helpers():
    got = parse_declaration("assume", "w : Pair Nat B", CTX)
    assert isinstance(got, Assume) and got.name == "w"
    assert alpha_equal(got.ty, ty("Pair Nat B"))
    got = parse_declaration("type", "Tree 2", CTX)
    assert isinstance(got, ConDecl) and (got.name, got.arity) == ("Tree", 2)
    with pytest.raises(ParseError, match="duplicate"):
        parse_declaration("assume", "z : Nat", CTX)


@pytest.mark.parametrize(
    "keyword, src, col", [("type", "Tree 2 3", 8), ("assume", "w : Nat B", 9), ("synth", "z : Nat", 3)]
)
def test_parse_declaration_rejects_trailing_input(keyword, src, col):
    with pytest.raises(ParseError, match="trailing input after declaration") as exc:
        parse_declaration(keyword, src, CTX)
    assert (exc.value.line, exc.value.col) == (1, col)


# ------------------------------------------------------------ printing


ROUND_TRIPS = [
    "Nat",
    "Nat -> Nat -> Nat",
    "(Nat -> Nat) -> Nat",
    "forall X. X -> X",
    "forall X. forall Y. X -> Y -> Pair X Y",
    "Pair (Nat -> B) (forall X. X)",
    "Sum Nat (Pair B B) -> B",
    "forall X. (X -> Nat) -> Sum X Nat",
]


@pytest.mark.parametrize("src", ROUND_TRIPS)
def test_pretty_type_round_trips(src):
    assert pretty_type(ty(src)) == src


def test_pretty_term_goldens():
    assert pretty_term(tm("\\x : Nat. suc x")) == "\\x : Nat. suc x"
    assert pretty_term(tm("(\\x. x) z")) == "(\\x. x) z"
    assert pretty_term(tm("ident [Nat -> Nat] suc z")) == "ident [Nat -> Nat] suc z"
    assert pretty_term(tm("/\\C. \\x : C. x")) == "/\\C. \\x : C. x"
    assert pretty_term(tm("suc (suc z)")) == "suc (suc z)"


def test_pretty_term_round_trips():
    for src in ["pair [B] [Nat] tt z", "\\f : Nat -> Nat. f z", "rapp z (\\y. y)"]:
        assert alpha_equal_term(tm(pretty_term(tm(src))), tm(src))


# ------------------------------------------------------------ properties


def _type_exprs(depth: int):
    base = st.sampled_from([Con("Nat"), Con("B"), TVar("A")])
    if depth == 0:
        return base
    sub = _type_exprs(depth - 1)
    bound = f"A{depth}"
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda p: Arrow(*p)),
        st.tuples(sub, sub).map(lambda p: Con("Pair", p)),
        sub.map(lambda t: Forall(bound, t)),
    )


@given(_type_exprs(3))
def test_parsing_inverts_printing(t):
    """Printing then parsing any closed type restores it up to alpha."""
    closed = Forall("A", t)
    ctx = CTX
    assert alpha_equal(parse_type(pretty_type(closed), ctx), closed)
