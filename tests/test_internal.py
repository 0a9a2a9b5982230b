"""Independent checker for fully annotated terms."""

from __future__ import annotations

import sys

import pytest

from conftest import CTX, count_well_formed_walks, tm, ty
from spinel.infer import Synthesize, infer
from spinel.internal import InternalTypeError, check_internal
from spinel.syntax import Con, Lam, TApp, TLam, TVar, Var, alpha_equal


def test_checks_a_fully_annotated_application():
    t = tm(r"pair [B -> B] [Nat] (\x : B. x) z")
    assert alpha_equal(check_internal(CTX, t), ty("Pair (B -> B) Nat"))


def test_checks_type_lambdas_and_type_application():
    t = tm(r"(/\C. \x : C. x) [Nat] z")
    assert check_internal(CTX, t) == ty("Nat")


def test_rejects_unannotated_lambdas():
    with pytest.raises(InternalTypeError):
        check_internal(CTX, tm(r"\x. x"))


def test_rejects_argument_type_disagreements():
    with pytest.raises(InternalTypeError):
        check_internal(CTX, tm("suc tt"))


def test_rejects_type_application_of_non_quantified_terms():
    with pytest.raises(InternalTypeError):
        check_internal(CTX, tm("z [Nat]"))


def test_rejects_application_of_a_non_function():
    with pytest.raises(InternalTypeError, match="^applicand is not a function$"):
        check_internal(CTX, tm("z z"))


def test_rejects_unbound_variables():
    # an argument of an arrow-typed head, so the check reaches it
    with pytest.raises(InternalTypeError, match="unbound variable 'missing'"):
        check_internal(CTX, tm("suc missing"))


def test_rejects_a_variable_the_context_does_not_bind():
    with pytest.raises(InternalTypeError, match="unbound variable 'nope'"):
        check_internal(CTX, Var("nope"))


def test_rejects_an_ill_formed_type_argument():
    with pytest.raises(InternalTypeError, match="type argument is not well-formed"):
        check_internal(CTX, TApp(Var("ident"), TVar("A")))


def test_rejects_illformed_annotations():
    with pytest.raises(InternalTypeError):
        check_internal(CTX, Lam("w", TVar("A"), Var("w")))


@pytest.mark.parametrize(
    "term",
    [Lam("z", Con("Nat"), Var("z")), TLam("X", Lam("x", TVar("X"), TLam("X", Var("x"))))],
    ids=["declared-name", "within-the-chain"],
)
def test_a_binder_that_shadows_a_declared_name_is_an_internal_type_error(term):
    # Library-built terms may reuse a declared name; the parser never does.
    with pytest.raises(InternalTypeError, match="duplicate declaration"):
        check_internal(CTX, term)


def test_alpha_renamed_annotations_are_accepted():
    t = tm(r"(\f : forall C. C -> C. f [Nat] z) (/\D. \x : D. x)")
    assert check_internal(CTX, t) == ty("Nat")


def test_each_lambda_annotation_is_checked_once(monkeypatch):
    counts = count_well_formed_walks(monkeypatch)
    check_internal(CTX, tm(r"\x : Nat. \y : B -> B. y"))
    assert counts["walks"] == 2


def test_a_long_polymorphic_spine_rechecks_at_the_default_recursion_limit():
    # the elaboration of g z ... z: 4,000 type arguments, then 4,000 arguments
    n = 4000
    ctx = CTX.with_term("g", ty("".join(f"forall X{i}. " for i in range(n)) + "".join(f"X{i} -> " for i in range(n)) + "Nat"))
    elaborated = infer(ctx, Synthesize(), tm("g" + " z" * n, ctx))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        internal_ty = check_internal(ctx, elaborated.elaboration)
    finally:
        sys.setrecursionlimit(limit)
    assert alpha_equal(internal_ty, elaborated.ty) and internal_ty == Con("Nat")
