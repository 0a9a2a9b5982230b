"""Independent checker for fully annotated terms."""

from __future__ import annotations

import pytest

from conftest import CTX, count_well_formed_walks, tm, ty
from spinel import check_internal
from spinel.internal import InternalTypeError
from spinel.syntax import Con, Lam, TLam, TVar, Var, alpha_equal


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


def test_rejects_unbound_variables():
    with pytest.raises(InternalTypeError):
        check_internal(CTX, tm("pair missing"))


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
