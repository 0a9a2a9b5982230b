"""Independent checker for fully annotated terms."""

from __future__ import annotations

import pytest

from conftest import CTX, count_calls, tm, ty
from spinel import check_internal
from spinel.internal import InternalTypeError
from spinel.syntax import alpha_equal


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
    from spinel.syntax import Lam, TVar, Var

    with pytest.raises(InternalTypeError):
        check_internal(CTX, Lam("w", TVar("A"), Var("w")))


def test_alpha_renamed_annotations_are_accepted():
    t = tm(r"(\f : forall C. C -> C. f [Nat] z) (/\D. \x : D. x)")
    assert check_internal(CTX, t) == ty("Nat")


def test_each_lambda_annotation_is_checked_once(monkeypatch):
    import spinel.internal as internal_mod
    import spinel.syntax as syntax_mod

    calls = count_calls(monkeypatch, "is_well_formed", [syntax_mod, internal_mod])
    check_internal(CTX, tm(r"\x : Nat. \y : B -> B. y"))
    assert calls[0] == 2
