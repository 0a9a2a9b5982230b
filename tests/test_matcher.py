"""Prototype matching, first-order matching, decorated substitution."""

from __future__ import annotations

import pytest

from conftest import ty
from spinel import match_proto
from spinel.matcher import match_first_order, subst_decorated
from spinel.syntax import (
    Arrow,
    ArrowTo,
    Con,
    Contextual,
    DArrow,
    DForall,
    Exact,
    Forall,
    NameSupply,
    Plain,
    Stuck,
    TVar,
    Unknown,
    alpha_equal_deco,
    is_meta_name,
    strip,
)

NAT = Con("Nat")


def arrow_to(*protos, tail=None):
    p = tail if tail is not None else Unknown()
    for _ in protos:
        p = ArrowTo(p)
    return p


def test_unknown_prototype_decorates_nothing():
    out = match_proto(frozenset(), ty("forall X. X -> X"), Unknown())
    assert out.solution.is_identity
    assert out.decorated == Plain(ty("forall X. X -> X"))


def test_exact_prototype_is_first_order_matching():
    out = match_proto({"M"}, Arrow(TVar("M"), NAT), Exact(ty("B -> Nat")))
    assert out.solution.types() == {"M": Con("B")}
    assert out.decorated == Plain(Arrow(TVar("M"), NAT))


def test_exact_prototype_does_not_instantiate_quantifiers():
    assert match_proto(frozenset(), ty("forall X. X -> X"), Exact(ty("Nat -> Nat"))) is None


def test_contextual_solution_lands_in_the_decoration():
    got = match_proto(
        frozenset(),
        ty("forall X. forall Y. X -> Y -> X"),
        arrow_to(1, 2, tail=Exact(NAT)),
    )
    assert got.solution.is_identity
    expected = DForall(
        "X",
        NAT,
        DForall(
            "Y", None, DArrow(TVar("X"), DArrow(TVar("Y"), Plain(TVar("X"))))
        ),
    )
    assert alpha_equal_deco(got.decorated, expected)


def test_meta_head_gets_stuck_instead_of_failing():
    got = match_proto(frozenset(), ty("forall X. X -> X"), arrow_to(1, 2, tail=Exact(NAT)))
    assert got.solution.is_identity
    expected = DForall("X", None, DArrow(TVar("X"), Stuck("X", ArrowTo(Exact(NAT)))))
    assert alpha_equal_deco(got.decorated, expected)


def test_arity_overrun_is_reported_as_such():
    from spinel.matcher import MatchFailure, _match

    out = _match(frozenset(), NAT, ArrowTo(Unknown()), NameSupply())
    assert isinstance(out, MatchFailure)
    assert out.arity_overrun


def test_exact_disagreement_is_not_an_arity_overrun():
    from spinel.matcher import MatchFailure, _match

    out = _match(frozenset(), Arrow(NAT, NAT), ArrowTo(Exact(Con("B"))), NameSupply())
    assert isinstance(out, MatchFailure)
    assert not out.arity_overrun
    assert out.ty == NAT


def test_subst_decorated_rematches_stuck_decorations():
    w = DArrow(TVar("X"), Stuck("X", ArrowTo(Exact(NAT))))
    got = subst_decorated({"X": ty("Nat -> Nat")}, w)
    assert got == DArrow(ty("Nat -> Nat"), DArrow(NAT, Plain(NAT)))
    assert strip(got) == ty("(Nat -> Nat) -> Nat -> Nat")


def test_subst_decorated_is_undefined_on_arity_conflicts():
    w = DArrow(TVar("X"), Stuck("X", ArrowTo(Exact(NAT))))
    assert subst_decorated({"X": NAT}, w) is None


def test_subst_decorated_leaves_quantifier_decorations_alone():
    w = DForall("Y", TVar("M"), Plain(Arrow(TVar("M"), TVar("Y"))))
    got = subst_decorated({"M": NAT}, w)
    assert got == DForall("Y", TVar("M"), Plain(Arrow(NAT, TVar("Y"))))


def test_first_order_match_solves_uniquely():
    pattern = Con("Pair", (TVar("M"), TVar("M")))
    got = match_first_order({"M"}, pattern, ty("Pair Nat Nat"))
    assert got.types() == {"M": NAT}
    assert got.binding("M").origin == Contextual(pattern, ty("Pair Nat Nat"))


def test_first_order_match_rejects_conflicts():
    assert (
        match_first_order({"M"}, Con("Pair", (TVar("M"), TVar("M"))), ty("Pair Nat B"))
        is None
    )


def test_first_order_match_rejects_scope_escape():
    pat = Forall("Y", Arrow(TVar("M"), TVar("Y")))
    tgt = ty("forall Y. Y -> Y")
    assert match_first_order({"M"}, pat, tgt) is None


def test_first_order_match_handles_quantified_patterns():
    pat = Forall("Y", Arrow(TVar("Y"), TVar("M")))
    got = match_first_order({"M"}, pat, ty("forall C. C -> Nat"))
    assert got.types() == {"M": NAT}


def test_first_order_match_precondition_on_target():
    with pytest.raises(ValueError):
        match_first_order({"M"}, TVar("M"), TVar("M"))


def test_first_order_match_rejects_a_pattern_quantifier_binding_a_solvable_variable():
    with pytest.raises(ValueError, match="solvable variable is bound inside the pattern"):
        match_first_order({"M"}, Arrow(NAT, Forall("M", TVar("M"))), ty("Nat -> forall A. A"))


def test_supply_backed_binders_are_run_unique_metas():
    supply = NameSupply()
    got = match_proto(
        frozenset(), ty("forall X. forall Y. X -> Y -> Pair X Y"), arrow_to(1), supply
    )
    assert isinstance(got.decorated, DForall)
    outer = got.decorated
    assert outer.bound.startswith("?X")
    assert isinstance(outer.body, DForall)
    assert outer.body.bound.startswith("?Y")


def test_without_a_supply_every_peeled_binder_is_a_reserved_meta():
    # One naming path: a fresh supply mints the names, even where the
    # binder's own name clashes with nothing.
    got = match_proto(
        frozenset({"M"}), ty("forall X. forall Y. X -> Y -> Pair X Y"), arrow_to(1, 2)
    )
    outer = got.decorated
    inner = outer.body
    assert is_meta_name(outer.bound) and outer.bound.startswith("?X")
    assert is_meta_name(inner.bound) and inner.bound.startswith("?Y")
    assert outer.bound != inner.bound
    assert strip(got.decorated) == Forall(
        outer.bound,
        Forall(
            inner.bound,
            Arrow(TVar(outer.bound), Arrow(TVar(inner.bound), Con("Pair", (TVar(outer.bound), TVar(inner.bound))))),
        ),
    )
