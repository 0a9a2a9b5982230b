"""Prototype matching, first-order matching, re-matching a stuck leaf."""

from __future__ import annotations

import pytest

from conftest import ty
from spinel import match_proto
from spinel.matcher import MatchFailure, _match
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
    Solution,
    Stuck,
    TVar,
    Unknown,
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
    x, y = TVar("?X0"), TVar("?Y1")
    expected = DForall("?X0", NAT, DForall("?Y1", None, DArrow(x, DArrow(y, Plain(x)))))
    assert got.decorated == expected
    assert got.decorated.deco_origin == Contextual(x, NAT)


def test_meta_head_gets_stuck_instead_of_failing():
    got = match_proto(frozenset(), ty("forall X. X -> X"), arrow_to(1, 2, tail=Exact(NAT)))
    assert got.solution.is_identity
    expected = DForall("?X0", None, DArrow(TVar("?X0"), Stuck("?X0", ArrowTo(Exact(NAT)))))
    assert got.decorated == expected


def test_arity_overrun_is_reported_as_such():
    out = _match(frozenset(), NAT, ArrowTo(Unknown()), NameSupply())
    assert isinstance(out, MatchFailure)
    assert out.arity_overrun


def test_exact_disagreement_is_not_an_arity_overrun():
    out = _match(frozenset(), Arrow(NAT, NAT), ArrowTo(Exact(Con("B"))), NameSupply())
    assert isinstance(out, MatchFailure)
    assert not out.arity_overrun
    assert out.ty == NAT


def test_a_solved_stuck_leaf_rematches_against_its_pending_prototype():
    # The spine's re-match: the leaf's solved type against its prototype.
    leaf = Stuck("X", ArrowTo(Exact(NAT)))
    links, rest, solution = _match(frozenset(), ty("Nat -> Nat"), leaf.proto, NameSupply())
    assert (links, rest, solution) == ([NAT], Plain(NAT), Solution())


def test_a_solved_stuck_leaf_fails_on_arity_conflicts():
    leaf = Stuck("X", ArrowTo(Exact(NAT)))
    out = _match(frozenset(), NAT, leaf.proto, NameSupply())
    assert isinstance(out, MatchFailure) and out.arity_overrun


def test_a_rematch_hands_over_its_links_and_decorations():
    # Links come out as they are read: a quantifier as its meta-variable,
    # an arrow as its renamed domain; the solution decorates the peeled
    # metas, unrestricted.
    links, leaf, solution = _match(
        frozenset(), ty("forall X. forall Y. Y -> X"), ArrowTo(Exact(NAT)), NameSupply()
    )
    assert links == ["?X0", "?Y1", TVar("?Y1")]
    assert leaf == Plain(TVar("?X0"))
    assert solution.types() == {"?X0": NAT}


def test_a_match_reads_one_link_per_demanded_arrow_and_peeled_quantifier():
    # The arity a prototype demands is the number of domain links read.
    links, leaf, _ = _match(
        frozenset(), ty("forall X. X -> Nat -> X"), arrow_to(1, 2), NameSupply()
    )
    assert links == ["?X0", TVar("?X0"), NAT]
    assert sum(type(link) is not str for link in links) == 2
    assert leaf == Plain(TVar("?X0"))
    assert _match(frozenset(), NAT, Exact(NAT), NameSupply()) == ([], Plain(NAT), Solution())


def test_a_fresh_supply_makes_decorated_types_comparable_with_eq():
    # Goldens compare with ``==``: two matches from fresh supplies mint
    # the same names, so equal inputs give equal decorated types.
    t, p = ty("forall X. forall Y. X -> Y -> X"), arrow_to(1, 2, tail=Exact(NAT))
    first, second = match_proto(frozenset(), t, p), match_proto(frozenset(), t, p)
    assert first.decorated == second.decorated
    assert first.solution.types() == second.solution.types() == {}


def test_first_order_match_solves_uniquely():
    pattern = Con("Pair", (TVar("M"), TVar("M")))
    got = match_proto({"M"}, pattern, Exact(ty("Pair Nat Nat")))
    assert got.solution.types() == {"M": NAT}
    assert got.solution.binding("M").origin == Contextual(pattern, ty("Pair Nat Nat"))
    assert got.decorated == Plain(pattern)


def test_first_order_match_rejects_conflicts():
    assert (
        match_proto({"M"}, Con("Pair", (TVar("M"), TVar("M"))), Exact(ty("Pair Nat B")))
        is None
    )


def test_first_order_match_rejects_scope_escape():
    pat = Forall("Y", Arrow(TVar("M"), TVar("Y")))
    tgt = ty("forall Y. Y -> Y")
    assert match_proto({"M"}, pat, Exact(tgt)) is None


def test_first_order_match_handles_quantified_patterns():
    pat = Forall("Y", Arrow(TVar("Y"), TVar("M")))
    got = match_proto({"M"}, pat, Exact(ty("forall C. C -> Nat")))
    assert got.solution.types() == {"M": NAT}


def test_first_order_match_precondition_on_target():
    with pytest.raises(ValueError):
        match_proto({"M"}, TVar("M"), Exact(TVar("M")))


def test_first_order_match_rejects_a_pattern_quantifier_binding_a_solvable_variable():
    with pytest.raises(ValueError, match="solvable variable is bound inside the pattern"):
        match_proto({"M"}, Arrow(NAT, Forall("M", TVar("M"))), Exact(ty("Nat -> forall A. A")))


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
