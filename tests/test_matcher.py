"""Prototype matching, first-order matching, re-matching a stuck leaf."""

from __future__ import annotations

import sys

import pytest

from conftest import ty
from spinel.matcher import MatchFailure, _match, match_proto
from spinel.syntax import (
    Arrow,
    ArrowTo,
    Con,
    Contextual,
    Exact,
    Forall,
    NameSupply,
    Solution,
    Stuck,
    TVar,
    Unknown,
    is_meta_name,
)

NAT = Con("Nat")


def arrow_to(*protos, tail=None):
    p = tail if tail is not None else Unknown()
    for _ in protos:
        p = ArrowTo(p)
    return p


def test_unknown_prototype_decorates_nothing():
    links, leaf, solution = match_proto(frozenset(), ty("forall X. X -> X"), Unknown())
    assert not solution
    assert (links, leaf) == ([], ty("forall X. X -> X"))


def test_exact_prototype_is_first_order_matching():
    links, leaf, solution = match_proto({"M"}, Arrow(TVar("M"), NAT), Exact(ty("B -> Nat")))
    assert solution.types() == {"M": Con("B")}
    assert (links, leaf) == ([], Arrow(TVar("M"), NAT))


def test_exact_prototype_does_not_instantiate_quantifiers():
    got = match_proto(frozenset(), ty("forall X. X -> X"), Exact(ty("Nat -> Nat")))
    assert type(got) is MatchFailure and not got.arity_overrun


def test_contextual_solution_lands_in_the_decoration():
    links, leaf, solution = match_proto(
        frozenset(),
        ty("forall X. forall Y. X -> Y -> X"),
        arrow_to(1, 2, tail=Exact(NAT)),
    )
    x, y = TVar("?X0"), TVar("?Y1")
    assert links == ["?X0", "?Y1", x, y]
    assert leaf == x
    # The solution decorates the peeled ``?X0`` alone: ``?Y1`` stays open.
    assert solution.types() == {"?X0": NAT}
    assert solution["?X0"].origin == Contextual(x, NAT)


def test_meta_head_gets_stuck_instead_of_failing():
    links, leaf, solution = match_proto(
        frozenset(), ty("forall X. X -> X"), arrow_to(1, 2, tail=Exact(NAT))
    )
    assert not solution
    assert links == ["?X0", TVar("?X0")]
    assert leaf == Stuck("?X0", ArrowTo(Exact(NAT)))


@pytest.mark.parametrize(
    "metas, t, proto",
    [
        (frozenset(), ty("forall X. forall Y. X -> Y -> X"), arrow_to(1, 2, tail=Exact(NAT))),
        (frozenset(), ty("forall X. X -> X"), arrow_to(1, 2, tail=Exact(NAT))),
        (frozenset(), ty("forall X. X -> X"), Exact(ty("Nat -> Nat"))),
        (frozenset(), NAT, arrow_to(1)),
        (frozenset({"M"}), Con("Pair", (TVar("M"), TVar("M"))), Exact(ty("Pair Nat B"))),
    ],
    ids=["decorated", "stuck", "exact-disagreement", "arity-overrun", "conflict"],
)
def test_match_proto_returns_what_the_engine_reads(metas, t, proto):
    # The public entry and the spine's head match give one result, a
    # failure included.
    assert match_proto(metas, t, proto) == _match(metas, t, proto, NameSupply())


def test_a_long_arrow_chain_is_matched_by_a_loop():
    # a 3,000-arrow chain matched against a 3,000-deep prototype, under
    # Python's default recursion limit
    n = 3000
    chain, proto, domains = NAT, Exact(NAT), []
    for i in range(n):
        domain = Con("B") if i % 2 else NAT
        chain, proto = Arrow(domain, chain), ArrowTo(proto)
        domains.append(domain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = match_proto(frozenset(), chain, proto)
    finally:
        sys.setrecursionlimit(limit)
    assert out == (domains[::-1], NAT, Solution())


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
    assert (links, rest, solution) == ([NAT], NAT, Solution())


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
    assert leaf == TVar("?X0")
    assert solution.types() == {"?X0": NAT}


def test_a_match_reads_one_link_per_demanded_arrow_and_peeled_quantifier():
    # The arity a prototype demands is the number of domain links read.
    links, leaf, _ = _match(
        frozenset(), ty("forall X. X -> Nat -> X"), arrow_to(1, 2), NameSupply()
    )
    assert links == ["?X0", TVar("?X0"), NAT]
    assert sum(type(link) is not str for link in links) == 2
    assert leaf == TVar("?X0")
    assert _match(frozenset(), NAT, Exact(NAT), NameSupply()) == ([], NAT, Solution())


def test_a_fresh_supply_makes_decorated_types_comparable_with_eq():
    # Goldens compare with ``==``: two matches from fresh supplies mint
    # the same names, so equal inputs give equal decorated types.
    t, p = ty("forall X. forall Y. X -> Y -> X"), arrow_to(1, 2, tail=Exact(NAT))
    first, second = match_proto(frozenset(), t, p), match_proto(frozenset(), t, p)
    assert first[:2] == second[:2]
    assert first[2].types() == second[2].types() == {"?X0": NAT}


def test_first_order_match_solves_uniquely():
    pattern = Con("Pair", (TVar("M"), TVar("M")))
    links, leaf, solution = match_proto({"M"}, pattern, Exact(ty("Pair Nat Nat")))
    assert solution.types() == {"M": NAT}
    assert solution["M"].origin == Contextual(pattern, ty("Pair Nat Nat"))
    assert (links, leaf) == ([], pattern)


def test_first_order_match_rejects_conflicts():
    got = match_proto({"M"}, Con("Pair", (TVar("M"), TVar("M"))), Exact(ty("Pair Nat B")))
    assert type(got) is MatchFailure


def test_first_order_match_rejects_scope_escape():
    pat = Forall("Y", Arrow(TVar("M"), TVar("Y")))
    tgt = ty("forall Y. Y -> Y")
    assert type(match_proto({"M"}, pat, Exact(tgt))) is MatchFailure


def test_first_order_match_handles_quantified_patterns():
    pat = Forall("Y", Arrow(TVar("Y"), TVar("M")))
    _, _, solution = match_proto({"M"}, pat, Exact(ty("forall C. C -> Nat")))
    assert solution.types() == {"M": NAT}


def test_first_order_match_precondition_on_target():
    with pytest.raises(ValueError):
        match_proto({"M"}, TVar("M"), Exact(TVar("M")))


def test_first_order_match_rejects_a_pattern_quantifier_binding_a_solvable_variable():
    with pytest.raises(ValueError, match="solvable variable is bound inside the pattern"):
        match_proto({"M"}, Arrow(NAT, Forall("M", TVar("M"))), Exact(ty("Nat -> forall A. A")))


def test_supply_backed_binders_are_run_unique_metas():
    supply = NameSupply()
    links, _, _ = _match(
        frozenset(), ty("forall X. forall Y. X -> Y -> Pair X Y"), arrow_to(1), supply
    )
    outer, inner = links[:2]
    assert type(outer) is str and outer.startswith("?X")
    assert type(inner) is str and inner.startswith("?Y")


def test_without_a_supply_every_peeled_binder_is_a_reserved_meta():
    # One naming path: a fresh supply mints the names, even where the
    # binder's own name clashes with nothing.
    links, leaf, _ = match_proto(
        frozenset({"M"}), ty("forall X. forall Y. X -> Y -> Pair X Y"), arrow_to(1, 2)
    )
    outer, inner = links[:2]
    assert is_meta_name(outer) and outer.startswith("?X")
    assert is_meta_name(inner) and inner.startswith("?Y")
    assert outer != inner
    assert links[2:] == [TVar(outer), TVar(inner)]
    assert leaf == Con("Pair", (TVar(outer), TVar(inner)))
