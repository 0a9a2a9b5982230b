"""Declarative replay, derivation search, erasures, and corpora."""

from __future__ import annotations

import ast
import contextlib
import gc
import hashlib
import importlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CTX,
    application_goals,
    contextual_spine,
    count_calls,
    count_solution_copies,
    criterion_9_corpus,
    erasure_source,
    polymorphic_spine,
    recursion_headroom,
    tm,
    ty,
)
import spinel.infer as infer_mod
from spinel.cli import main
from spinel.infer import Check, Diagnostic, Synthesize, infer, spine_infer
from spinel.internal import check_internal
from spinel.oracle import (
    _TYPE_POOL,
    _declined,
    _solve_instantiation,
    _subtypes,
    _term_size,
    _type_size,
    canonical_triple_key,
    check_weak_completeness_conditions,
    default_candidates,
    enumerate_erasures,
    enumerate_internal_terms,
    enumerate_matcher_types,
    passes_side_conditions,
    search_spec,
    standard_context,
    verify_spec,
)
from spinel.parser import pretty_term, pretty_type
from spinel.syntax import (
    App,
    Arrow,
    Binding,
    Con,
    Context,
    Contextual,
    Exact,
    Forall,
    Lam,
    Solution,
    TApp,
    TermBind,
    TVar,
    Unknown,
    Var,
    alpha_equal,
    alpha_equal_term,
    canon_term,
    canon_type,
    free_type_vars,
    is_well_formed,
    match_type,
    spine_parts,
    substitute,
)


def triple_for(term, expected=None, ctx=CTX):
    proto = Unknown() if expected is None else Exact(expected)
    out = spine_infer(ctx, proto, term)
    return (out.deco, out.partial, out.solution)


# ------------------------------------------------------------ verification


def test_replay_accepts_the_contextual_golden():
    term = tm(r"pair (\x. x) z")
    expected = ty("Pair (B -> B) Nat")
    verdict = verify_spec(CTX, expected, term, triple_for(term, expected))
    assert verdict.accepted
    assert verdict.trace == (
        "PHead", "PApp", "PForall", "PForall", "PChk", "PApp", "PChk", "shim",
    )


def test_replay_accepts_synthetic_solving():
    term = tm("ident suc z")
    verdict = verify_spec(CTX, None, term, triple_for(term))
    assert verdict.accepted
    assert "PSyn" in verdict.trace


def test_replay_accepts_explicit_type_arguments():
    term = tm("bot [forall Y. Y -> Y] z")
    verdict = verify_spec(CTX, None, term, triple_for(term))
    assert verdict.accepted
    assert verdict.trace[1] == "PTApp"


def test_replay_rejects_a_tampered_type():
    term = tm("pair z tt")
    _, p, sol = triple_for(term)
    verdict = verify_spec(CTX, None, term, (ty("Pair B B"), p, sol))
    assert not verdict.accepted


def test_replay_rejects_a_tampered_elaboration():
    term = tm("pair z tt")
    t, _, sol = triple_for(term)
    wrong = tm("pair [B] [B] z tt")
    verdict = verify_spec(CTX, None, term, (t, wrong, sol))
    assert not verdict.accepted


def test_replay_rejects_padding_in_the_solution():
    term = tm(r"pair (\x. x) z")
    expected = ty("Pair (B -> B) Nat")
    t, p, sol = triple_for(term, expected)
    padded = Solution({**sol, "?Z9": Binding(Con("Nat"), Contextual(Con("Nat"), Con("Nat")))})
    verdict = verify_spec(CTX, expected, term, (t, p, padded))
    assert not verdict.accepted


def test_replay_rejects_junk_guesses_through_the_shim():
    term = tm("suc z")
    t, p, sol = triple_for(term)
    assert verify_spec(CTX, None, term, (t, p, sol)).accepted
    junk = Solution({**sol, "?J0": Binding(Con("B"), Contextual(Con("B"), Con("B")))})
    assert not verify_spec(CTX, None, term, (t, p, junk)).accepted


def test_replay_rejects_synthesis_with_unsolved_metas():
    term = tm("right z")
    triple = triple_for(term)
    verdict = verify_spec(CTX, None, term, triple)
    assert not verdict.accepted
    assert "unsolved" in verdict.reason or "meta" in verdict.reason


def test_replay_checks_the_mode_side_conditions():
    term = tm("right z")
    expected = ty("Sum B Nat")
    triple = triple_for(term, expected)
    assert verify_spec(CTX, expected, term, triple).accepted
    assert not verify_spec(CTX, ty("Sum Nat Nat"), term, triple).accepted


def test_replay_names_its_own_metas_apart_from_the_claimed_ones():
    # The run names the meta of binder `v` `?v0`; the replay's own meta, for
    # the quantifier a synthesizing argument solves, must not meet it.
    ctx = CTX.with_term("f2", ty("forall v. forall u. u -> v"))
    term, expected = tm("f2 z", ctx), ty("Nat", ctx)
    triple = triple_for(term, expected, ctx)
    assert "?v0" in pretty_term(triple[1])
    assert verify_spec(ctx, expected, term, triple).accepted


@pytest.mark.parametrize("checked", [False, True], ids=["synth", "check"])
def test_replay_work_grows_linearly_with_the_spine(monkeypatch, checked):
    # Each quantifier's type argument reaches the rest of the head's type
    # only where it is read, not by a substitution into all of it.
    syntax_mod = importlib.import_module("spinel.syntax")
    oracle_mod = importlib.import_module("spinel.oracle")
    counts = {}
    for n in (24, 48):
        xs = [f"X{i}" for i in range(1, n + 1)]
        ctx = CTX.with_term("g", ty("".join(f"forall {x}. " for x in xs) + " -> ".join(xs + ["Nat"])))
        term = tm("g " + " ".join("z" if i % 2 else "tt" for i in range(1, n + 1)), ctx)
        expected = ty("Nat", ctx) if checked else None
        triple = triple_for(term, expected, ctx)
        with monkeypatch.context() as patch:
            calls = count_calls(patch, "substitute", [syntax_mod, oracle_mod])
            assert verify_spec(ctx, expected, term, triple).accepted
        counts[n] = calls[0]
    assert counts[48] <= 2.2 * counts[24]


def test_replay_of_contextual_solutions_grows_linearly_with_the_spine(monkeypatch):
    # Entries copied into new solutions and solved-type maps while the
    # replay follows a checked spine whose every quantifier is guessed: it
    # grows one map of guesses in place and wraps it once, at the shim.
    counts = {}
    for n in (24, 48):
        ctx, term, expected = contextual_spine(n)
        triple = triple_for(term, expected, ctx)
        with monkeypatch.context() as patch:
            copied = count_solution_copies(patch)
            assert verify_spec(ctx, expected, term, triple).accepted
        counts[n] = copied[0]
    assert counts[48] <= 2.2 * counts[24], counts


def test_replay_requires_an_application():
    with pytest.raises(ValueError):
        verify_spec(CTX, None, tm("z"), (ty("Nat"), tm("z"), Solution()))


G2_CTX = CTX.with_term("g2", ty("forall X. Nat -> forall Y. Y -> Y"))


def claimed_partial(src, ctx=CTX):
    """A claim of type Nat, no solution, and ``src`` as its partial elaboration."""
    return ty("Nat", ctx), tm(src, ctx), Solution()


def reused_meta_claim():
    # `pair [?A] [?A] z z`, guessing one meta-variable for both quantifiers
    meta = TVar("?A")
    partial = App(App(TApp(TApp(Var("pair"), meta), meta), tm("z")), tm("z"))
    sol = Solution({"?A": Binding(Con("Nat"), Contextual(TVar("?A"), Con("Nat")))})
    return ty("Pair Nat Nat"), partial, sol


REJECTIONS = [
    # terms that fail on their own
    (CTX, r"(\x. x) z", None, lambda: claimed_partial("z"),
     "head does not synthesize: unannotated-lambda", ()),
    (CTX, "z z", None, lambda: claimed_partial("z z"),
     "argument applied but the type reveals no arrow", ("PHead", "PApp")),
    (CTX, "suc tt", None, lambda: claimed_partial("suc tt"),
     "argument does not check: type-mismatch", ("PHead", "PApp", "PChk")),
    (CTX, r"ident (\x. x)", None, lambda: claimed_partial(r"ident [Nat] (\x. x)"),
     "argument does not synthesize: unannotated-lambda", ("PHead", "PApp", "PForall", "PSyn")),
    (CTX, "rapp z tt", None, lambda: claimed_partial("rapp [Nat] [B] z tt"),
     "argument type is not an instance of the expected domain",
     ("PHead", "PApp", "PForall", "PForall", "PSyn", "PApp", "PSyn")),
    (CTX, "suc [Nat] z", None, lambda: claimed_partial("suc [Nat] z"),
     "explicit type argument but no quantifier to consume", ("PHead", "PTApp")),
    # tampered claims
    (CTX, "suc z", None, lambda: triple_for(tm("ident z")),
     "claimed head elaboration differs", ("PHead",)),
    (CTX, "ident [Nat] z", None, lambda: claimed_partial("ident [B] z"),
     "claimed elaboration drops or alters an explicit type argument", ("PHead", "PTApp")),
    (CTX, "ident z", None, lambda: claimed_partial("ident z"),
     "claimed elaboration is missing an inserted type argument", ("PHead", "PApp", "PForall")),
    (CTX, "suc z", None, lambda: claimed_partial("suc"),
     "claimed elaboration is missing a term argument", ("PHead", "PApp", "PChk")),
    (CTX, "suc z", None, lambda: claimed_partial("suc (suc z)"),
     "claimed argument elaboration differs", ("PHead", "PApp", "PChk")),
    (CTX, "suc z", None, lambda: claimed_partial("suc z z"),
     "claimed elaboration has extra spine entries", ("PHead", "PApp", "PChk")),
    (CTX, "pair z z", None, reused_meta_claim,
     "claimed solution reuses a meta-variable name", ("PHead", "PApp", "PForall", "PForall")),
    # side conditions of the mode
    (CTX, r"pair (\x. x) z", None, lambda: triple_for(tm(r"pair (\x. x) z"), ty("Pair (B -> B) Nat")),
     "synthesis must not keep contextual bindings",
     ("PHead", "PApp", "PForall", "PForall", "PChk", "PApp", "PChk", "shim")),
    (G2_CTX, "g2 z", None, lambda: triple_for(tm("g2 z", G2_CTX), ctx=G2_CTX),
     "synthesis left unsolved meta-variables in the elaboration", ("PHead", "PApp", "PForall", "PChk", "shim")),
    (G2_CTX, "g2 z", "forall Y. Y -> Y",
     lambda: triple_for(tm("g2 z", G2_CTX), ty("forall Y. Y -> Y", G2_CTX), G2_CTX),
     "checking left meta-variables the solution does not cover", ("PHead", "PApp", "PForall", "PChk", "shim")),
]


@pytest.mark.parametrize(
    "ctx, src, expected, claim, reason, trace", REJECTIONS, ids=[row[4] for row in REJECTIONS]
)
def test_replay_names_each_rejection_reason(ctx, src, expected, claim, reason, trace):
    ctx_ty = None if expected is None else ty(expected, ctx)
    verdict = verify_spec(ctx, ctx_ty, tm(src, ctx), claim())
    assert (verdict.accepted, verdict.reason, verdict.trace) == (False, reason, trace)


def _solvers_agree(metas, pattern, target):
    """Both solvers answer None, or both solve the same metas with
    alpha-equal types; True if they solved."""
    ours = _solve_instantiation(metas, pattern, target)
    theirs = match_type(metas, pattern, target)
    assert (ours is None) == (theirs is None), (pattern, target)
    if ours is None:
        return False
    assert set(ours) == set(theirs), (pattern, target)
    assert all(alpha_equal(ours[m], theirs[m]) for m in ours), (pattern, target)
    return True


def test_the_oracle_solver_agrees_with_the_matcher_on_every_small_pair():
    # The two solvers stay separate (the oracle must not lean on what it
    # audits); they must still agree, on every pattern and meta-free target.
    metas = frozenset({"M", "N"})
    types = enumerate_matcher_types(4, ("M", "N"))
    targets = [t for t in types if not free_type_vars(t) & metas]
    solved = sum(_solvers_agree(metas, pattern, target) for pattern in types for target in targets)
    assert solved > 0


_BINDERS = st.sampled_from(["A", "B1", "C"])


def _random_types(names):
    """Types over the variables ``names`` and ``Nat``, with binders drawn
    from ``A``, ``B1`` and ``C``, so that binder names repeat."""
    base = st.one_of(st.sampled_from(names).map(TVar), st.just(Con("Nat")))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Arrow(*p)),
            st.tuples(_BINDERS, inner).map(lambda p: Forall(*p)),
            st.tuples(inner, inner).map(lambda p: Con("Pair", p)),
        ),
        max_leaves=8,
    )


_PATTERNS = _random_types(["M", "N", "A", "B1", "C"])
_TARGETS = _random_types(["A", "B1", "C"])


def _under(binders, t):
    for x in reversed(binders):
        t = Forall(x, t)
    return t


@given(_PATTERNS, _TARGETS, _TARGETS, _TARGETS, st.lists(_BINDERS, max_size=3))
def test_the_oracle_solver_agrees_with_the_matcher_on_random_pairs(pattern, target, s, t, xs):
    metas = frozenset({"M", "N"})
    _solvers_agree(metas, pattern, target)
    # an instance of the pattern, which both solve unless a binder escapes
    _solvers_agree(metas, pattern, substitute({"M": s, "N": t}, pattern))
    # pattern and target share the subtree ``t``, under the same binders
    _solvers_agree(metas, _under(xs, Arrow(TVar("M"), t)), _under(xs, Arrow(s, t)))
    _solvers_agree(metas, _under(xs, Arrow(pattern, t)), _under(xs, Arrow(s, t)))
    _solvers_agree(metas, _under(xs, Con("Pair", (t, pattern))), _under(xs, Con("Pair", (t, target))))


@given(_TARGETS, _TARGETS, _TARGETS, st.lists(_BINDERS, max_size=3), st.lists(_BINDERS, max_size=3))
def test_matching_with_no_solvable_variables_is_alpha_equality(a, b, t, xs, ys):
    pairs = [
        (a, b),
        (a, a),
        (Arrow(a, t), Arrow(b, t)),
        (_under(xs, Arrow(a, t)), _under(xs, Arrow(a, t))),
        (_under(xs, t), _under(ys, t)),
        (_under(xs, Con("Pair", (t, a))), _under(ys, Con("Pair", (t, b)))),
    ]
    if "C" not in free_type_vars(a):
        pairs.append((Forall("A", a), Forall("C", substitute({"A": TVar("C")}, a))))
    for p, q in pairs:
        found = match_type(frozenset(), p, q)
        assert (found is not None) == alpha_equal(p, q), (p, q)
        assert found is None or found == {}, (p, q)


# ----------------------------------------------------------------- search


def test_search_finds_the_algorithm_triple():
    term = tm(r"pair (\x. x) z")
    expected = ty("Pair (B -> B) Nat")
    algo = triple_for(term, expected)
    found = [
        t for t in search_spec(CTX, expected, term)
        if passes_side_conditions(CTX, expected, t)
    ]
    keys = {canonical_triple_key(t) for t in found}
    assert canonical_triple_key(algo) in keys


def test_search_agrees_with_replay_on_everything_it_finds():
    term = tm("ident suc z")
    for triple in search_spec(CTX, None, term):
        if passes_side_conditions(CTX, None, triple):
            assert verify_spec(CTX, None, term, triple).accepted


def test_search_finds_nothing_for_untypeable_spines():
    assert search_spec(CTX, None, tm("suc tt")) == []


def test_search_derivations_discharge_to_one_final_answer():
    term = tm(r"pair (\x. x) z")
    expected = ty("Pair (B -> B) Nat")
    finals = set()
    from spinel.syntax import subst_type_args

    for t, p, sol in search_spec(CTX, expected, term):
        if passes_side_conditions(CTX, expected, t_p_sol := (t, p, sol)):
            finals.add(pretty_term(subst_type_args(sol.types(), p)))
    assert len(finals) == 1


def test_search_types_each_argument_once_per_mode_and_expected_type(monkeypatch):
    # The guess pool and the derivations share one table of each argument's
    # typings; before it, ``pair z tt`` made 102 calls, 19 of them distinct.
    oracle = importlib.import_module("spinel.oracle")
    calls = []

    def counted(ctx, mode, term, trace=None):
        expected = mode.expected if isinstance(mode, Check) else None
        calls.append((canon_term(term), None if expected is None else canon_type(expected)))
        return infer(ctx, mode, term, trace)

    monkeypatch.setattr(oracle, "infer", counted)
    search_spec(CTX, None, tm("pair z tt"))
    assert len(calls) == len(set(calls)) == 19


def test_the_oracle_leaves_no_reference_cycles():
    # A nested function that calls itself through its closure cell makes a
    # cycle per call that only the garbage collector frees.
    goals = []
    for term, expected in application_goals(6):
        try:
            goals.append((term, expected, triple_for(term, expected)))
        except Diagnostic:
            pass
    assert goals
    gc.collect()
    gc.disable()
    try:
        for term, expected, triple in goals:
            verify_spec(CTX, expected, term, triple)
            search_spec(CTX, expected, term)
        assert gc.collect() == 0
    finally:
        gc.enable()


SPINEL_RUNS = {
    "erasures-json-elab": (lambda: erasure_source(7), ["--json", "--elab"]),
    "erasures-elab-trace-spec-verify": (lambda: erasure_source(7), ["--elab", "--trace", "--spec-verify"]),
    "wrong-types": (lambda: erasure_source(7, "wrong"), []),
    "resource-limit": (lambda: "type Nat\nassume z : Nat\nassume suc : Nat -> Nat\n"
                       + "synth " + "suc (" * 300 + "z" + ")" * 300 + "\n", ["--json"]),
}


@pytest.mark.parametrize("case", SPINEL_RUNS)
def test_spinel_run_leaves_no_reference_cycles(tmp_path, case):
    # `spinel run` answers with the cyclic collector paused, which frees
    # nothing only if a run makes no cyclic garbage.  A first run's lazy
    # imports (json's encoder, the oracle) leave some, so one run warms up.
    source, flags = SPINEL_RUNS[case]
    path = tmp_path / "goals.spn"
    path.write_text(source())

    def run():
        with contextlib.redirect_stdout(io.StringIO()), recursion_headroom(1000):
            return main(["run", str(path), *flags])

    code = run()
    assert code == (3 if case == "resource-limit" else 1)
    gc.collect()
    gc.disable()
    try:
        assert run() == code
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_default_candidates_cover_context_and_arguments():
    term = tm("ident suc z")
    pool = default_candidates(CTX, ty("Nat"), term)
    assert ty("Nat") in pool
    assert ty("Nat -> Nat") in pool
    assert all(ty_ is not None for ty_ in pool)


def test_subtypes_enumerates_all_subterms():
    got = list(_subtypes(ty("Pair Nat (B -> B)")))
    assert ty("Pair Nat (B -> B)") in got
    assert Con("Nat") in got
    assert ty("B -> B") in got
    assert Con("B") in got
    for src in ("Pair Nat (B -> B)", "forall X. (X -> Nat) -> Sum X (Pair B X)", "Nat"):
        assert list(_subtypes(ty(src))) == list(_reference_subtypes(ty(src)))


def _reference_subtypes(ty_):
    """Reference sub-type walk: recursive, in pre-order."""
    yield ty_
    match ty_:
        case Arrow(dom=d, cod=c):
            yield from _reference_subtypes(d)
            yield from _reference_subtypes(c)
        case Forall(body=b):
            yield from _reference_subtypes(b)
        case Con(args=args):
            for a in args:
                yield from _reference_subtypes(a)


def _reference_default_candidates(ctx, ctx_ty, term):
    """Reference guess pool: every part walked and filtered on each call."""
    pool = []
    if ctx_ty is not None:
        pool.extend(_reference_subtypes(ctx_ty))
    for entry in ctx.entries:
        if isinstance(entry, TermBind):
            pool.extend(_reference_subtypes(entry.ty))
    _, items = spine_parts(term)
    for item in items:
        if not isinstance(item, (TVar, Arrow, Forall, Con)):
            try:
                pool.extend(_reference_subtypes(infer(ctx, Synthesize(), item).ty))
            except Diagnostic:
                pass
    out = []
    seen = set()
    for ty_ in pool:
        if not is_well_formed(ctx, ty_):
            continue
        key = canon_type(ty_)
        if key not in seen:
            seen.add(key)
            out.append(ty_)
    return out


def test_default_candidates_agree_with_the_reference_across_contexts():
    # A pool kept for a stale context would miss the new binding's sub-types.
    bound = ty("forall X. (Nat -> B) -> X -> Pair X (Nat -> B)")
    wider = CTX.with_term("kk", bound)
    goals = application_goals(6)
    assert goals
    for i, (term, expected) in enumerate(goals):
        ctx = wider if i % 2 else CTX
        got = [canon_type(t) for t in default_candidates(ctx, expected, term)]
        assert got == [canon_type(t) for t in _reference_default_candidates(ctx, expected, term)]
        if ctx is wider:
            assert canon_type(bound) in got and canon_type(ty("Nat -> B")) in got


def test_the_context_part_of_the_pool_is_checked_once_per_context(monkeypatch):
    oracle = importlib.import_module("spinel.oracle")
    ctx = Context(CTX.entries, CTX.signature)  # equal to CTX, but a new object
    sub_types = sum(len(list(_subtypes(e.ty))) for e in ctx.entries if isinstance(e, TermBind))
    calls = count_calls(monkeypatch, "is_well_formed", [oracle])
    first = default_candidates(ctx, None, Var("z"))
    assert calls[0] == sub_types
    second = default_candidates(ctx, None, Var("z"))
    assert calls[0] == sub_types
    assert [canon_type(t) for t in first] == [canon_type(t) for t in second]


def test_a_long_arrow_binding_answers_at_the_default_recursion_limit():
    n = 1200
    long = Con("Nat")
    for _ in range(n):
        long = Arrow(Con("Nat"), long)
    ctx = CTX.with_term("f", long)
    base = len(default_candidates(CTX, None, Var("z")))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        pool = default_candidates(ctx, None, Var("z"))
        found = search_spec(ctx, None, App(Var("f"), Var("z")))
    finally:
        sys.setrecursionlimit(limit)
    # every arrow of two links or more is new; Nat -> Nat is suc's type
    assert len(pool) == base + n - 1 and any(t is long for t in pool)
    assert len(found) == 1 and found[0][0] is long.cod


# --------------------------------------------------------------- erasures


def test_erasures_drop_type_argument_suffixes_only():
    base = tm(r"pair [B -> B] [Nat] (\x : B. x) z")
    got = {pretty_term(t) for t in enumerate_erasures(base)}
    assert got == {
        r"pair [B -> B] [Nat] (\x : B. x) z",
        r"pair [B -> B] [Nat] (\x. x) z",
        r"pair [B -> B] (\x : B. x) z",
        r"pair [B -> B] (\x. x) z",
        r"pair (\x : B. x) z",
        r"pair (\x. x) z",
    }


def test_erasures_keep_type_arguments_outside_applicand_chains():
    base = tm("suc (ident [Nat] z)")
    got = {pretty_term(t) for t in enumerate_erasures(base)}
    assert got == {"suc (ident [Nat] z)", "suc (ident z)"}


def test_erasure_includes_the_term_itself():
    base = tm(r"\x : Nat. x")
    got = enumerate_erasures(base)
    assert any(alpha_equal_term(t, base) for t in got)
    assert len(got) == 2


def test_erasure_discipline_on_a_two_segment_spine():
    from spinel.syntax import App, TApp, Var

    x, y, z = Var("x"), Var("y"), Var("z")
    s1, s2, t1, t2 = ty("Nat"), ty("B"), ty("Nat -> Nat"), ty("B -> B")
    base = App(TApp(TApp(App(TApp(TApp(x, s1), s2), y), t1), t2), z)
    got = {pretty_term(t) for t in enumerate_erasures(base)}
    assert "x y [Nat -> Nat] z" in got
    assert "x [B] y [B -> B] z" not in got
    firsts = {"x", "x [Nat]", "x [Nat] [B]"}
    seconds = {"", " [Nat -> Nat]", " [Nat -> Nat] [B -> B]"}
    assert got == {f"{h} y{s} z" for h in firsts for s in seconds}


def test_type_arguments_outside_applicand_position_never_erase():
    base = tm("ident [Nat]")
    got = {pretty_term(t) for t in enumerate_erasures(base)}
    assert got == {"ident [Nat]"}
    inner = tm("suc (ident [Nat])")
    assert {pretty_term(t) for t in enumerate_erasures(inner)} == {"suc (ident [Nat])"}


# ----------------------------------------------- completeness conditions


def test_conditions_reject_erased_annotations():
    erased = tm(r"pair [B -> B] [Nat] (\x. x) z")
    assert not check_weak_completeness_conditions(CTX, erased)


def test_conditions_accept_recoverable_erasures():
    internal = tm("pair [Nat] [B] z tt")
    erased = tm("pair z tt")
    assert check_weak_completeness_conditions(CTX, erased)
    out = infer(CTX, Synthesize(), erased)
    assert alpha_equal_term(out.elaboration, internal)


def test_conditions_reject_unsolvable_type_arguments():
    erased = tm("right z")
    assert not check_weak_completeness_conditions(CTX, erased)


def test_conditions_reject_spines_that_lose_their_arrows():
    erased = tm("bot z")
    assert not check_weak_completeness_conditions(CTX, erased)


def test_conditions_accept_the_identity_erasure():
    internal = tm("pair [Nat] [B] z tt")
    assert check_weak_completeness_conditions(CTX, internal)


# The cases above, as (erasure, verdict).
CONDITION_CASES = [
    (r"pair [B -> B] [Nat] (\x. x) z", False),
    ("pair z tt", True),
    ("right z", False),
    ("bot z", False),
    ("pair [Nat] [B] z tt", True),
]


# The conditions' verdicts on criterion 9's corpus, one bit per erasure in
# enumeration order, as the per-binder recursion gave them before binder
# chains were walked by a loop.
CONDITION_VERDICTS_SHA256 = "cefa99d0e792ae826d1348c30e776faeabcbe3ed9ffc0acaf2c81e49db39b13f"


def test_the_conditions_verdicts_on_criterion_9s_corpus_are_pinned():
    corpus = criterion_9_corpus()
    bits = "".join(
        "1" if check_weak_completeness_conditions(CTX, erased) else "0"
        for _, erased_terms in corpus
        for erased in erased_terms
    )
    assert (len(corpus), len(bits), bits.count("1")) == (2292, 5767, 2323)
    assert hashlib.sha256(bits.encode()).hexdigest() == CONDITION_VERDICTS_SHA256


# ``search_spec``'s derivations on the size-7 corpus's 918 application
# goals (each application erasure checked against its type and
# synthesized), in order, with their ``?gN`` names and sorted solutions,
# each goal followed by its derivation with every guess declined; as the
# recursive spine walk gave them before it became one loop.
SEARCH_SHA256 = "da948e02073529faa5a6970fa0e11260769caab76c73dfb7d0ea7ad5acf5d9d4"


def test_the_search_on_criterion_9s_application_goals_is_pinned(monkeypatch):
    def printed(triple):
        ty_, partial, sol = triple
        solved = ", ".join(f"{m} := {pretty_type(sol[m].ty)}" for m in sorted(sol))
        return f"{pretty_type(ty_)} | {pretty_term(partial)} | {solved}"

    goals = application_goals(7)
    lines = [[printed(t) for t in search_spec(CTX, expected, term)] for term, expected in goals]
    # with an empty guess pool, a search follows the one declined derivation
    monkeypatch.setattr(importlib.import_module("spinel.oracle"), "_candidates", lambda *args: [])
    for out, (term, expected) in zip(lines, goals):
        out += ["declined:"] + [printed(t) for t in search_spec(CTX, expected, term)]
    text = "\n".join(line for out in lines for line in out)
    assert len(goals) == 918
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_SHA256


def test_the_conditions_walk_a_long_binder_chain_by_a_loop(monkeypatch):
    # CI's 64,000-binder annotated chain, \x0 : Nat. ... \x63999 : Nat. x0,
    # enters the context in one extension.
    n, nat = 64_000, Con("Nat")
    assert n > 50 * sys.getrecursionlimit()

    def chain(bare=None):
        t = Var("x0")
        for i in reversed(range(n)):
            t = Lam(f"x{i}", None if i == bare else nat, t)
        return t

    ctx, internal = Context.empty({"Nat": 0}), chain()
    extend, extended = Context._extend, []
    monkeypatch.setattr(
        Context,
        "_extend",
        lambda self, names, types, walk=True: extended.append(len(names)) or extend(self, names, types, walk),
    )
    assert check_weak_completeness_conditions(ctx, internal)
    assert extended == [n]
    assert not check_weak_completeness_conditions(ctx, chain(bare=n // 2))


def test_the_conditions_run_no_engine_spine(monkeypatch):
    def refuse(*args):
        raise AssertionError("the completeness conditions ran the engine's spine")

    monkeypatch.setattr(infer_mod, "_spine", refuse)
    for erased, verdict in CONDITION_CASES:
        assert check_weak_completeness_conditions(CTX, tm(erased)) is verdict


def test_conditions_read_the_erased_term_alone():
    # An application whose head is a binder chain and whose argument is a
    # type application, read in a context of this term's own binders.
    erased = tm(r"\w : B. (\x8 : Nat. /\X9. pair) ((/\X8. z) [Nat])")
    assert check_weak_completeness_conditions(CTX, erased) is True


def test_the_conditions_take_a_well_scoped_term():
    # A binder that reuses a declared name, which the parser never builds.
    with pytest.raises(ValueError, match="duplicate declaration of 'z'"):
        check_weak_completeness_conditions(CTX, Lam("z", Con("Nat"), Var("z")))


def declined_derivation(term):
    """The oracle's derivation of the whole spine ``term`` with every guess
    declined, as (type, partial elaboration), or None if it fails."""
    reached, n = _declined(CTX, term)
    return reached[n] if n < len(reached) else None


def test_partial_synthesis_declines_every_guess():
    got = declined_derivation(tm("pair z"))
    assert got is not None
    final_ty, partial = got
    from spinel.syntax import Arrow, meta_vars_of_term

    assert isinstance(final_ty, Arrow)
    assert len(meta_vars_of_term(CTX, partial)) == 1


def test_partial_synthesis_fails_where_the_algorithm_would():
    assert declined_derivation(tm("suc tt")) is None
    assert declined_derivation(tm("bot z")) is None


def test_the_conditions_walk_a_long_spine_by_a_loop_once(monkeypatch):
    # One derivation of the erased spine serves every prefix of it, so the
    # walk runs once per maximal application, and no step recurses per item:
    # g [Nat] z ... z, with g : forall X. X -> Nat -> ... -> Nat, and its erasure.
    ctx, internal, erased = polymorphic_spine(4000)
    walks = count_calls(monkeypatch, "_derivations", [importlib.import_module("spinel.oracle")])
    for t in (internal, erased):
        walks[0] = 0
        with recursion_headroom(1000):
            assert check_weak_completeness_conditions(ctx, t)
        assert walks[0] == 1
    for t in ("pair [Nat] [Nat] (suc z) (suc z)", "pair (suc z) (suc z)"):
        walks[0] = 0
        assert check_weak_completeness_conditions(CTX, tm(t))
        assert walks[0] == 3


def test_the_search_derives_only_applications():
    with pytest.raises(ValueError, match="only term applications have spine derivations"):
        search_spec(CTX, None, tm("z"))


def test_the_search_walks_a_long_spine_by_a_loop():
    # 301 arguments, each taking stack frames in a recursive walk; the loop
    # finds the declined derivation and the one that guesses X := Nat.
    ctx, _, term = polymorphic_spine(301)
    with recursion_headroom(100):
        found = search_spec(ctx, None, term)
    assert [(pretty_type(t), sorted(sol)) for t, _, sol in found] == [("Nat", []), ("Nat", ["?g0"])]


@st.composite
def _grown_internal_terms(draw):
    """A well-typed internal term of size 8 or more, grown from the size-3
    corpus: each step builds a spine, a term of the corpus applied to a
    type for each quantifier and then to terms of its domains, or closes a
    term under an annotated lambda, and adds it to the corpus."""
    built = enumerate_internal_terms(CTX, 3)[::-1]  # newest first
    step, size = 0, 0
    while size < 8 or (step < 6 and draw(st.booleans())):
        step += 1
        term, t = draw(st.sampled_from(built))
        if not draw(st.booleans()):  # the simplest step, to which Hypothesis shrinks
            ann = draw(st.sampled_from(_TYPE_POOL))
            term, t = Lam(f"w{step}", ann, term), Arrow(ann, t)
        else:
            while isinstance(t, Forall):
                targ = draw(st.sampled_from(_TYPE_POOL))
                term, t = TApp(term, targ), substitute({t.bound: targ}, t.body)
            while isinstance(t, Arrow) and (args := [a for a, at in built if alpha_equal(at, t.dom)]):
                term, t = App(term, draw(st.sampled_from(args))), t.cod
                if draw(st.booleans()):
                    break
        built.insert(0, (term, t))
        size = _term_size(term)
    return term, t


@settings(max_examples=50, deadline=None)
@given(_grown_internal_terms())
def test_erasures_that_meet_the_conditions_synthesize_back_past_size_7(drawn):
    # Criterion 9 beyond its size-7 corpus.
    internal, t = drawn
    assert _term_size(internal) >= 8 and alpha_equal(check_internal(CTX, internal), t)
    for erased in enumerate_erasures(internal):
        if check_weak_completeness_conditions(CTX, erased):
            assert alpha_equal_term(infer(CTX, Synthesize(), erased).elaboration, internal)


# ------------------------------------------------------------- independence

ENGINE_WALKS = {"match_type", "_match", "match_proto", "spine_infer", "_spine"}
FROM_INFER = {"Check", "Diagnostic", "Synthesize", "infer"}


def engine_reaches(source: str) -> set[str]:
    """Each way ``source`` reaches the matcher or the engine's spine: an
    import of the matcher, a name of their walks, or a name from
    ``infer`` other than the four that type sub-terms."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("spinel.matcher")}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {a.name for a in node.names}
            matcher = module in (".matcher", "spinel.matcher")
            if matcher or (module in (".", "spinel") and "matcher" in names):
                found.add(f"from {module} import")
            if module in (".infer", "spinel.infer"):
                found |= names - FROM_INFER
            found |= names & ENGINE_WALKS
        elif isinstance(node, ast.Name) and node.id in ENGINE_WALKS:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ENGINE_WALKS | {"matcher"}:
            found.add(node.attr)
    return found


def test_the_oracle_reaches_neither_the_matcher_nor_the_engine_spine():
    source = Path(importlib.import_module("spinel.oracle").__file__).read_text(encoding="utf-8")
    assert engine_reaches(source) == set()
    imports = "from .infer import Check, Diagnostic, Synthesize, infer\n"
    assert imports in source
    matcher = source.replace(imports, imports + "from .matcher import match_proto\n")
    spine = source.replace(imports, imports.replace("infer\n", "infer, spine_infer\n"))
    assert engine_reaches(matcher) == {"from .matcher import", "match_proto"}
    assert engine_reaches(spine) == {"spine_infer"}


# ------------------------------------------------------------------ corpora


def test_internal_term_enumeration_is_well_typed_and_deterministic():
    ctx = standard_context()
    first = enumerate_internal_terms(ctx, 5)
    second = enumerate_internal_terms(ctx, 5)
    assert [pretty_term(t) for t, _ in first] == [pretty_term(t) for t, _ in second]
    assert len(first) > 50
    for term, claimed in first:
        assert _term_size(term) <= 5
        assert alpha_equal(check_internal(ctx, term), claimed)


def test_matcher_type_enumeration_is_size_bounded():
    types = enumerate_matcher_types(4)
    assert all(_type_size(t) <= 4 for t in types)
    assert len(types) == len({repr(t) for t in types}) or len(types) > 0
    from spinel.syntax import Forall

    assert any(isinstance(t, Forall) for t in types)
