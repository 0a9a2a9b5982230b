"""Acceptance suite: nine criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

from __future__ import annotations

from spinel.cli import render_diagnostic
from spinel.infer import Check, Diagnostic, DiagnosticKind, Synthesize, infer, spine_infer
from spinel.internal import check_internal
from spinel.matcher import MatchFailure, _match, match_proto
from spinel.oracle import (
    _type_size,
    check_weak_completeness_conditions,
    enumerate_matcher_types,
    passes_side_conditions,
    search_spec,
    verify_spec,
)
from spinel.parser import pretty_term, pretty_type
from spinel.syntax import (
    App,
    Arrow,
    ArrowTo,
    Con,
    Context,
    Exact,
    Forall,
    NameSupply,
    Stuck,
    TVar,
    Unknown,
    alpha_equal,
    alpha_equal_term,
    subst_type_args,
)

from conftest import CTX, criterion_9_corpus, erasure_walk, erasures, tm, ty


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def fails_with(kind: DiagnosticKind, thunk):
    try:
        thunk()
    except Diagnostic as d:
        return d if d.kind is kind else None
    return None


# --------------------------------------------------------------- criteria


def test_criterion_1_contextual_golden_elaboration():
    ctx = Context.empty({"Nat": 0, "Pair": 2})
    x, y = TVar("X"), TVar("Y")
    ctx = ctx.with_term(
        "pair", Forall("X", Forall("Y", Arrow(x, Arrow(y, Con("Pair", (x, y))))))
    )
    ctx = ctx.with_term("z", Con("Nat"))
    term = tm(r"pair (\x. x) z", ctx)
    out = infer(ctx, Check(ty("Pair (Nat -> Nat) Nat", ctx)), term)
    want = tm(r"pair [Nat -> Nat] [Nat] (\x : Nat. x) z", ctx)
    ok = alpha_equal_term(out.elaboration, want)
    report(1, ok, f"checked spine elaborates to {pretty_term(out.elaboration)}")


def test_criterion_2_diagnostic_goldens():
    problems = []

    d = fails_with(
        DiagnosticKind.UNANNOTATED_LAMBDA,
        lambda: infer(CTX, Synthesize(), tm(r"pair (\x. x) z")),
    )
    if d is None:
        problems.append("(a) bare lambda in synthesis mode")

    d = fails_with(
        DiagnosticKind.UNSOLVED_META_VARIABLES,
        lambda: infer(CTX, Synthesize(), tm("right z")),
    )
    if d is None or "?X" not in render_diagnostic(d):
        problems.append("(b) unsolved meta diagnostic naming ?X")

    d = fails_with(
        DiagnosticKind.APPLICAND_NOT_ARROW,
        lambda: infer(CTX, Synthesize(), tm("bot z")),
    )
    if d is None:
        problems.append("(c) non-arrow applicand")

    d = fails_with(
        DiagnosticKind.TYPE_MISMATCH,
        lambda: infer(
            CTX, Check(ty("Pair (Nat -> Nat) Nat")), tm(r"pair (\x : B. x) z")
        ),
    )
    if (
        d is None
        or d.contextual_match is None
        or pretty_type(d.contextual_match.partial, d.display) != "Pair ?X ?Y"
        or pretty_type(d.contextual_match.against, d.display)
        != "Pair (Nat -> Nat) Nat"
    ):
        problems.append("(d) mismatch with contextual match provenance")

    for src, want in [
        ("bot [Nat -> Nat] z", "bot [Nat -> Nat] z"),
        ("bot [forall Y. Y -> Y] z", "bot [forall Y. Y -> Y] [Nat] z"),
    ]:
        try:
            out = infer(CTX, Synthesize(), tm(src))
        except Diagnostic:
            problems.append(f"(e) {src} does not synthesize")
            continue
        if pretty_term(out.elaboration) != want or not alpha_equal(out.ty, ty("Nat")):
            problems.append(f"(e) {src} elaborates to {pretty_term(out.elaboration)}")

    ok = not problems
    report(2, ok, "all five diagnostic goldens hold" if ok else "; ".join(problems))


def test_criterion_3_mixed_contextual_and_synthetic_golden():
    ctx = CTX.with_term("x", Con("Nat"))
    out = infer(ctx, Check(ty("Nat")), tm(r"rapp x (\y. y)", ctx))
    want = tm(r"rapp [Nat] [Nat] x (\y : Nat. y)", ctx)
    ok = alpha_equal_term(out.elaboration, want)
    report(3, ok, f"mixed-provenance spine elaborates to {pretty_term(out.elaboration)}")


def test_criterion_4_matcher_goldens():
    problems = []
    x, y, nat = TVar("X"), TVar("Y"), Con("Nat")
    # A fresh supply names the peeled quantifiers ``?X0``, ``?Y1``, ...
    mx, my = TVar("?X0"), TVar("?Y1")

    got = match_proto(
        frozenset(),
        Forall("X", Forall("Y", Arrow(x, Arrow(y, x)))),
        ArrowTo(ArrowTo(Exact(nat))),
    )
    # The solution decorates the peeled ``?X0`` with ``Nat`` and binds
    # nothing else.
    if type(got) is MatchFailure or got[:2] != (["?X0", "?Y1", mx, my], mx):
        problems.append("two-quantifier decoration")
    elif got[2].types() != {"?X0": nat}:
        problems.append("solution is not the decoration alone")

    got = match_proto(frozenset(), Forall("X", Arrow(x, x)), ArrowTo(ArrowTo(Exact(nat))))
    stuck = (["?X0", mx], Stuck("?X0", ArrowTo(Exact(nat))))
    if type(got) is MatchFailure or got[:2] != stuck or got[2]:
        problems.append("over-applied quantifier sticks")

    # ``X -> X`` stuck on ``X``: the spine solves ``X`` and re-matches the
    # leaf, its solved type against its pending prototype.  ``Nat -> Nat``
    # reveals the one arrow it owes, so the spine reads
    # ``(Nat -> Nat) -> Nat -> Nat``; ``Nat`` reveals none.
    leaf = Stuck("X", ArrowTo(Exact(nat)))
    solved = _match(frozenset(), ty("Nat -> Nat"), leaf.proto, NameSupply())
    if type(solved) is MatchFailure or solved[:2] != ([nat], nat):
        problems.append("solving a stuck decoration with an arrow")
    if type(_match(frozenset(), nat, leaf.proto, NameSupply())) is not MatchFailure:
        problems.append("solving a stuck decoration with a non-arrow")

    ok = not problems
    report(4, ok, "all matcher goldens hold" if ok else "; ".join(problems))


def test_criterion_5_elaborations_typecheck_internally():
    successes = 0
    violations = []
    seen = set()
    for erased, ity in erasures(8):
        key = pretty_term(erased)
        if key in seen:
            continue
        seen.add(key)
        for mode in (Synthesize(), Check(ity)):
            try:
                out = infer(CTX, mode, erased)
            except Diagnostic:
                continue
            successes += 1
            if not alpha_equal(check_internal(CTX, out.elaboration), out.ty):
                violations.append(key)
    ok = successes >= 10_000 and not violations
    report(
        5,
        ok,
        f"{successes} inference successes, {len(violations)} internally ill-typed",
    )


def test_criterion_6_internal_terms_are_inference_fixed_points():
    corpus = erasure_walk(8)
    violations = []
    for internal, ity, _ in corpus:
        try:
            out = infer(CTX, Synthesize(), internal)
            again = infer(CTX, Check(out.ty), internal)
        except Diagnostic:
            violations.append(pretty_term(internal))
            continue
        if not (
            alpha_equal_term(out.elaboration, internal)
            and alpha_equal(out.ty, ity)
            and alpha_equal_term(again.elaboration, out.elaboration)
        ):
            violations.append(pretty_term(internal))
    ok = not violations
    report(
        6,
        ok,
        f"{len(corpus)} internal terms self-synthesize and re-check"
        if ok
        else f"{len(violations)} fixed-point failures, first: {violations[0]}",
    )


def _proto_size(p) -> int:
    match p:
        case Unknown():
            return 1
        case Exact(ty=t):
            return _type_size(t)
        case ArrowTo(rest=r):
            return 1 + _proto_size(r)
    raise TypeError(p)


def _applicable_rules(metas, t, p) -> list[str]:
    rules = []
    if isinstance(p, Unknown):
        rules.append("unknown")
    if isinstance(p, Exact):
        rules.append("exact")
    if isinstance(p, ArrowTo):
        if isinstance(t, Forall):
            rules.append("quantifier")
        if isinstance(t, Arrow):
            rules.append("arrow")
        if isinstance(t, TVar) and t.name in metas:
            rules.append("stuck")
    return rules


def test_criterion_7_exhaustive_matcher_audit():
    metas = frozenset({"M"})
    types = enumerate_matcher_types(6)
    ground = enumerate_matcher_types(6, metas=())
    protos = [Unknown()] + [Exact(t) for t in ground]
    for base in list(protos):
        p = ArrowTo(base)
        while _proto_size(p) <= 6:
            protos.append(p)
            p = ArrowTo(p)
    type_sizes = [(t, _type_size(t)) for t in types]
    proto_sizes = [(p, _proto_size(p)) for p in protos]
    pairs = [(t, p) for t, ts in type_sizes for p, ps in proto_sizes if ts + ps <= 7]

    problems = []
    matched = 0
    for t, p in pairs:
        first = match_proto(metas, t, p)
        second = match_proto(metas, t, p)
        failed = type(first) is MatchFailure
        if failed != (type(second) is MatchFailure):
            problems.append(f"nondeterministic outcome on {pretty_type(t)}")
            continue
        rules = _applicable_rules(metas, t, p)
        if len(rules) > 1:
            problems.append(f"overlapping rules {rules} on {pretty_type(t)}")
        if failed:
            continue
        matched += 1
        if not rules:
            problems.append(f"match succeeded with no applicable rule on {pretty_type(t)}")
        links, leaf, solution = first
        arrows = sum(type(link) is not str for link in links)
        arity, q = 0, p
        while type(q) is ArrowTo:
            arity, q = arity + 1, q.rest
        if arrows > arity:
            problems.append(f"decoration arity overrun on {pretty_type(t)}")
        if not solution.keys() <= metas | {link for link in links if type(link) is str}:
            problems.append(f"solution escapes the meta set on {pretty_type(t)}")
        if not ((links, leaf) == second[:2] and solution.equivalent(second[2])):
            problems.append(f"nondeterministic result on {pretty_type(t)}")
    ok = not problems
    report(
        7,
        ok,
        f"{len(pairs)} type/prototype pairs audited, {matched} matches, deterministic"
        if ok
        else problems[0],
    )


def test_criterion_8_algorithm_agrees_with_declarative_rules():
    rejected = []
    unmatched = []
    accepted = search_hits = 0
    seen = set()
    for internal, ity, erased_terms in erasure_walk(7):
        if not isinstance(internal, App):
            continue
        for erased in erased_terms:
            if not isinstance(erased, App):
                continue
            for expected in (ity, None):
                key = (pretty_term(erased), None if expected is None else pretty_type(expected))
                if key in seen:
                    continue
                seen.add(key)
                mode = Synthesize() if expected is None else Check(expected)
                proto = Unknown() if expected is None else Exact(expected)
                try:
                    got = infer(CTX, mode, erased)
                except Diagnostic:
                    got = None
                if got is not None:
                    out = spine_infer(CTX, proto, erased)
                    triple = (out.deco, out.partial, out.solution)
                    verdict = verify_spec(CTX, expected, erased, triple)
                    accepted += 1
                    if not verdict.accepted:
                        rejected.append(f"{key}: {verdict.reason}")
                for t, p, sol in search_spec(CTX, expected, erased):
                    if not passes_side_conditions(CTX, expected, (t, p, sol)):
                        continue
                    search_hits += 1
                    final = subst_type_args(sol.types(), p)
                    if got is None or not alpha_equal_term(final, got.elaboration):
                        unmatched.append(f"{key}: {pretty_term(final)}")
    ok = not rejected and not unmatched and accepted > 0
    report(
        8,
        ok,
        f"{accepted} algorithm runs replayed, {search_hits} declarative derivations matched"
        if ok
        else (rejected + unmatched)[0],
    )


def test_criterion_9_erasure_conditions_imply_round_trips():
    corpus = criterion_9_corpus()
    violations = []
    passing = over_approximations = 0
    for internal, erased_terms in corpus:
        for erased in erased_terms:
            conditions = check_weak_completeness_conditions(CTX, erased)
            try:
                out = infer(CTX, Synthesize(), erased)
                round_trips = alpha_equal_term(out.elaboration, internal)
            except Diagnostic:
                round_trips = False
            if conditions:
                passing += 1
                if not round_trips:
                    violations.append(pretty_term(erased))
            elif round_trips:
                over_approximations += 1
    ok = len(corpus) >= 1_000 and not violations
    report(
        9,
        ok,
        f"{passing} condition-passing erasures over {len(corpus)} terms round-trip; "
        f"{over_approximations} succeeded despite failing the conditions (reported, not failed)"
        if ok
        else f"{len(violations)} round-trip failures, first: {violations[0]}",
    )
