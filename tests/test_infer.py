"""Inference engine behaviour: elaboration goldens and diagnostics."""

from __future__ import annotations

import gc
import importlib
import sys

import pytest

from conftest import (
    CTX,
    contextual_spine,
    count_calls,
    count_solution_copies,
    count_well_formed_walks,
    erasure_source,
    erasures,
    long_source,
    quantifier_chain,
    reachable,
    tm,
    traceback_frames,
    ty,
)
import spinel.infer as infer_mod
from spinel.cli import main as cli_main
from spinel.infer import Check, Diagnostic, DiagnosticKind, EngineInvariantError, Synthesize, infer, spine_infer
from spinel.internal import check_internal
from spinel.parser import Assume, ConDecl, Goal, parse_program, parse_term, pretty_term, pretty_type
from spinel.syntax import (
    App,
    Arrow,
    ArrowTo,
    Con,
    Context,
    Contextual,
    Exact,
    Forall,
    Lam,
    NameSupply,
    Span,
    Synthetic,
    TermBind,
    TLam,
    TVar,
    TyVarDecl,
    Unknown,
    Var,
    alpha_equal,
    alpha_equal_term,
    free_type_vars,
    is_meta_name,
)


def synth(src, ctx=CTX):
    return infer(ctx, Synthesize(), tm(src, ctx))


def check(src, expected, ctx=CTX):
    return infer(ctx, Check(ty(expected, ctx)), tm(src, ctx))


def fails(kind, fn):
    with pytest.raises(Diagnostic) as info:
        fn()
    assert info.value.kind is kind
    return info.value


# ------------------------------------------------------------- elaboration


def test_checking_solves_both_type_arguments_contextually():
    out = check(r"pair (\x. x) z", "Pair (B -> B) Nat")
    assert out.ty == ty("Pair (B -> B) Nat")
    assert alpha_equal_term(out.elaboration, tm(r"pair [B -> B] [Nat] (\x : B. x) z"))


def test_synthesis_solves_type_arguments_from_arguments():
    out = synth("pair z tt")
    assert out.ty == ty("Pair Nat B")
    assert alpha_equal_term(out.elaboration, tm("pair [Nat] [B] z tt"))


def test_stuck_meta_variable_unsticks_against_a_later_argument():
    out = synth("ident suc z")
    assert out.ty == ty("Nat")
    assert alpha_equal_term(out.elaboration, tm("ident [Nat -> Nat] suc z"))


def test_explicit_type_arguments_reveal_arrows():
    out = synth("bot [Nat -> Nat] z")
    assert out.ty == ty("Nat")
    assert alpha_equal_term(out.elaboration, tm("bot [Nat -> Nat] z"))


def test_explicit_quantified_argument_keeps_solving():
    out = synth("bot [forall Y. Y -> Y] z")
    assert out.ty == ty("Nat")
    assert alpha_equal_term(out.elaboration, tm("bot [forall Y. Y -> Y] [Nat] z"))


def test_function_typed_argument_solves_the_codomain_meta():
    out = synth(r"rapp z (\x : Nat. tt)")
    assert out.ty == ty("B")
    assert alpha_equal_term(out.elaboration, tm(r"rapp [Nat] [B] z (\x : Nat. tt)"))


def test_prefix_of_explicit_type_arguments_mixes_with_inference():
    out = synth("pair [Nat] z tt")
    assert out.ty == ty("Pair Nat B")
    assert alpha_equal_term(out.elaboration, tm("pair [Nat] [B] z tt"))


def test_checking_merges_contextual_and_synthetic_solutions():
    out = check("right z", "Sum B Nat")
    assert out.ty == ty("Sum B Nat")
    assert alpha_equal_term(out.elaboration, tm("right [B] [Nat] z"))


def test_annotated_lambdas_synthesize():
    out = synth(r"\x : Nat. suc x")
    assert out.ty == ty("Nat -> Nat")


def test_bare_lambda_checks_against_an_arrow():
    out = check(r"\x. suc x", "Nat -> Nat")
    assert alpha_equal_term(out.elaboration, tm(r"\x : Nat. suc x"))


def test_type_lambda_checks_against_a_quantifier():
    out = check(r"/\C. \x : C. x", "forall D. D -> D")
    assert alpha_equal(out.ty, ty("forall D. D -> D"))


def test_outermost_type_application_synthesizes_its_applicand():
    out = check("ident [Nat]", "Nat -> Nat")
    assert out.ty == ty("Nat -> Nat")
    assert alpha_equal_term(out.elaboration, tm("ident [Nat]"))


def test_deep_spines_thread_the_solution():
    ctx = CTX.with_term("x", Con("Nat"))
    out = infer(ctx, Check(ty("Nat", ctx)), tm(r"rapp x (\y. y)", ctx))
    assert alpha_equal_term(out.elaboration, tm(r"rapp [Nat] [Nat] x (\y : Nat. y)", ctx))


def test_lambda_headed_spines_work():
    out = synth(r"(\f : Nat -> Nat. f z) suc")
    assert out.ty == ty("Nat")


def test_nested_maximal_applications_are_independent_spines():
    out = check(r"pair (pair z z) tt", "Pair (Pair Nat Nat) B")
    assert alpha_equal_term(
        out.elaboration, tm("pair [Pair Nat Nat] [B] (pair [Nat] [Nat] z z) tt")
    )


def test_trace_records_the_rules_fired():
    trace: list[str] = []
    infer(CTX, Synthesize(), tm("ident suc z"), trace=trace)
    assert trace == [
        "app-synth", "spine-arg", "spine-arg", "spine-head", "var",
        "peel", "arg-synth", "var", "arg-check", "var",
    ]


def test_trace_of_a_spine_with_an_explicit_quantified_argument():
    trace: list[str] = []
    infer(CTX, Synthesize(), tm("bot [forall Y. Y -> Y] z"), trace=trace)
    assert trace == [
        "app-synth", "spine-arg", "spine-tyarg", "spine-head", "var",
        "peel", "arg-synth", "var",
    ]


def test_type_lambdas_check_against_shadowed_quantifiers():
    # The parser rejects a shadowing binder, so the expected type is built directly.
    inner = Forall("Y", Arrow(TVar("Y"), TVar("Y")))
    trace: list[str] = []
    out = infer(CTX, Check(Forall("Y", inner)), tm(r"/\A. /\C. \x. x"), trace=trace)
    assert out.ty == ty("forall A. forall C. C -> C")
    assert alpha_equal_term(out.elaboration, tm(r"/\A. /\C. \x : C. x"))
    assert trace == ["tylam", "tylam", "lam-bare", "var"]
    mixed = Forall("Y", Arrow(TVar("Y"), inner))
    out = infer(CTX, Check(mixed), tm(r"/\A. \a. /\C. \x. x"))
    assert out.ty == ty("forall A. A -> forall C. C -> C")
    d = fails(
        DiagnosticKind.TYPE_MISMATCH,
        lambda: infer(CTX, Check(mixed), tm(r"/\A. \a. /\C. \x. a")),
    )
    assert (d.expected, d.synthesized) == (TVar("C"), TVar("A"))


_REPEATED = Forall("A", Forall("A", Arrow(TVar("A"), TVar("A"))))  # the parser rejects it


@pytest.mark.parametrize(
    "term, expected, golden",
    [
        (r"/\C. /\A. \x. x", _REPEATED, ("forall C. forall A. A -> A", r"/\C. /\A. \x : A. x")),
        (
            r"/\X. \x. /\Z. \y. x",
            "forall X. X -> forall Y. Y -> X",
            ("forall X. X -> (forall Z. Z -> X)", r"/\X. \x : X. /\Z. \y : Z. x"),
        ),
        (
            r"/\X. /\Z. \x. \y. y",
            "forall X. forall Y. X -> Y -> Y",
            ("forall X. forall Z. X -> Z -> Z", r"/\X. /\Z. \x : X. \y : Z. y"),
        ),
        (
            r"/\Y. /\X. \x. \y. y",
            "forall X. forall Y. X -> Y -> Y",
            ("forall Y. forall X. Y -> X -> X", r"/\Y. /\X. \x : Y. \y : X. y"),
        ),
        (
            r"/\Z. \x. x",
            "forall X. (forall Z. Z -> X) -> forall Z. Z -> X",
            ("forall Z. (forall Z'. Z' -> Z) -> (forall Z'. Z' -> Z)", r"/\Z. \x : (forall Z'. Z' -> Z). x"),
        ),
    ],
    ids=["repeated-quantifier", "kept-then-renamed", "kept-and-renamed", "swapped", "inner-reuses-a-renamed-name"],
)
def test_type_lambda_chains_rename_only_the_quantifiers_named_otherwise(term, expected, golden):
    # A quantifier named like its type lambda renames nothing; the others
    # rename their variable in each domain and in the body's expected type.
    out = infer(CTX, Check(ty(expected) if isinstance(expected, str) else expected), tm(term))
    assert (pretty_type(out.ty), pretty_term(out.elaboration)) == golden
    assert alpha_equal(check_internal(CTX, out.elaboration), out.ty)


def test_a_mismatch_under_a_renamed_quantifier_renames_a_reused_name_apart():
    term = tm(r"/\Z. \x. x")
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: infer(CTX, Check(ty("forall X. forall Z. Z -> X -> X")), term))
    assert pretty_type(d.expected) == "forall Z'. Z' -> Z -> Z" and d.subject is term.body


def test_check_mode_requires_a_well_formed_expected_type():
    with pytest.raises(ValueError):
        infer(CTX, Check(TVar("A")), tm("z"))


# ------------------------------------------------------------- diagnostics


def test_synthesizing_a_bare_lambda_argument_fails():
    d = fails(DiagnosticKind.UNANNOTATED_LAMBDA, lambda: synth(r"pair (\x. x) z"))
    assert d.span is not None


def test_a_diagnostic_points_at_its_subject():
    d = fails(DiagnosticKind.UNANNOTATED_LAMBDA, lambda: synth(r"pair (\x. x) z"))
    assert d.span == d.subject.span == Span(1, 7, 1, 12)
    assert Diagnostic(DiagnosticKind.TYPE_MISMATCH).span is None
    with pytest.raises(TypeError):
        Diagnostic(DiagnosticKind.TYPE_MISMATCH, expect=ty("Nat"))


def test_unsolved_meta_variables_name_the_leftovers():
    d = fails(DiagnosticKind.UNSOLVED_META_VARIABLES, lambda: synth("right z"))
    assert "?X" in set(d.display.values())
    assert d.synthesized is not None


def test_non_arrow_applicand_is_reported():
    d = fails(DiagnosticKind.APPLICAND_NOT_ARROW, lambda: synth("bot z"))
    assert d.synthesized is not None


def test_overapplied_head_is_an_arity_failure():
    fails(DiagnosticKind.APPLICAND_NOT_ARROW, lambda: synth("z z"))


def test_mismatched_lambda_annotation_carries_the_contextual_match():
    d = fails(
        DiagnosticKind.TYPE_MISMATCH,
        lambda: check(r"pair (\x : B. x) z", "Pair (Nat -> Nat) Nat"),
    )
    assert isinstance(d.contextual_match, Contextual)
    disp = d.display
    assert pretty_type(d.contextual_match.partial, disp) == "Pair ?X ?Y"
    assert d.contextual_match.against == ty("Pair (Nat -> Nat) Nat")
    assert d.resolved == ty("Nat -> Nat")
    assert d.synthesized == ty("B -> B")
    # The binding the contextual match fixed for the expected type's meta.
    assert pretty_type(d.expected, disp) == "?X"
    assert d.bindings == {d.expected.name: ty("Nat -> Nat")}


def test_a_domain_receives_only_the_solutions_of_the_metas_it_mentions():
    # X is solved to the type variable A, which the second domain's binder
    # also names.  That domain does not mention X, so its binder keeps its
    # declared name, in the diagnostic and in a lambda's annotation.
    f_ctx = CTX.with_term("f", ty("forall X. X -> (forall A. A -> A) -> X"))
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: check(r"/\A. \a : A. f a z", "forall A. A -> A", f_ctx))
    assert d.expected == ty("forall A. A -> A")
    g_ctx = CTX.with_term("g", ty("forall X. X -> ((forall A. A -> A) -> Nat) -> X"))
    out = check(r"/\A. \a : A. g a (\h. h [Nat] z)", "forall A. A -> A", g_ctx)
    assert pretty_term(out.elaboration) == r"/\A. \a : A. g [A] a (\h : (forall A. A -> A). h [Nat] z)"


def test_display_names_are_computed_once_per_diagnostic(monkeypatch):
    # The argument check's diagnostic is edited on its way out of the
    # spine (it gains the contextual match's bindings), and named only as
    # it leaves ``infer``.
    from spinel.syntax import NameSupply

    original = NameSupply.display_names
    calls = [0]

    def counted(self, names):
        calls[0] += 1
        return original(self, names)

    monkeypatch.setattr(NameSupply, "display_names", counted)
    d = fails(
        DiagnosticKind.TYPE_MISMATCH,
        lambda: check(r"pair (\x : B. x) z", "Pair (Nat -> Nat) Nat"),
    )
    assert calls[0] == 1
    assert set(d.display.values()) == {"?X", "?Y"}


def test_a_goal_with_no_spine_makes_no_name_supply(monkeypatch):
    # the run's supply is made the first time a spine's match reads it
    made = []

    class Counted(infer_mod.NameSupply):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(infer_mod, "NameSupply", Counted)
    check(r"\x : Nat. x", "Nat -> Nat")
    check(r"/\A. \a : A. a", "forall A. A -> A")
    fails(DiagnosticKind.TYPE_MISMATCH, lambda: check(r"\x : Nat. x", "B -> Nat"))
    assert made == []
    synth("ident z")
    assert len(made) == 1


def test_a_diagnostic_of_a_run_with_no_spine_looks_for_no_meta_variables(monkeypatch):
    # only a spine mints metas, through the run's supply; with none made,
    # the diagnostic's types are not walked for names to display
    walks = count_calls(monkeypatch, "free_type_vars", [infer_mod])
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: check(r"\x. x", "Nat"))
    assert d.display == {} and walks[0] == 0
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: check(r"\x : Nat. x", "B -> Nat"))
    assert d.display == {} and walks[0] == 0


def test_contextual_type_mismatch_at_the_tail():
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: check("suc z", "B"))
    assert d.synthesized == ty("Nat")
    assert d.expected == ty("B")


def test_synthetic_mismatch_points_at_the_argument():
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: check("pair tt z", "Pair Nat Nat"))
    assert d.expected is not None
    assert d.synthesized == ty("B")
    assert d.contextual_match is not None


def test_synthetic_match_failure_in_synthesis_mode():
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: synth("suc tt"))
    assert d.expected == ty("Nat")
    assert d.synthesized == ty("B")


def test_conflicting_synthetic_instantiations():
    ctx = CTX.with_term("both", ty("forall C. C -> C -> C"))
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: synth("both z tt", ctx))
    assert d.expected == ty("Nat")
    assert d.synthesized == ty("B")


def test_solution_conflict_when_a_stuck_meta_cannot_reveal_arrows():
    d = fails(DiagnosticKind.SOLUTION_CONFLICT, lambda: synth("ident [Nat] suc z"))
    assert d.detail is not None


def test_solution_conflict_from_a_synthesized_instantiation():
    d = fails(DiagnosticKind.SOLUTION_CONFLICT, lambda: synth("rapp z suc tt"))
    assert isinstance(d.synthetic_match, Synthetic)
    assert pretty_type(d.synthetic_match.partial, d.display) == "Nat -> ?Y"
    assert d.synthetic_match.against == ty("Nat -> Nat")
    assert d.synthetic_match.arg_index == 2
    # The instantiation that argument 2 fixed, though the spine could not use it.
    (meta,) = d.bindings
    assert d.display[meta] == "?Y"
    assert d.bindings[meta] == ty("Nat")
    assert d.resolved is None


def test_explicit_argument_conflicts_with_the_contextual_solution():
    d = fails(
        DiagnosticKind.EXPLICIT_ARG_CONFLICT,
        lambda: check("pair [Nat] tt z", "Pair B Nat"),
    )
    assert d.expected == ty("B")
    assert d.synthesized == ty("Nat")
    assert d.contextual_match is not None
    assert d.bindings == {}


def test_type_application_of_a_monomorphic_spine_segment():
    fails(DiagnosticKind.APPLICAND_NOT_FORALL, lambda: synth("ident [Nat] [Nat] z"))


def test_outer_type_application_of_a_monomorphic_term():
    fails(DiagnosticKind.APPLICAND_NOT_FORALL, lambda: synth("z [Nat]"))


def test_unbound_names_are_reported_with_detail():
    d = fails(DiagnosticKind.UNBOUND_NAME, lambda: synth("pair missing z"))
    assert "missing" in d.detail


def test_illformed_type_argument_is_unbound_name():
    from spinel.syntax import TApp, Var

    d = fails(
        DiagnosticKind.UNBOUND_NAME,
        lambda: infer(CTX, Synthesize(), TApp(Var("ident"), TVar("A"))),
    )
    assert "A" in d.detail


def test_lambda_against_non_arrow_contextual_type():
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: check(r"\x. x", "Nat"))
    assert d.expected == ty("Nat")


def test_checking_a_quantified_type_against_arrow_fails():
    d = fails(DiagnosticKind.TYPE_MISMATCH, lambda: check("ident", "Nat -> Nat"))
    assert alpha_equal(d.synthesized, ty("forall C. C -> C"))


# ------------------------------------------------- a diagnostic is plain data


def _fields(d):
    """Every field of ``d``, each type printed with its display names."""
    rn = d.display

    def show(t):
        return None if t is None else pretty_type(t, rn)

    cm, sm = d.contextual_match, d.synthetic_match
    return {
        "kind": d.kind.value,
        "expected": show(d.expected),
        "resolved": show(d.resolved),
        "bindings": {rn.get(m, m): show(t) for m, t in d.bindings.items()},
        "synthesized": show(d.synthesized),
        "contextual_match": cm and (show(cm.partial), show(cm.against)),
        "synthetic_match": sm and (show(sm.partial), show(sm.against), sm.arg_index),
        "unsolved": sorted(rn.get(m, m) for m in d.unsolved),
        "display": sorted(rn.values()),
        "subject": pretty_term(d.subject),
        "detail": d.detail,
    }


_NO_FIELDS = {
    "expected": None, "resolved": None, "bindings": {}, "synthesized": None, "contextual_match": None,
    "synthetic_match": None, "unsolved": [], "display": [], "detail": None,
}
_DEEP_LAMBDA = {**_NO_FIELDS, "kind": "unannotated-lambda"}
_SYNTHETIC = {
    **_NO_FIELDS, "kind": "type-mismatch", "expected": "Nat -> ?Y", "synthesized": "B",
    "synthetic_match": ("Nat -> ?Y", "B", 2), "display": ["?Y"], "subject": "tt",
}
_CONFLICT = {
    **_NO_FIELDS, "kind": "solution-conflict", "expected": "Nat -> ?Y", "bindings": {"?Y": "Nat"},
    "synthesized": "Nat -> Nat", "synthetic_match": ("Nat -> ?Y", "Nat -> Nat", 2), "display": ["?Y"],
    "subject": "suc", "detail": "the synthesized instantiation cannot reveal the arrows this spine needs",
}
# Diagnostics raised deep in the engine, through each entry, and every
# field of each as the engine reported it before diagnostics dropped their
# frames.  The mismatches whose ``synthesized`` is ``B -> B`` get it from
# ``_try_synthesize``.
PLAIN_DIAGNOSTICS = {
    "deep-lambda-infer": (infer, Synthesize(), r"\a : Nat. \b : Nat. \c. c", {
        **_DEEP_LAMBDA, "subject": r"\c. c", "detail": "no contextual type here, so binder 'c' needs an annotation",
    }),
    "deep-lambda-spine": (spine_infer, Unknown(), r"pair (\a : Nat. \b. b) z", {
        **_DEEP_LAMBDA, "subject": r"\b. b", "detail": "no contextual type here, so binder 'b' needs an annotation",
    }),
    "retried-infer": (infer, Check(ty("Nat -> Nat -> B")), r"\a : Nat. \b : B. b", {
        **_NO_FIELDS, "kind": "type-mismatch", "expected": "Nat -> B", "synthesized": "B -> B", "subject": r"\b : B. b",
    }),
    "retried-spine": (spine_infer, Exact(ty("Nat")), r"rapp z (\y : B. y)", {
        **_NO_FIELDS, "kind": "type-mismatch", "expected": "Nat -> ?Y", "resolved": "Nat -> Nat",
        "bindings": {"?Y": "Nat"}, "synthesized": "B -> B", "contextual_match": ("?Y", "Nat"),
        "display": ["?Y"], "subject": r"\y : B. y",
    }),
    "synthetic-infer": (infer, Synthesize(), "rapp z tt", _SYNTHETIC),
    "synthetic-spine": (spine_infer, Unknown(), "rapp z tt", _SYNTHETIC),
    "conflict-infer": (infer, Synthesize(), "rapp z suc tt", _CONFLICT),
    "conflict-spine": (spine_infer, Unknown(), "rapp z suc tt", _CONFLICT),
    "unsolved-infer": (infer, Synthesize(), "right z", {
        **_NO_FIELDS, "kind": "unsolved-meta-variables", "synthesized": "Sum ?X Nat", "unsolved": ["?X"],
        "display": ["?X"], "subject": "right z",
    }),
}


def _raised(entry, mode, term):
    """The diagnostic ``entry`` raises, caught in this frame, or None."""
    try:
        entry(CTX, mode, term)
    except Diagnostic as d:
        return d


@pytest.mark.parametrize("case", PLAIN_DIAGNOSTICS)
def test_a_raised_diagnostic_holds_no_engine_state(case):
    entry, mode, src, fields = PLAIN_DIAGNOSTICS[case]
    d = _raised(entry, mode, tm(src))
    assert _fields(d) == fields
    for name, empty in (("bindings", {}), ("display", {}), ("unsolved", frozenset())):
        assert (getattr(d, name) == empty) == (not fields[name])
    # Its traceback holds the catching frame, the entry's and that of
    # ``_named``, which the entry returns through; no engine frame.
    assert traceback_frames(d) == ["_raised", entry.__name__, "_named"]
    held = {type(obj) for obj in reachable([d]).values()}
    assert not held & {infer_mod._Run, infer_mod._Remaining, NameSupply}


def test_kept_diagnostics_keep_little_and_no_cycle():
    # Every wrong-type goal of the size-6 erasures is inferred in process,
    # and every diagnostic kept.  The GC-tracked objects reachable only
    # through the kept diagnostics, not through the inputs, number 11.6 per
    # diagnostic on 3.10-3.13: the catching frame, the entry's and
    # ``_named``'s with their tracebacks, the mode the entry's frame keeps,
    # the diagnostic, its arguments and fields, and the types it reports.
    # They numbered 23.6 while a diagnostic kept the engine's frames.  The
    # collector stays paused, so that no collection untracks a tuple.
    goals = [decl for decl in parse_program(erasure_source(6, "wrong")) if type(decl) is Goal]
    gc.collect()
    gc.disable()
    try:
        kept = [_raised(infer, Check(goal.expected), goal.term) for goal in goals]
        kept = [d for d in kept if d is not None]
        inputs = reachable([CTX, goals])
        only = [obj for key, obj in reachable(kept).items() if key not in inputs and obj is not kept]
        per_diagnostic = sum(map(gc.is_tracked, only)) / len(kept)
        assert len(kept) == 1746 and per_diagnostic <= 13, per_diagnostic
        del kept, only
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------- spine surface


def test_spine_infer_exposes_the_partial_elaboration():
    from spinel.syntax import Arrow, meta_vars_of_term

    out = spine_infer(CTX, Unknown(), tm("pair z"))
    got = out.deco
    assert isinstance(got, Arrow)
    assert isinstance(got.dom, TVar)
    assert len(meta_vars_of_term(CTX, out.partial)) == 1
    assert not out.solution


def test_spine_infer_checking_keeps_contextual_bindings():
    out = spine_infer(CTX, Exact(ty("Pair (B -> B) Nat")), tm(r"pair (\x. x) z"))
    assert len(out.solution) == 2
    vals = {pretty for pretty in out.solution.types().values()}
    assert ty("B -> B") in vals
    assert Con("Nat") in vals


def test_spine_infer_solves_a_whole_spine_synthetically():
    out = spine_infer(CTX, Unknown(), tm("pair z tt"))
    assert out.deco == ty("Pair Nat B")
    assert alpha_equal_term(out.partial, tm("pair [Nat] [B] z tt"))


@pytest.mark.parametrize("src", ["z", r"\x : Nat. x", r"/\X. z", "ident [Nat]", "suc z"])
@pytest.mark.parametrize("mode", [Exact(ty("Nat")), None], ids=["prototype", "none"])
def test_infer_refuses_a_mode_that_is_neither_check_nor_synthesize(src, mode):
    with pytest.raises(TypeError):
        infer(CTX, mode, tm(src))


def test_engine_invariants_are_separate_from_diagnostics(monkeypatch):
    # A matcher that hands the spine one link too many breaks an engine
    # invariant: that is an engine bug, not a diagnostic for the user.
    real = infer_mod._match

    def one_link_too_many(*args):
        links, leaf, solution = real(*args)
        return [*links, Con("Nat")], leaf, solution

    monkeypatch.setattr(infer_mod, "_match", one_link_too_many)
    with pytest.raises(EngineInvariantError, match="a spine ended before its decorated type") as info:
        spine_infer(CTX, Unknown(), tm("suc z"))
    assert not issubclass(EngineInvariantError, Diagnostic)
    # It keeps the engine's frames for whoever debugs it.
    assert traceback_frames(info.value)[-3:] == ["spine_infer", "_named", "_spine"]


@pytest.mark.parametrize(
    "proto, src, message",
    [
        (Unknown(), "z", "only term applications have spine derivations"),
        (Unknown(), "ident [Nat]", "only term applications have spine derivations"),
        (ArrowTo(Unknown()), "pair z", "a spine is matched against an unknown or exact prototype"),
    ],
    ids=["variable", "type-application", "arrow-prototype"],
)
def test_spine_infer_rejects_caller_errors_as_caller_errors(proto, src, message):
    # A term that is no application, or an arrow prototype, is the
    # caller's error, not an engine bug.
    with pytest.raises(ValueError, match=message):
        spine_infer(CTX, proto, tm(src))


def test_an_elaboration_equal_to_its_term_is_its_term():
    # Criterion 6 by identity: inference shares every node beneath which it
    # changes nothing, so an elaboration that equals its input is the input.
    shared = 0
    for erased, internal_ty in erasures(7):
        for mode in (Check(internal_ty), Synthesize()):
            try:
                out = infer(CTX, mode, erased)
            except Diagnostic:
                continue
            assert (out.elaboration is erased) == (out.elaboration == erased), pretty_term(erased)
            shared += out.elaboration is erased
    assert shared > 4000


# ---------------------------------------------------------- operation counts


def _wide_spine(n):
    ctx = CTX.with_term("g", ty(quantifier_chain(n)))
    args = " ".join("z" if i % 2 else "tt" for i in range(1, n + 1))
    return ctx, tm(f"g {args}", ctx)


@pytest.mark.parametrize("mode", ["synth", "check"])
def test_spine_work_grows_linearly_with_its_length(monkeypatch, mode):
    syntax_mod = importlib.import_module("spinel.syntax")
    substs = count_calls(monkeypatch, "subst_type_args", [syntax_mod, infer_mod])
    counts = {}
    for n in (24, 48):
        ctx, term = _wide_spine(n)
        run_mode = Synthesize() if mode == "synth" else Check(ty("Nat", ctx))
        substs[0] = 0
        out = infer(ctx, run_mode, term)
        assert out.ty == ty("Nat", ctx)
        counts[n] = substs[0]
    assert counts[48] <= 2.2 * counts[24]


def test_binder_depth_work_grows_linearly(monkeypatch):
    walks = count_well_formed_walks(monkeypatch)
    counts = {}
    for n in (40, 80):
        xs = [f"x{i}" for i in range(1, n + 1)]
        nats = " -> ".join(["Nat"] * (n + 1))
        term = tm("".join(f"\\{x}. " for x in xs) + "x1")
        walks["walks"] = 0
        out = infer(CTX, Check(ty(nats)), term)
        assert out.ty == ty(nats)
        counts[n] = walks["walks"]
    assert counts[80] <= 2.2 * counts[40]


def _count_growth(monkeypatch, counted, sizes, run):
    """Calls to ``counted`` (``module.function``) that ``run(n)`` makes, per size ``n``."""
    home, name = counted.split(".")
    modules = [importlib.import_module(f"spinel.{m}") for m in (home, "syntax", "matcher", "infer")]
    calls = count_calls(monkeypatch, name, modules)
    counts = {}
    for n in sizes:
        calls[0] = 0
        run(n)
        counts[n] = calls[0]
    return counts


@pytest.mark.parametrize("mode", ["synth", "check"])
@pytest.mark.parametrize("counted", ["syntax.substitute", "matcher._match"])
def test_spine_substitutions_grow_linearly_with_its_length(monkeypatch, counted, mode):
    def run(n):
        ctx, term = _wide_spine(n)
        infer(ctx, Synthesize() if mode == "synth" else Check(ty("Nat", ctx)), term)

    counts = _count_growth(monkeypatch, counted, (24, 48), run)
    assert counts[48] <= 2.2 * counts[24], counts


def test_contextual_solutions_grow_linearly_with_the_spine(monkeypatch):
    # Entries copied into new solutions and solved-type maps.  The spine
    # extends one map in place and substitutes into each domain only the
    # solutions of the metas it mentions.
    copied = count_solution_copies(monkeypatch)
    counts = {}
    for n in (24, 48):
        ctx, term, expected = contextual_spine(n)
        copied[0] = 0
        out = infer(ctx, Check(expected), term)
        assert out.ty == expected
        counts[n] = copied[0]
    assert counts[48] <= 2.2 * counts[24], counts


def test_type_lambda_substitutions_grow_linearly_with_the_chain(monkeypatch):
    def run(n):
        lams = "".join(f"/\\X{i}. " for i in range(1, n + 1))
        expected = ty("".join(f"forall Y{i}. " for i in range(1, n + 1)) + f"Y{n} -> Y{n}")
        out = infer(CTX, Check(expected), tm(lams + "\\x. x"))
        assert alpha_equal(out.ty, expected)

    counts = _count_growth(monkeypatch, "syntax.substitute", (40, 80), run)
    assert counts[80] <= 2.2 * counts[40], counts


def _count_builds(monkeypatch, cls):
    """Count the instances of ``cls`` built, by its ``__init__``."""
    init, built = cls.__init__, [0]

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_infer_builds_one_outcome_per_call(monkeypatch):
    # The engine passes each term's type and elaboration below ``infer`` as
    # a plain triple; a call that raises builds none.
    built, answered = _count_builds(monkeypatch, infer_mod.InferOutcome), 0
    for erased, t in erasures(5):
        for mode in (Check(t), Synthesize()):
            try:
                out = infer(CTX, mode, erased)
            except Diagnostic:
                continue
            answered += 1
            assert (out.spine is not None) is (type(erased) is App)
    assert built[0] == answered > 0


@pytest.mark.parametrize("chain", [r"\x{0} : Nat. ", r"/\X{0}. \x{0} : X{0}. "], ids=["lambda", "alternating"])
def test_each_annotation_of_a_binder_chain_is_walked_once(monkeypatch, chain):
    # A chain's annotations are walked as its links are read, and the
    # chain enters the context with only its names checked.
    walks = count_well_formed_walks(monkeypatch)
    for n in (1, 8, 64):
        term = tm("".join(chain.format(i) for i in range(n)) + "z")
        walks["walks"] = 0
        out = infer(CTX, Synthesize(), term)
        assert walks["walks"] == n
        walks["walks"] = 0
        infer(CTX, Check(out.ty), term)
        assert walks["walks"] == n + 1  # and ``infer``'s check of the expected type


def test_type_lambdas_named_like_their_quantifiers_build_no_type_variable(monkeypatch):
    n = 40
    term = tm("".join(f"/\\X{i}. " for i in range(1, n + 1)) + "\\x. x")
    expected = ty("".join(f"forall X{i}. " for i in range(1, n + 1)) + f"X{n} -> X{n}")
    built = _count_builds(monkeypatch, TVar)
    out = infer(CTX, Check(expected), term)
    assert built[0] == 0
    assert out.ty == expected and pretty_term(out.elaboration) == pretty_term(term).replace("\\x.", f"\\x : X{n}.")


def test_type_application_substitutions_grow_linearly_with_the_chain(monkeypatch):
    def run(n):
        ctx, _ = _wide_spine(n)
        targs = " ".join("[Nat]" if i % 2 else "[B]" for i in range(1, n + 1))
        out = infer(ctx, Synthesize(), tm(f"g {targs}", ctx))
        assert out.ty == ty(" -> ".join(["Nat" if i % 2 else "B" for i in range(1, n + 1)] + ["Nat"]), ctx)

    counts = _count_growth(monkeypatch, "syntax.substitute", (40, 80), run)
    assert counts[80] <= 2.2 * counts[40], counts


# ------------------------------------------- one extension per binder chain


def _lambda_chain(n):
    term = Var("x0")
    for i in reversed(range(n)):
        term = Lam(f"x{i}", None, term)
    return Check(ty(" -> ".join(["Nat"] * (n + 1)))), term


def _type_lambda_chain(n):
    term, expected = Var("z"), Con("Nat")
    for i in reversed(range(n)):
        term, expected = TLam(f"X{i}", term), Forall(f"Y{i}", expected)
    return Check(expected), term


def _alternating_chain(n):
    term = Var("z")
    for i in reversed(range(n)):
        term = TLam(f"X{i}", Lam(f"x{i}", TVar(f"X{i}"), term))
    return Synthesize(), term


def _chain_goal(chain):
    def run(n):
        mode, term = chain(n)
        out = infer(CTX, mode, term)
        assert alpha_equal(check_internal(CTX, out.elaboration), out.ty)
        return 2  # one extension in ``infer``, one in ``check_internal``

    return run


def _context_of(n):
    Context(tuple(e for i in range(n) for e in (TyVarDecl(f"A{i}"), TermBind(f"a{i}", TVar(f"A{i}")))))
    return 1


def _run_assumes(tmp_path, capsys):
    def run(n):
        path = tmp_path / f"assumes{n}.spn"
        lines = ["type Nat", "assume z : Nat", *(f"assume a{i} : Nat -> Nat" for i in range(n))]
        path.write_text("\n".join([*lines, f"synth a{n - 1} z"]) + "\n")
        assert cli_main(["run", str(path), "--json"]) == 0
        assert '"status": "ok"' in capsys.readouterr().out
        return 2  # ``Context.empty()``, then the run of ``assume``s

    return run


@pytest.mark.parametrize("case", ["lambda", "type-lambda", "alternating", "context", "assumes"])
def test_context_extension_work_grows_linearly(monkeypatch, tmp_path, capsys, case):
    """Each binder chain, and each run of ``assume``s, enters the context in
    one extension, ``Context._extend``, which copies the declarations once;
    what the extensions copy grows linearly with its length.  ``copied``
    counts the declarations each call copies, the context's and the new
    ones; ``walks["copied"]`` the type variables copied into
    well-formedness walks, which a per-link copy of a chain's type
    variables would make quadratic."""
    run = {
        "lambda": _chain_goal(_lambda_chain),
        "type-lambda": _chain_goal(_type_lambda_chain),
        "alternating": _chain_goal(_alternating_chain),
        "context": _context_of,
        "assumes": _run_assumes(tmp_path, capsys),
    }[case]
    original = Context._extend
    spy = {"calls": 0, "copied": 0}

    def counted(self, names, types, walk=True):
        spy["calls"] += 1
        spy["copied"] += len(self._scope) + len(names)
        return original(self, names, types, walk)

    monkeypatch.setattr(Context, "_extend", counted)
    walks = count_well_formed_walks(monkeypatch)
    copied, tvs = {}, {}
    for n in (2_000, 4_000):
        spy.update(calls=0, copied=0)
        walks["copied"] = 0
        calls = run(n)
        assert spy["calls"] == calls, (n, spy)
        copied[n], tvs[n] = spy["copied"], walks["copied"]
    assert copied[4_000] <= 2.2 * copied[2_000], copied
    assert tvs[4_000] <= 2.2 * tvs[2_000], tvs


LONG = 20_000


@pytest.mark.parametrize("kind", ["lambda", "type-lambda", "alternating", "quantifier", "assumes"])
def test_long_inputs_check_print_and_recheck_at_the_default_recursion_limit(kind):
    assert LONG > sys.getrecursionlimit()
    program = parse_program(long_source(kind, LONG))
    ctx = Context(
        tuple(TermBind(d.name, d.ty) for d in program if isinstance(d, Assume)),
        {d.name: d.arity for d in program if isinstance(d, ConDecl)},
    )
    (goal,) = [d for d in program if isinstance(d, Goal)]
    out = infer(ctx, Synthesize() if goal.expected is None else Check(goal.expected), goal.term)
    internal_ty = check_internal(ctx, out.elaboration)
    assert alpha_equal(internal_ty, out.ty)
    assert pretty_type(internal_ty) == pretty_type(out.ty)
    printed = pretty_term(out.elaboration)
    assert pretty_term(parse_term(printed, ctx)) == printed


@pytest.mark.parametrize(
    "ann, detail",
    [
        (TVar("A"), "annotation on 'y' mentions unbound type variable 'A'"),
        (Con("Pair", (Con("Nat"),)), "annotation on 'y' uses a constructor at the wrong arity"),
        # the failed walk had opened ``A``, which is still unbound outside its quantifier
        (Arrow(Forall("A", TVar("C")), TVar("A")), "annotation on 'y' mentions unbound type variable 'A'"),
    ],
    ids=["unbound", "arity", "after-a-quantifier"],
)
def test_an_illformed_annotation_is_reported_before_its_binder_is_bound(ann, detail):
    # Only library-built terms can carry one: the parser scopes annotations.
    term = Lam("x", Con("Nat"), Lam("y", ann, Var("x")))
    d = fails(DiagnosticKind.UNBOUND_NAME, lambda: infer(CTX, Synthesize(), term))
    assert d.detail == detail and d.subject is term.body


@pytest.mark.parametrize(
    "mode, term, name",
    [
        (Synthesize(), Lam("z", Con("Nat"), Var("z")), "z"),
        (Check(ty("Nat -> Nat")), Lam("z", None, Var("z")), "z"),
        (Check(ty("Nat -> Nat -> Nat")), Lam("x", None, Lam("z", None, Var("x"))), "z"),
        (Check(ty("forall X. X -> X")), TLam("X", Lam("X", None, Var("X"))), "X"),
        (Synthesize(), TLam("X", TLam("X", Var("z"))), "X"),
        (Synthesize(), Lam("x", Con("Nat"), Lam("x", Con("Nat"), Var("x"))), "x"),
        (Check(Forall("X", Forall("X", Arrow(TVar("X"), TVar("X"))))), TLam("X", TLam("X", Lam("x", None, Var("x")))), "X"),
        # a repeated name is rejected before a later link's diagnostic
        (Synthesize(), Lam("x", Con("Nat"), Lam("x", Con("Nat"), Lam("y", TVar("Q"), Var("y")))), "x"),
        (Check(ty("forall X. forall Y. B -> B")), TLam("X", TLam("X", Lam("y", Con("Nat"), Var("y")))), "X"),
    ],
    ids=[
        "annotated", "bare", "second-link", "after-a-type-lambda", "type-lambdas", "annotated-lambdas",
        "type-lambdas-named-like-their-quantifiers", "before-an-ill-formed-annotation", "before-a-mismatch",
    ],
)
def test_a_binder_that_shadows_a_declared_name_is_still_rejected(mode, term, name):
    # Library-built terms may reuse a name of the context or of an
    # enclosing binder; the parser never does.
    with pytest.raises(ValueError, match=f"^duplicate declaration of '{name}'$"):
        infer(CTX, mode, term)


@pytest.mark.parametrize("expected", [TVar("A"), Con("Pair", (Con("Nat"),))], ids=["unbound", "arity"])
def test_a_check_type_that_is_not_well_formed_is_a_caller_error(expected):
    with pytest.raises(ValueError, match="^contextual type is not well-formed$"):
        infer(CTX, Check(expected), Var("z"))


# ------------------------------------------- decorated substitution invariant


def test_decorated_substitution_never_needs_capture_avoidance(monkeypatch):
    """The spine reads its head's type link by link and re-matches only a
    solved stuck leaf: the leaf's meta-free solution against its pending
    prototype, so no binder of a decorated type is ever crossed."""
    original, solve = infer_mod._match, infer_mod._Remaining.solve.__code__
    calls = [0]

    def checked(metas, ty, proto, supply):
        if sys._getframe(1).f_code is solve:  # a re-match, not a head match
            calls[0] += 1
            assert not metas and type(proto) is ArrowTo, (metas, proto)
            assert not any(is_meta_name(v) for v in free_type_vars(ty)), ty
        return original(metas, ty, proto, supply)

    monkeypatch.setattr(infer_mod, "_match", checked)
    for erased, internal_ty in erasures(5):
        for mode in (Check(internal_ty), Synthesize()):
            try:
                infer(CTX, mode, erased)
            except Diagnostic:
                pass
    for n in (1, 2, 4, 8, 16):
        wide_ctx, term = _wide_spine(n)
        infer(wide_ctx, Synthesize(), term)
        infer(wide_ctx, Check(ty("Nat", wide_ctx)), term)
    # Quantifiers left under an arrow or after an explicit type argument
    # are links the spine reads; none reaches the substitution.
    inner_ctx = CTX.with_term("h", ty("forall X. X -> forall Y. Y -> Pair X Y"))
    for src in ("h z tt", "h [Nat] z [B] tt", "h z [B] tt", "pair [Nat] z tt"):
        term = tm(src, inner_ctx)
        infer(inner_ctx, Synthesize(), term)
        infer(inner_ctx, Check(ty("Pair Nat B", inner_ctx)), term)
    # A stuck leaf solved by a synthesized argument, past a quantifier
    # (`k3` owes the arrow `forall H. H -> G`), and by an explicit type
    # argument; and one whose solution cannot reveal the arrow it owes.
    stuck_ctx = CTX.with_term("k3", ty("forall G. G -> forall H. H -> G"))
    for src, result in (
        ("k3 suc tt z", "Nat"),
        ("k3 suc tt", "Nat -> Nat"),
        (r"k3 (\x : B. \y : Nat. pair x y) tt tt z", "Pair B Nat"),
        ("ident suc z", "Nat"),
        ("bot [Nat -> Nat] z", "Nat"),
    ):
        term = tm(src, stuck_ctx)
        assert alpha_equal(infer(stuck_ctx, Synthesize(), term).ty, ty(result, stuck_ctx))
        infer(stuck_ctx, Check(ty(result, stuck_ctx)), term)
    with pytest.raises(Diagnostic) as err:
        infer(stuck_ctx, Synthesize(), tm("ident z z", stuck_ctx))
    assert err.value.kind is DiagnosticKind.SOLUTION_CONFLICT
    assert calls[0] == 9, calls
