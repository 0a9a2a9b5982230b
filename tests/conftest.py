"""Shared test helpers: a standard context, parser-backed builders, the one
walk of the erasure corpus and the goal files and long inputs built from
it, and the interleaved assume-and-goal files (which CI writes too), a
long contextually solved spine, work counters and a walk of what an
object keeps."""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import sys
import types

from spinel.oracle import enumerate_erasures, enumerate_internal_terms, standard_context
from spinel.parser import parse_term, parse_type, pretty_term, pretty_type
from spinel.syntax import App, TermBind, alpha_equal

CTX = standard_context()
# The standard context as source declarations.
STANDARD_DECLS = [f"type {c} {a}" if a else f"type {c}" for c, a in CTX.signature.items()]
STANDARD_DECLS += [f"assume {e.name} : {pretty_type(e.ty)}" for e in CTX.entries if isinstance(e, TermBind)]


def ty(src, ctx=None):
    """Parse a type in the standard context."""
    return parse_type(src, ctx if ctx is not None else CTX)


def tm(src, ctx=None):
    """Parse a term in the standard context."""
    return parse_term(src, ctx if ctx is not None else CTX)


SEED_INTERNALS = [
    r"rapp [Nat] [Nat] z (\y : Nat. y)",
    r"pair [Nat -> Nat] [Nat] (\x : Nat. x) z",
    r"pair [B] [Nat] tt (ident [Nat] z)",
    r"bot [forall Y. Y -> Y] [Nat] z",
]


@functools.cache
def erasure_walk(size):
    """The standard context's corpus up to ``size``, walked once per session
    and size: each internal term, its type and the tuple of its erasures,
    in enumeration order."""
    terms = enumerate_internal_terms(CTX, size)
    return tuple((internal, t, tuple(enumerate_erasures(internal))) for internal, t in terms)


def erasures(size):
    """Each erasure of the size-``size`` corpus, with its internal term's type."""
    return [(erased, t) for _, t, erased_terms in erasure_walk(size) for erased in erased_terms]


def application_goals(size):
    """Each application erasure of the size-``size`` corpus checked against
    its type, then synthesized (``None``), as ``(erased, expected)``."""
    return [(erased, expected) for erased, t in erasures(size) if isinstance(erased, App) for expected in (t, None)]


def criterion_9_corpus():
    """Criterion 9's corpus: the internal terms of size 7 or less, then the
    seeds, each with the tuple of its erasures."""
    corpus = [(internal, erased) for internal, _, erased in erasure_walk(7)]
    return corpus + [(seed, tuple(enumerate_erasures(seed))) for seed in map(tm, SEED_INTERNALS)]


@functools.cache
def erasure_source(size, goals="check synth", times=1, first=None):
    """An erasure file: the standard context's declarations, then for each
    erasure of each internal term up to ``size`` one goal line per word of
    ``goals``: ``check`` against its type, ``synth``, ``wrong``, a check
    against the first type of the sorted pool that is not alpha-equal to
    its own, like the benchmark's ``rejects`` goals, or ``next``, a check
    against the first type after its own in the pool, read cyclically,
    that is not alpha-equal to it.  Of the goal lines it keeps the
    ``first``, and writes them ``times`` times over."""
    walk = erasure_walk(size)
    pool = sorted({pretty_type(t): t for _, t, _ in walk}.items())
    place = {text: i for i, (text, _) in enumerate(pool)}
    lines = []
    for _, t, erased_terms in walk:
        texts = {"check": pretty_type(t)}
        if "wrong" in goals:
            texts["wrong"] = next(text for text, other in pool if not alpha_equal(other, t))
        if "next" in goals:
            at = place[texts["check"]]
            texts["next"] = next(text for text, other in pool[at + 1:] + pool[:at] if not alpha_equal(other, t))
        for erased in erased_terms:
            term = pretty_term(erased)
            lines += [f"synth {term}" if goal == "synth" else f"check {term} : {texts[goal]}" for goal in goals.split()]
    return "\n".join(STANDARD_DECLS + lines[:first] * times) + "\n"


def _chain(link, n):
    """``link`` formatted with each index below ``n``, joined."""
    return "".join(link.format(i) for i in range(n))


# Each long input's declarations and goals, ``n`` links long.
_LONG_GOALS = {
    "lambda": lambda n: "check " + _chain("\\x{}. ", n) + "x0 : " + "Nat -> " * n + "Nat",
    "type-lambda": lambda n: "check " + _chain("/\\X{}. ", n) + "z : " + _chain("forall Y{}. ", n) + "Nat",
    "alternating": lambda n: "check " + _chain("/\\X{0}. \\x{0} : X{0}. ", n) + "z : "
    + _chain("forall Y{0}. Y{0} -> ", n) + "Nat",
    "quantifier": lambda n: "check " + _chain("/\\X{}. ", n) + "\\x. x : " + _chain("forall Y{}. ", n)
    + f"Y{n - 1} -> Y{n - 1}",
    "annotated": lambda n: "synth {0}\ncheck {0} : ".format(_chain("\\x{} : Nat. ", n) + "x0") + "Nat -> " * n + "Nat",
    "assumes": lambda n: _chain("assume a{} : Nat -> Nat\n", n) + f"synth a{n - 1} z",
    "stuck": lambda n: "assume suc : Nat -> Nat\nassume h : forall X. X -> " + "Nat -> " * n + "X\n"
    + "synth h suc" + " z" * (n + 1),
    "contextual": lambda n: "assume g : " + _chain("forall X{}. ", n) + _chain("X{} -> ", n) + "Nat -> ("
    + _chain("X{} -> ", n) + "Nat)\ncheck g" + " z" * n + " : " + "Nat -> " * (n + 1) + "Nat",
}
LONG_SHAPES = [*_LONG_GOALS, "assumes-crlf"]


def long_source(shape, n):
    """A long-input file of ``shape`` (one of ``LONG_SHAPES``), ``n`` links
    long, after ``type Nat`` and ``assume z : Nat``.  ``assumes-crlf`` is
    ``assumes`` with CRLF line ends and tabs between tokens."""
    src = "type Nat\nassume z : Nat\n" + _LONG_GOALS[shape.removesuffix("-crlf")](n) + "\n"
    return src.replace(" ", "\t").replace("\n", "\r\n") if shape.endswith("-crlf") else src


def interleaved_source(n, separated=False):
    """``n`` pairs of ``assume aI : Nat -> Nat`` and ``synth aI z`` after
    ``type Nat`` and ``assume z : Nat``, each goal right after its assume,
    or with ``separated`` every assume before the first goal."""
    assumes = [f"assume a{i} : Nat -> Nat\n" for i in range(n)]
    goals = [f"synth a{i} z\n" for i in range(n)]
    lines = assumes + goals if separated else [line for pair in zip(assumes, goals) for line in pair]
    return "type Nat\nassume z : Nat\n" + "".join(lines)


@contextlib.contextmanager
def recursion_headroom(frames):
    """Set the recursion limit ``frames`` above the current stack depth, so
    that code in the block nests as deeply as a fresh interpreter's script
    does at the default limit, however deep the test runner's stack is."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def quantifier_chain(n, nat=True):
    """``forall X1. ... forall Xn. X1 -> ... -> Xn``, followed by ``-> Nat`` if ``nat``."""
    xs = [f"X{i}" for i in range(1, n + 1)]
    return "".join(f"forall {x}. " for x in xs) + " -> ".join(xs + ["Nat"] * nat)


def contextual_spine(n):
    """``g : forall X1..Xn. X1 -> ... -> Xn -> Nat -> (X1 -> ... -> Xn -> Nat)``
    applied to n arguments and checked, so the head match solves every Xi
    contextually and each argument is checked against a solved domain."""
    chain = quantifier_chain(n, nat=False)
    ctx = CTX.with_term("g", ty(f"{chain} -> Nat -> ({chain.rpartition('. ')[2]} -> Nat)"))
    return ctx, tm("g" + " z" * n, ctx), ty(" -> ".join(["Nat"] * (n + 2)))


def polymorphic_spine(n):
    """``g : forall X. X -> Nat -> ... -> Nat``, n arrows long, with the
    spine ``g [Nat] z ... z`` of n term arguments and its erasure
    ``g z ... z``, each of which meets the completeness conditions."""
    ctx = CTX.with_term("g", ty("forall X. X -> " + "Nat -> " * (n - 1) + "Nat"))
    return ctx, tm("g [Nat]" + " z" * n, ctx), tm("g" + " z" * n, ctx)


def count_calls(monkeypatch, name, modules):
    """Count calls to the function ``name`` through each module binding it."""
    calls = [0]
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod in modules:
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_well_formed_walks(monkeypatch):
    """Count well-formedness walks, and the type variables copied into them.

    ``walks`` counts the outermost calls of ``syntax._well_formed``, one
    per type checked, whichever function or method starts it.  A scope set
    that a walk is the first to receive was made for it, as the empty one
    ``is_well_formed`` makes; ``copied`` adds up the variables already in
    each such set when it first arrives.
    """
    modules = [importlib.import_module(f"spinel.{m}") for m in ("syntax", "infer", "internal")]
    original = modules[0]._well_formed
    counts = {"walks": 0, "copied": 0}
    depth = [0]
    seen = {}  # id -> scope, kept alive so that no id is reused

    def counted(declared, signature, ty, scope):
        if depth[0] == 0:
            counts["walks"] += 1
            if id(scope) not in seen:
                seen[id(scope)] = scope
                counts["copied"] += len(scope)
        depth[0] += 1
        try:
            return original(declared, signature, ty, scope)
        finally:
            depth[0] -= 1

    for mod in modules:
        if hasattr(mod, "_well_formed"):
            monkeypatch.setattr(mod, "_well_formed", counted)
    return counts


def count_solution_copies(monkeypatch):
    """Count the entries copied into new solutions (``Solution.__init__``)
    and into solved-type maps (``Solution.types``)."""
    solution = importlib.import_module("spinel.syntax").Solution
    init, types = solution.__init__, solution.types
    copied = [0]

    def counted_init(sol, bindings=None):
        copied[0] += len(bindings) if bindings else 0
        init(sol, bindings or ())

    def counted_types(sol):
        copied[0] += len(sol)
        return types(sol)

    monkeypatch.setattr(solution, "__init__", counted_init)
    monkeypatch.setattr(solution, "types", counted_types)
    return copied


def traceback_frames(exc):
    """The names of the functions whose frames ``exc``'s traceback holds, outermost first."""
    names, tb = [], exc.__traceback__
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    return names


_PROGRAM = (types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType, types.CodeType)


def reachable(roots):
    """The objects ``roots`` keep alive, by ``id``: those reachable through
    ``gc.get_referents``, entering a frame through its locals only (not
    the caller it returned to) and no module, class or function, which
    are the program's, not the data's."""
    seen, stack = {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _PROGRAM):
            continue
        seen[id(obj)] = obj
        stack.extend(obj.f_locals.values() if isinstance(obj, types.FrameType) else gc.get_referents(obj))
    return seen
