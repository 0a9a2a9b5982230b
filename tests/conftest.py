"""Shared test helpers: a standard context, parser-backed builders, a long
contextually solved spine, work counters and a walk of what an object keeps."""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import sys
import types

from spinel.oracle import enumerate_erasures, enumerate_internal_terms, standard_context
from spinel.parser import parse_term, parse_type, pretty_term, pretty_type
from spinel.syntax import TermBind, alpha_equal

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


def criterion_9_internals():
    """Criterion 9's corpus: the internal terms of size 7 or less, then the seeds."""
    pool = enumerate_internal_terms(CTX, 7)
    return [t for t, _ in pool] + [tm(src) for src in SEED_INTERNALS]


@functools.cache
def erasure_source(size, wrong=False):
    """CI's erasure file: the standard context's declarations, then every
    erasure of each internal term up to ``size`` as ``check`` against its
    type and as ``synth``.  With ``wrong``, like the benchmark's
    ``rejects`` goals, each erasure is only checked, against the first type
    of the sorted pool that is not alpha-equal to its own."""
    lines = list(STANDARD_DECLS)
    terms = enumerate_internal_terms(CTX, size)
    pool = sorted({pretty_type(t): t for _, t in terms}.items())
    for internal, t in terms:
        expected = pretty_type(t)
        if wrong:
            expected = next(text for text, other in pool if not alpha_equal(other, t))
        for erased in enumerate_erasures(internal):
            text = pretty_term(erased)
            lines += [f"check {text} : {expected}"] if wrong else [f"check {text} : {expected}", f"synth {text}"]
    return "\n".join(lines) + "\n"


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


def contextual_spine(n):
    """``g : forall X1..Xn. X1 -> ... -> Xn -> Nat -> (X1 -> ... -> Xn -> Nat)``
    applied to n arguments and checked, so the head match solves every Xi
    contextually and each argument is checked against a solved domain."""
    xs = [f"X{i}" for i in range(1, n + 1)]
    quantifiers = "".join(f"forall {x}. " for x in xs)
    ctx = CTX.with_term("g", ty(f"{quantifiers}{' -> '.join(xs)} -> Nat -> ({' -> '.join(xs + ['Nat'])})"))
    return ctx, tm("g" + " z" * n, ctx), ty(" -> ".join(["Nat"] * (n + 2)))


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

    def counted(dtv, signature, ty, scope):
        if depth[0] == 0:
            counts["walks"] += 1
            if id(scope) not in seen:
                seen[id(scope)] = scope
                counts["copied"] += len(scope)
        depth[0] += 1
        try:
            return original(dtv, signature, ty, scope)
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
