"""Executable declarative rules and test corpora.

``verify_spec`` replays the declarative spine rules deterministically
against a claimed (type, partial elaboration, solution) triple, using
the solution to resolve the one nondeterministic choice (guess or
decline at each quantifier).  ``search_spec`` enumerates derivations
outright over a finite candidate pool, whose context part (the
well-formed sub-types of the context's bindings) is computed once per
``Context`` object and kept for the next call.  Both type sub-terms with the
bidirectional rules but keep their own spine bookkeeping and their own
instantiation solver, so they stay an independent route from the
prototype-matching engine they audit.  ``search_spec`` and the
completeness conditions share one spine walk, ``_derivations``: a loop
over a stack of states, depth first, that declines each guess before it
tries the candidates.  The conditions read an erased term alone.  They
run the walk once per maximal application over an empty pool, so it
follows the one derivation that declines every guess, and read each
prefix of the spine where that derivation reached it.  They run no spine
of the engine, and reach it only through ``infer``, which types the head
and the arguments.  ``verify_spec`` keeps a replay of its own, because it
follows a claim rather than enumerating.

The module also hosts the erasure enumerator, the conditions under
which synthesis recovers a term from its erasure, and the deterministic
corpus generators the property suites run on.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .infer import Check, Diagnostic, Synthesize, infer
from .syntax import (
    App,
    Arrow,
    Binding,
    Con,
    Context,
    Contextual,
    Forall,
    Lam,
    Solution,
    TApp,
    TLam,
    TVar,
    Term,
    TermBind,
    TypeExpr,
    Var,
    _TYPE_NODES,
    _node,
    alpha_equal,
    alpha_equal_term,
    canon_term,
    canon_type,
    free_type_vars,
    is_well_formed,
    meta_vars_of_term,
    meta_vars_of_type,
    spine_parts,
    subst_type_args,
    substitute,
)

_Triple = tuple[TypeExpr, Term, Solution]


@_node
class SpecVerdict:
    accepted: bool
    trace: tuple[str, ...]
    reason: str | None = None


def _is_type(item) -> bool:
    return type(item) in _TYPE_NODES


# ------------------------------------------------- instantiation solving


def _solve_instantiation(
    metas: frozenset[str] | set[str], pattern: TypeExpr, target: TypeExpr
) -> dict[str, TypeExpr] | None:
    """Unique substitution over ``metas`` equating pattern with target.

    Deliberately separate from the matcher module: the oracle must not
    lean on the machinery it is auditing.
    """
    out: dict[str, TypeExpr] = {}
    return out if _solve_into(metas, out, pattern, target, {}, {}, 0) else None


def _solve_into(metas, out: dict[str, TypeExpr], p, t, envp, envt, depth) -> bool:
    """Equate ``p`` with ``t`` under the binder depths ``envp`` and ``envt``,
    adding each meta's solution to ``out``; False if they cannot be equal."""
    # Arrow codomains and quantifier bodies are followed by a loop; a
    # chain's quantifiers extend one copy of each binder map.
    own = False
    while True:
        kind = type(p)
        if kind is TVar:
            x = p.name
            if x in envp:
                return type(t) is TVar and envt.get(t.name) == envp[x]
            if x in metas:
                if free_type_vars(t) & set(envt):
                    return False
                if x in out:
                    return alpha_equal(out[x], t)
                out[x] = t
                return True
            return type(t) is TVar and t.name == x and t.name not in envt
        if kind is Arrow:
            if not (type(t) is Arrow and _solve_into(metas, out, p.dom, t.dom, envp, envt, depth)):
                return False
            p, t = p.cod, t.cod
        elif kind is Forall:
            if type(t) is not Forall:
                return False
            if not own:
                envp, envt, own = dict(envp), dict(envt), True
            envp[p.bound] = envt[t.bound] = depth
            p, t, depth = p.body, t.body, depth + 1
        elif kind is Con:
            return (
                type(t) is Con
                and t.con == p.con
                and len(t.args) == len(p.args)
                and all(_solve_into(metas, out, a, b, envp, envt, depth) for a, b in zip(p.args, t.args))
            )
        else:
            raise TypeError(p)


# ---------------------------------------------------------- verification


def verify_spec(
    ctx: Context, ctx_ty: TypeExpr | None, term: Term, claimed: _Triple
) -> SpecVerdict:
    """Deterministically replay the declarative rules against a claim.

    At each quantifier the claimed partial elaboration names the type
    argument: a meta-variable bound by the claimed solution means
    "guess that binding", an unbound meta-variable means "decline", and
    a concrete type means "decline now, solve it from a later argument".

    The head's type is walked unsubstituted.  ``opened`` maps each
    quantifier passed to its type argument, ``solved`` each meta an
    argument's instantiation solved, and ``guessed`` each meta guessed
    to its claimed type; they reach a part of the type only where it is
    read, not the whole rest of it at every quantifier and argument.
    ``guessed`` grows in place and becomes the replayed solution once,
    at the shim, so the replay's work grows linearly with the spine.  The
    shim and the mode's side conditions are ``passes_side_conditions``'s.
    """
    if type(term) is not App:
        raise ValueError("only term applications have spine derivations")
    claimed_ty, claimed_partial, claimed_sol = claimed
    trace: list[str] = []

    def reject(reason: str) -> SpecVerdict:
        return SpecVerdict(False, tuple(trace), reason)

    head, items = spine_parts(term)
    phead, pitems = spine_parts(claimed_partial)
    try:
        hout = infer(ctx, Synthesize(), head)
    except Diagnostic as d:
        return reject(f"head does not synthesize: {d.kind.value}")
    trace.append("PHead")
    if not alpha_equal_term(hout.elaboration, phead):
        return reject("claimed head elaboration differs")

    ty = hout.ty
    opened: dict[str, TypeExpr] = {}
    solved: dict[str, TypeExpr] = {}
    guessed: dict[str, TypeExpr] = {}
    rebuilt: Term = hout.elaboration
    synthesized: dict[str, TypeExpr] = {}  # every synthesizing argument's instantiation
    fresh = itertools.count()
    pi = 0

    def read(t: TypeExpr) -> TypeExpr:
        return substitute(solved, substitute(opened, t))

    def reveal() -> None:
        """Resolve a variable at the root of ``ty``, which may stand for a
        quantifier or an arrow; the result needs neither map any more."""
        nonlocal ty, opened, solved
        if type(ty) is TVar:
            ty, opened, solved = read(ty), {}, {}

    def take_claimed_type() -> TypeExpr | None:
        nonlocal pi
        if pi < len(pitems) and _is_type(pitems[pi]):
            out = pitems[pi]
            pi += 1
            return out
        return None

    for item in items:
        if _is_type(item):
            trace.append("PTApp")
            reveal()
            if type(ty) is not Forall:
                return reject("explicit type argument but no quantifier to consume")
            got = take_claimed_type()
            if got is None or not alpha_equal(got, item):
                return reject("claimed elaboration drops or alters an explicit type argument")
            opened[ty.bound] = item
            ty = ty.body
            rebuilt = TApp(rebuilt, item)
            continue

        trace.append("PApp")
        reveal()
        while type(ty) is Forall:
            trace.append("PForall")
            got = take_claimed_type()
            if got is None:
                return reject("claimed elaboration is missing an inserted type argument")
            if type(got) is TVar and not is_well_formed(ctx, got):
                meta = got.name
                if meta in claimed_sol:
                    if meta in guessed:
                        return reject("claimed solution reuses a meta-variable name")
                    guessed[meta] = claimed_sol[meta].ty
                # an unbound meta-variable stands for declining the guess
            else:
                # solved later by a synthesizing argument; no run mints a
                # name with a digit after the "?", so it cannot meet a claimed one
                meta = f"?{next(fresh)}"
            opened[ty.bound] = TVar(meta)
            ty = ty.body
            rebuilt = TApp(rebuilt, TVar(meta))
            reveal()
        if type(ty) is not Arrow:
            return reject("argument applied but the type reveals no arrow")

        dom = substitute(guessed, read(ty.dom))
        ty = ty.cod
        unsolved = meta_vars_of_type(ctx, dom)
        if not unsolved:
            trace.append("PChk")
            try:
                aout = infer(ctx, Check(dom), item)
            except Diagnostic as d:
                return reject(f"argument does not check: {d.kind.value}")
        else:
            trace.append("PSyn")
            try:
                aout = infer(ctx, Synthesize(), item)
            except Diagnostic as d:
                return reject(f"argument does not synthesize: {d.kind.value}")
            inst = _solve_instantiation(unsolved, dom, aout.ty)
            if inst is None:
                return reject("argument type is not an instance of the expected domain")
            solved.update(inst)
            synthesized.update(inst)
        if pi >= len(pitems) or _is_type(pitems[pi]):
            return reject("claimed elaboration is missing a term argument")
        if not alpha_equal_term(pitems[pi], aout.elaboration):
            return reject("claimed argument elaboration differs")
        rebuilt = App(rebuilt, aout.elaboration)
        pi += 1

    if pi != len(pitems):
        return reject("claimed elaboration has extra spine entries")

    # A meta an instantiation solves is gone from the rest of the type, so
    # one substitution at the end rebuilds what solving each type argument
    # as it was found would (a claim that reuses its name differs anyway).
    rebuilt = subst_type_args(synthesized, rebuilt)
    ty = read(ty)

    trace.append("shim")
    sol = Solution({meta: claimed_sol[meta] for meta in guessed})
    if not alpha_equal(ty, claimed_ty):
        return reject("claimed type differs from the replayed type")
    if not alpha_equal_term(rebuilt, claimed_partial):
        return reject("claimed partial elaboration differs from the replayed one")
    if not sol.equivalent(claimed_sol):
        return reject("claimed solution differs from the replayed one")
    failure = _side_condition_failure(ctx, ctx_ty, (ty, rebuilt, sol))
    if failure is not None:
        return reject(failure)
    return SpecVerdict(True, tuple(trace))


# --------------------------------------------------------------- search


def _subtypes(ty: TypeExpr) -> Iterator[TypeExpr]:
    """Every sub-type of ``ty``, itself first, in pre-order."""
    stack = [ty]
    while stack:
        ty = stack.pop()
        yield ty
        kind = type(ty)
        if kind is Arrow:
            stack += (ty.cod, ty.dom)
        elif kind is Forall:
            stack.append(ty.body)
        elif kind is Con:
            stack.extend(reversed(ty.args))


def _new_keyed(ctx: Context, types, seen: set[str]) -> Iterator[tuple[TypeExpr, str]]:
    """Each well-formed type whose canonical key is not in ``seen`` yet,
    with that key, which is added to ``seen``."""
    for ty in types:
        if is_well_formed(ctx, ty):
            key = canon_type(ty)
            if key not in seen:
                seen.add(key)
                yield ty, key


# The context's part of the guess pool for the last context seen: that
# context, held so that its identity cannot be reused, and its bindings'
# well-formed sub-types with their keys.
_context_pool: tuple[Context | None, tuple[tuple[TypeExpr, str], ...]] = (None, ())


def _context_part(ctx: Context) -> tuple[tuple[TypeExpr, str], ...]:
    global _context_pool
    held, part = _context_pool
    if held is not ctx:
        bound = (ty for e in ctx.entries if type(e) is TermBind for ty in _subtypes(e.ty))
        part = tuple(_new_keyed(ctx, bound, set()))
        _context_pool = (ctx, part)
    return part


def default_candidates(ctx: Context, ctx_ty: TypeExpr | None, term: Term) -> list[TypeExpr]:
    """Finite guess pool: sub-types of the contextual type, of context
    bindings, and of whatever the spine's arguments synthesize.

    The context's part is computed once per ``Context`` object; only the
    contextual type and the arguments are walked on every call.
    """
    return _candidates(ctx, ctx_ty, term, {})


def _typed(ctx: Context, typed: dict, index: int, arg: Term, expected: TypeExpr | None):
    """``infer`` on spine item ``index``, checked against ``expected`` or synthesized
    if it is None, and None on a diagnostic; ``typed`` keeps it for one search."""
    key = (index, None if expected is None else canon_type(expected))
    if key not in typed:
        try:
            typed[key] = infer(ctx, Synthesize() if expected is None else Check(expected), arg)
        except Diagnostic:
            typed[key] = None
    return typed[key]


def _candidates(ctx: Context, ctx_ty: TypeExpr | None, term: Term, typed: dict) -> list[TypeExpr]:
    """``default_candidates``, typing the arguments through ``typed``."""
    seen: set[str] = set()
    pool = [] if ctx_ty is None else [ty for ty, _ in _new_keyed(ctx, _subtypes(ctx_ty), seen)]
    for ty, key in _context_part(ctx):
        if key not in seen:
            seen.add(key)
            pool.append(ty)
    _, items = spine_parts(term)
    for i, item in enumerate(items):
        if not _is_type(item):
            out = _typed(ctx, typed, i, item, None)
            if out is not None:
                pool.extend(ty for ty, _ in _new_keyed(ctx, _subtypes(out.ty), seen))
    return pool


def _derivations(
    ctx: Context, head: Term, items: list, candidates: Sequence[TypeExpr], typed: dict
) -> Iterator[tuple[int, TypeExpr, Term, dict[str, TypeExpr]]]:
    """The states ``(i, ty, partial, guesses)`` of every declarative spine
    derivation for ``head`` applied to ``items``, depth first, each after
    ``i`` items at head type ``ty``.  One loop over a stack of states: at
    a quantifier a term argument meets, it declines the guess first, then
    guesses each candidate in order.  Each argument is typed through
    ``typed``, as in ``_typed``."""
    try:
        hout = infer(ctx, Synthesize(), head)
    except Diagnostic:
        return
    fresh = itertools.count()
    stack = [(0, hout.ty, hout.elaboration, {})]
    while stack:
        state = stack.pop()
        yield state
        i, ty, partial, guesses = state
        if i == len(items):
            continue
        item = items[i]
        if _is_type(item):
            if type(ty) is Forall and is_well_formed(ctx, item):
                stack.append((i + 1, substitute({ty.bound: item}, ty.body), TApp(partial, item), guesses))
        elif type(ty) is Forall:
            meta = f"?g{next(fresh)}"
            opened = substitute({ty.bound: TVar(meta)}, ty.body)
            applied = TApp(partial, TVar(meta))
            stack += [(i, opened, applied, {**guesses, meta: cand}) for cand in reversed(candidates)]
            stack.append((i, opened, applied, guesses))
        elif type(ty) is Arrow:
            dom = substitute(guesses, ty.dom)
            unsolved = meta_vars_of_type(ctx, dom)
            aout = _typed(ctx, typed, i, item, None if unsolved else dom)
            if aout is None:
                continue
            if not unsolved:
                stack.append((i + 1, ty.cod, App(partial, aout.elaboration), guesses))
            elif (inst := _solve_instantiation(unsolved, dom, aout.ty)) is not None:
                partial = App(subst_type_args(inst, partial), aout.elaboration)
                stack.append((i + 1, substitute(inst, ty.cod), partial, guesses))


def search_spec(ctx: Context, ctx_ty: TypeExpr | None, term: Term) -> list[_Triple]:
    """Enumerate every declarative spine derivation over the guess pool
    ``default_candidates`` gives.

    Returns raw derivation triples, before the shim and mode side
    conditions; ``passes_side_conditions`` filters them.
    """
    if type(term) is not App:
        raise ValueError("only term applications have spine derivations")
    typed: dict = {}  # each argument's typings, shared with the guess pool
    candidates = _candidates(ctx, ctx_ty, term, typed)
    head, items = spine_parts(term)
    found: dict = {}  # the first derivation of each canonical key
    for i, ty, partial, guesses in _derivations(ctx, head, items, candidates, typed):
        if i == len(items):
            triple = ty, partial, Solution(
                {meta: Binding(cand, Contextual(TVar(meta), cand)) for meta, cand in guesses.items()}
            )
            found.setdefault(canonical_triple_key(triple), triple)
    return list(found.values())


def _side_condition_failure(ctx: Context, ctx_ty: TypeExpr | None, triple: _Triple) -> str | None:
    """The first of the shim and the mode's discharge conditions that
    ``triple`` fails, as a rejection reason; None if it passes them all."""
    ty, partial, sol = triple
    if meta_vars_of_type(ctx, ty) != sol.keys():
        return "type meta-variables do not line up with the solution domain"
    if ctx_ty is None:
        if sol:
            return "synthesis must not keep contextual bindings"
        if meta_vars_of_term(ctx, partial):
            return "synthesis left unsolved meta-variables in the elaboration"
    else:
        if meta_vars_of_term(ctx, partial) != sol.keys():
            return "checking left meta-variables the solution does not cover"
        if not alpha_equal(substitute(sol.types(), ty), ctx_ty):
            return "solved type does not restore the contextual type"
    return None


def passes_side_conditions(ctx: Context, ctx_ty: TypeExpr | None, triple: _Triple) -> bool:
    """The shim plus the synthesis/checking discharge conditions: the
    same checks ``verify_spec`` makes once a claim is replayed."""
    return _side_condition_failure(ctx, ctx_ty, triple) is None


def canonical_triple_key(triple: _Triple):
    """Hashable key identifying triples up to meta-variable renaming."""
    ty, partial, sol = triple
    order: list[str] = []

    def note(name: str) -> None:
        if name.startswith("?") and name not in order:
            order.append(name)

    for item in spine_parts(partial)[1]:
        if _is_type(item):
            for v in sorted(free_type_vars(item)):
                note(v)
    for v in sorted(free_type_vars(ty)):
        note(v)
    for v in sorted(sol):
        note(v)
    rename = {name: TVar(f"?c{i}") for i, name in enumerate(order)}
    renamed_sol = tuple(
        sorted(
            (rename[k].name if k in rename else k, canon_type(substitute(rename, b.ty)))
            for k, b in sol.items()
        )
    )
    return (
        canon_type(substitute(rename, ty)),
        canon_term(subst_type_args(rename, partial)),
        renamed_sol,
    )


# -------------------------------------------------------------- erasures


def enumerate_erasures(term: Term) -> list[Term]:
    """All external terms that erase annotations/type arguments of ``term``.

    Lambda annotations erase pointwise; a type argument erases only
    together with every type argument to its right in the same
    applicand chain.  The term itself is always included.
    """

    def norm(t: Term) -> list[Term]:
        kind = type(t)
        if kind is Var:
            return [t]
        if kind is Lam:
            out = []
            for body in norm(t.body):
                out.append(Lam(t.bound, t.ann, body))
                if t.ann is not None:
                    out.append(Lam(t.bound, None, body))
            return out
        if kind is TLam:
            return [TLam(t.bound, body) for body in norm(t.body)]
        if kind is App:
            return [App(fun, arg) for fun in norm_applicand(t.fun) for arg in norm(t.arg)]
        if kind is TApp:
            return [TApp(fun, t.targ) for fun in norm(t.fun)]
        raise TypeError(t)

    def norm_applicand(t: Term) -> list[Term]:
        if type(t) is TApp:
            return norm_applicand(t.fun) + [TApp(fun, t.targ) for fun in norm(t.fun)]
        return norm(t)

    out: list[Term] = []
    seen: set[str] = set()
    for t in norm(term):
        key = canon_term(t)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


# ----------------------------------------- completeness side conditions


def _reveals_arrow_under_quantifiers(ty: TypeExpr) -> bool:
    while type(ty) is Forall:
        ty = ty.body
    return type(ty) is Arrow


def _declined(ctx: Context, term: Term) -> tuple[list[tuple[TypeExpr, Term]], int]:
    """The oracle's derivation of the spine ``term`` with every guess
    declined, one path: its first type and partial elaboration after each
    count of items it reaches, and the spine's number of items."""
    head, items = spine_parts(term)
    reached: list[tuple[TypeExpr, Term]] = []
    for i, ty, partial, _ in _derivations(ctx, head, items, (), {}):
        if i == len(reached):
            reached.append((ty, partial))
    return reached, len(items)


def check_weak_completeness_conditions(ctx: Context, erased: Term) -> bool:
    """Sufficient conditions for synthesis to recover, from ``erased``, the
    internal term it erases: every lambda keeps its annotation, no maximal
    application is left with unsolved meta-variables, and every applicand's
    partial type reveals the structure its arguments need.  They read
    ``erased`` alone, which must be well-scoped in ``ctx``.  The last two
    are read off ``_declined``, the oracle's own derivation, once per
    maximal application: each prefix of a spine where the derivation of
    the whole reached it.  Binder chains and applicand chains are walked
    by loops; a binder chain enters the context in one extension."""

    def walk(ctx: Context, t: Term) -> bool:
        kind = type(t)
        if kind is Var:
            return True
        if kind is Lam or kind is TLam:
            names, anns = [], []  # each binder and its annotation, None for a type lambda
            while (kind := type(t)) is Lam or kind is TLam:
                if kind is Lam and t.ann is None:
                    return False
                names.append(t.bound)
                anns.append(t.ann if kind is Lam else None)
                t = t.body
            return walk(ctx._extend(names, anns), t)
        if kind is not App and kind is not TApp:
            raise TypeError(t)
        # A maximal application; ``k`` counts the items of ``t.fun``.
        reached, k = _declined(ctx, t)
        if kind is App and k < len(reached) and meta_vars_of_term(ctx, reached[k][1]):
            return False
        k -= 1
        args: list[Term] = []
        while (kind := type(t)) is App or kind is TApp:
            if k < len(reached):
                ty = reached[k][0]
                if not (_reveals_arrow_under_quantifiers(ty) if kind is App else type(ty) is Forall):
                    return False
            if kind is App:
                args.append(t.arg)
            t, k = t.fun, k - 1
        return walk(ctx, t) and all(walk(ctx, arg) for arg in reversed(args))

    return walk(ctx, erased)


# ------------------------------------------------------ corpus generation

def standard_context() -> Context:
    """The small well-known context the corpora and examples run in."""
    nat = Con("Nat")
    b = Con("B")
    ctx = Context.empty({"Nat": 0, "B": 0, "Pair": 2, "Sum": 2})
    x, y = TVar("X"), TVar("Y")
    ctx = ctx.with_term("z", nat)
    ctx = ctx.with_term("suc", Arrow(nat, nat))
    ctx = ctx.with_term("tt", b)
    ctx = ctx.with_term("ident", Forall("X", Arrow(x, x)))
    ctx = ctx.with_term(
        "pair", Forall("X", Forall("Y", Arrow(x, Arrow(y, Con("Pair", (x, y))))))
    )
    ctx = ctx.with_term(
        "right", Forall("X", Forall("Y", Arrow(y, Con("Sum", (x, y)))))
    )
    ctx = ctx.with_term(
        "rapp", Forall("X", Forall("Y", Arrow(x, Arrow(Arrow(x, y), y))))
    )
    ctx = ctx.with_term("bot", Forall("X", x))
    return ctx


def _type_size(ty: TypeExpr) -> int:
    return sum(1 for _ in _subtypes(ty))


def _term_size(t: Term) -> int:
    kind = type(t)
    if kind is Var:
        return 1
    if kind is Lam:
        return 1 + (_type_size(t.ann) if t.ann is not None else 0) + _term_size(t.body)
    if kind is TLam:
        return 1 + _term_size(t.body)
    if kind is App:
        return 1 + _term_size(t.fun) + _term_size(t.arg)
    if kind is TApp:
        return 1 + _term_size(t.fun) + _type_size(t.targ)
    raise TypeError(t)


_TYPE_POOL: tuple[TypeExpr, ...] = (
    Con("Nat"),
    Con("B"),
    Arrow(Con("Nat"), Con("Nat")),
    Forall("X", Arrow(TVar("X"), TVar("X"))),
)


def enumerate_internal_terms(ctx: Context, max_size: int) -> list[tuple[Term, TypeExpr]]:
    """Every well-typed internal term of the given size or less, with
    annotations and type arguments drawn from ``_TYPE_POOL``.

    Deterministic bottom-up enumeration; binder names are minted from
    the context depth so no term shadows anything.
    """
    memo: dict[tuple, list[tuple[Term, TypeExpr]]] = {}

    def terms(ctx: Context, size: int) -> list[tuple[Term, TypeExpr]]:
        key = (ctx.entries, size)
        if key in memo:
            return memo[key]
        out: list[tuple[Term, TypeExpr]] = []
        if size >= 1:
            for entry in ctx.entries:
                if type(entry) is TermBind:
                    out.append((Var(entry.name), entry.ty))
        if size >= 2:
            depth = len(ctx.entries)
            tv = f"X{depth}"
            for body, bty in terms(ctx.with_type_var(tv), size - 1):
                out.append((TLam(tv, body), Forall(tv, bty)))
            for ann in _TYPE_POOL:
                budget = size - 1 - _type_size(ann)
                if budget < 1 or not is_well_formed(ctx, ann):
                    continue
                name = f"x{depth}"
                for body, bty in terms(ctx.with_term(name, ann), budget):
                    out.append((Lam(name, ann, body), Arrow(ann, bty)))
            for fsize in range(1, size - 1):
                for fun, fty in terms(ctx, fsize):
                    if type(fty) is Forall:
                        for targ in _TYPE_POOL:
                            if _type_size(targ) <= size - 1 - fsize and is_well_formed(
                                ctx, targ
                            ):
                                out.append(
                                    (
                                        TApp(fun, targ),
                                        substitute({fty.bound: targ}, fty.body),
                                    )
                                )
                    if type(fty) is Arrow:
                        want = canon_type(fty.dom)
                        for arg, aty in terms(ctx, size - 1 - fsize):
                            if canon_type(aty) == want:
                                out.append((App(fun, arg), fty.cod))
        memo[key] = out
        return out

    collected: list[tuple[Term, TypeExpr]] = []
    seen: set[str] = set()
    for s in range(1, max_size + 1):
        for term, ty in terms(ctx, s):
            if _term_size(term) == s:
                key = canon_term(term)
                if key not in seen:
                    seen.add(key)
                    collected.append((term, ty))
    return collected


def enumerate_matcher_types(max_size: int, metas: tuple[str, ...] = ("M",)) -> list[TypeExpr]:
    """Types over one rigid variable, the metas, and a two-constructor
    signature, for exhaustive matcher audits."""
    base: list[TypeExpr] = [TVar("R"), Con("Nat")] + [TVar(m) for m in metas]
    by_size: dict[int, list[TypeExpr]] = {1: list(base)}

    def of(size: int) -> list[TypeExpr]:
        if size in by_size:
            return by_size[size]
        out: list[TypeExpr] = []
        for lsize in range(1, size - 1):
            for dom in of(lsize):
                for cod in of(size - 1 - lsize):
                    out.append(Arrow(dom, cod))
                    out.append(Con("Pair", (dom, cod)))
        for body in of(size - 1):
            out.append(Forall("A", substitute({"R": TVar("A")}, body)))
        by_size[size] = out
        return out

    collected: list[TypeExpr] = []
    seen: set[str] = set()
    for s in range(1, max_size + 1):
        for ty in of(s):
            key = canon_type(ty)
            if key not in seen:
                seen.add(key)
                collected.append(ty)
    return collected
