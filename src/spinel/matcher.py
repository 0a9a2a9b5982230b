"""First-order matching and prototype matching.

``match_first_order`` finds the unique substitution for a set of
solvable variables that makes a pattern type equal to a target type,
and tags it with the contextual match that found it.  Matching is
alpha-equality with holes: ``syntax.match_type`` runs the one walk of
``syntax.alpha_equal`` with the solvable variables as holes.
``match_proto`` aligns a type against a prototype in one pass down its
arrow and quantifier chain, peeling quantifiers into decorations and
getting stuck (rather than failing) when a meta-variable must reveal
arrows it does not yet have.  Each binder it peels is named by one
path, the ``NameSupply`` of the run (or a fresh one), and renamed by
one environment applied where a type is used, not substituted into the
rest of the chain one binder at a time.
``subst_decorated`` applies a substitution to a decorated type,
re-matching stuck decorations against their pending prototypes.  It
renames no binder: every ``DForall`` binder the engine builds is a
meta-variable minted by the run's supply, and no type it substitutes
mentions a meta-variable, so nothing can be captured.
Types, prototypes and decorated types are never subclassed, so both walks
dispatch on ``type(x) is X``, as ``syntax`` does; results are ``_node``s.
"""

from __future__ import annotations

from typing import Mapping

from .syntax import (
    Arrow,
    ArrowTo,
    Binding,
    Contextual,
    DArrow,
    DForall,
    DecoratedType,
    Exact,
    Forall,
    NameSupply,
    Plain,
    Prototype,
    Solution,
    Stuck,
    TVar,
    TypeExpr,
    Unknown,
    _node,
    free_type_vars,
    match_type,
    substitute,
)


@_node
class MatchResult:
    solution: Solution
    decorated: DecoratedType


@_node
class MatchFailure:
    """Where a prototype match gave up.

    ``arity_overrun`` means the type could not reveal an arrow the
    prototype demanded; otherwise the exact part of the prototype
    disagreed with the residual type.
    """

    ty: TypeExpr
    proto: Prototype
    arity_overrun: bool


def match_first_order(
    metas: frozenset[str] | set[str],
    pattern: TypeExpr,
    target: TypeExpr,
) -> Solution | None:
    """Solve ``pattern := target`` for the variables in ``metas``.

    Returns the unique solution, every binding tagged with the match
    ``Contextual(pattern, target)``, or None when none exists: a
    solvable variable matched against two non-alpha-equal types, a bound
    variable of the target escaping its scope, or any structural
    disagreement.  The walk is ``syntax.match_type``, the walk of
    ``alpha_equal`` with the solvable variables as holes.  Raises
    ``ValueError`` here if the target mentions a solvable variable, and
    in the walk when it enters a pattern quantifier that binds one.
    """
    if free_type_vars(target) & set(metas):
        raise ValueError("target type mentions solvable variables")
    found = match_type(metas, pattern, target)
    if found is None:
        return None
    tag = Contextual(pattern, target)
    return Solution({name: Binding(ty, tag) for name, ty in found.items()})


def _match(
    metas: frozenset[str],
    ty: TypeExpr,
    proto: Prototype,
    supply: NameSupply,
) -> MatchResult | MatchFailure:
    # One pass down the arrow and quantifier chain.  ``env`` renames each
    # peeled binder to its meta-variable (a later binder of the same name
    # overwrites an earlier one) and is applied only where a type is
    # used: to each domain, to the residual type at the leaf, and to a
    # type variable before the stuck test.  ``frames`` holds, outermost
    # first, a peeled meta-variable (str) or a renamed domain (a type).
    solvable = set(metas)
    env: dict[str, TypeExpr] = {}
    frames: list[str | TypeExpr] = []
    while True:
        kind = type(proto)
        if kind is Unknown:
            solution, deco = Solution(), Plain(substitute(env, ty))
            break
        if kind is Exact:
            residual = substitute(env, ty)
            found = match_first_order(solvable, residual, proto.ty)
            if found is None:
                return MatchFailure(residual, proto, arity_overrun=False)
            solution, deco = found, Plain(residual)
            break
        if kind is not ArrowTo:
            raise TypeError(proto)
        kind = type(ty)
        if kind is Arrow:
            frames.append(substitute(env, ty.dom))
            ty, proto = ty.cod, proto.rest
        elif kind is Forall:
            fresh = supply.fresh_meta(ty.bound)
            env[ty.bound] = TVar(fresh)
            solvable.add(fresh)
            frames.append(fresh)
            ty = ty.body
        elif kind is TVar and env.get(ty.name, ty).name in solvable:
            solution, deco = Solution(), Stuck(env.get(ty.name, ty).name, proto)
            break
        else:
            return MatchFailure(substitute(env, ty), proto, arity_overrun=True)

    for frame in reversed(frames):
        if type(frame) is str:
            binding = solution.binding(frame)
            deco = DForall(
                frame,
                binding.ty if binding else None,
                deco,
                deco_origin=binding.origin if binding else None,
            )
        else:
            deco = DArrow(frame, deco)
    if not solution.domain() <= metas:
        solution = Solution({m: b for m, b in solution.bindings.items() if m in metas})
    return MatchResult(solution, deco)


def match_proto(
    metas: frozenset[str] | set[str],
    ty: TypeExpr,
    proto: Prototype,
    supply: NameSupply | None = None,
) -> MatchResult | None:
    """Match a type against a prototype.

    On success the solution instantiates a subset of ``metas`` and the
    decorated type records, per leading quantifier, what the exact part
    of the prototype determined for it.  Each peeled quantifier becomes
    a solvable variable named by ``supply.fresh_meta``, a reserved
    ``?`` name; without a ``supply`` a fresh ``NameSupply`` mints them,
    so such a caller's own ``metas`` must not be reserved ``?`` names.
    The renaming from binders to those names is carried along the chain
    and applied only to the types the result holds.
    """
    out = _match(frozenset(metas), ty, proto, supply if supply is not None else NameSupply())
    return out if type(out) is MatchResult else None


def subst_decorated(
    mapping: Mapping[str, TypeExpr],
    w: DecoratedType,
    supply: NameSupply | None = None,
) -> DecoratedType | None:
    """Apply a substitution to a decorated type.

    A stuck decoration whose meta-variable is being solved is
    re-matched against its pending prototype; if the solved type cannot
    supply the demanded arrows the substitution is undefined and None
    is returned (a solution conflict for callers to report).  The
    re-match names the quantifiers it peels with ``supply``, or with a
    fresh ``NameSupply`` when none is given, as ``match_proto`` does.

    Precondition: no value of ``mapping`` mentions a meta-variable, and
    every ``DForall`` binder in ``w`` is one.  No binder can then
    capture a substituted type, so none is renamed.
    """
    if not mapping:
        return w
    kind = type(w)
    if kind is Plain:
        return Plain(substitute(mapping, w.ty))
    if kind is DArrow:
        cod = subst_decorated(mapping, w.cod, supply)
        if cod is None:
            return None
        return DArrow(substitute(mapping, w.dom), cod)
    if kind is DForall:
        x, org = w.bound, w.deco_origin
        inner = {k: v for k, v in mapping.items() if k != x}
        body = subst_decorated(inner, w.body, supply)
        if body is None:
            return None
        if org is not None and inner:
            org = Contextual(substitute(inner, org.partial), org.against)
        return DForall(x, w.deco, body, deco_origin=org)
    if kind is Stuck:
        if w.meta not in mapping:
            return w
        out = _match(frozenset(), mapping[w.meta], w.proto, supply if supply is not None else NameSupply())
        if type(out) is MatchFailure:
            return None
        return out.decorated
    raise TypeError(w)
