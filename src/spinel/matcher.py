"""Prototype matching.

``_match`` aligns a type against a prototype in one pass down its arrow
and quantifier chain, peeling quantifiers into meta-variables and
getting stuck (rather than failing) when a meta-variable must reveal
arrows it does not yet have.  Each binder it peels is named by one
path, the ``NameSupply`` of the run (or a fresh one), and renamed by
one environment applied where a type is used, not substituted into the
rest of the chain one binder at a time.  At an exact prototype it
matches first-order: the unique substitution for the solvable
variables that makes the residual type equal to the prototype's, each
binding tagged with the contextual match that found it.  That walk is
``syntax.match_type``, the walk of ``syntax.alpha_equal`` with the
solvable variables as holes.
``_match`` returns the chain as the spine reads it: its links,
outermost first (a peeled meta-variable or a renamed domain), the
leaf that ends them (the residual type, or a ``Stuck`` meta-variable),
and the solution, which binds the caller's metas it solved and
decorates each peeled meta-variable it solved; or the ``MatchFailure``
that says where matching gave up.  The spine re-matches a stuck leaf
by one more ``_match`` against the leaf's pending prototype, and
appends the links it reveals.  ``match_proto``, the public entry, returns the same result.
Types and prototypes are never subclassed, so the walk dispatches on
``type(x) is X``, as ``syntax`` does; results are ``_node``s.
"""

from __future__ import annotations

from .syntax import (
    Arrow,
    ArrowTo,
    Binding,
    Contextual,
    Exact,
    Forall,
    NameSupply,
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
class MatchFailure:
    """Where a prototype match gave up.

    ``arity_overrun`` means the type could not reveal an arrow the
    prototype demanded; otherwise the exact part of the prototype
    disagreed with the residual type.
    """

    ty: TypeExpr
    proto: Prototype
    arity_overrun: bool


def _match(
    metas: frozenset[str],
    ty: TypeExpr,
    proto: Prototype,
    supply: NameSupply,
) -> tuple[list[str | TypeExpr], TypeExpr | Stuck, Solution] | MatchFailure:
    # One pass down the arrow and quantifier chain.  ``env`` renames each
    # peeled binder to its meta-variable (a later binder of the same name
    # overwrites an earlier one) and is applied only where a type is
    # used: to each domain, to the residual type at the leaf, and to a
    # type variable before the stuck test.  ``frames`` holds, outermost
    # first, a peeled meta-variable (str) or a renamed domain (a type).
    # The solution is not restricted to ``metas``: it also decorates the
    # metas peeled here.
    solvable = set(metas)
    env: dict[str, TypeExpr] = {}
    frames: list[str | TypeExpr] = []
    while True:
        kind = type(proto)
        if kind is Unknown:
            return frames, substitute(env, ty), Solution()
        if kind is Exact:
            # First-order matching of the residual type against the
            # prototype's.  Raises ``ValueError`` here if the target
            # mentions a solvable variable, and in the walk when it
            # enters a pattern quantifier that binds one.  The match fails
            # when a solvable variable meets two non-alpha-equal types, a
            # bound variable of the target would escape its scope, or the
            # structures disagree.
            residual, target = substitute(env, ty), proto.ty
            if free_type_vars(target) & solvable:
                raise ValueError("target type mentions solvable variables")
            found = match_type(solvable, residual, target)
            if found is None:
                return MatchFailure(residual, proto, arity_overrun=False)
            tag = Contextual(residual, target)
            return frames, residual, Solution({m: Binding(t, tag) for m, t in found.items()})
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
            return frames, Stuck(env.get(ty.name, ty).name, proto), Solution()
        else:
            return MatchFailure(substitute(env, ty), proto, arity_overrun=True)


def match_proto(
    metas: frozenset[str] | set[str], ty: TypeExpr, proto: Prototype
) -> tuple[list[str | TypeExpr], TypeExpr | Stuck, Solution] | MatchFailure:
    """Match a type against a prototype: ``_match``, with a fresh ``NameSupply``.

    Each peeled quantifier becomes a solvable variable named by the
    supply, a reserved ``?`` name, so ``metas`` must hold no reserved
    ``?`` name of its own.
    """
    return _match(metas, ty, proto, NameSupply())
