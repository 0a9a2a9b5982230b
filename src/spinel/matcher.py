"""First-order matching and prototype matching.

``match_first_order`` finds the unique substitution for a set of
solvable variables that makes a pattern type equal to a target type.
``match_proto`` aligns a type against a prototype, peeling quantifiers
into decorations and getting stuck (rather than failing) when a
meta-variable must reveal arrows it does not yet have.
``subst_decorated`` applies a substitution to a decorated type,
re-matching stuck decorations against their pending prototypes.  It
renames no binder: every ``DForall`` binder the engine builds is a
meta-variable minted by the run's supply, and no type it substitutes
mentions a meta-variable, so nothing can be captured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .syntax import (
    Arrow,
    ArrowTo,
    Binding,
    Con,
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
    _fresh_against,
    alpha_equal,
    free_type_vars,
    proto_free_vars,
    substitute,
)


@dataclass(frozen=True)
class MatchResult:
    solution: Solution
    decorated: DecoratedType


@dataclass(frozen=True)
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
    disagreement.  The target must not mention the solvable variables.
    """
    if free_type_vars(target) & set(metas):
        raise ValueError("target type mentions solvable variables")
    store: dict[str, TypeExpr] = {}

    def go(pat, tgt, envp: Mapping[str, int], envt: Mapping[str, int], depth: int) -> bool:
        match pat:
            case TVar(name=x):
                if x in envp:
                    return isinstance(tgt, TVar) and envt.get(tgt.name) == envp[x]
                if x in metas:
                    if any(v in envt for v in free_type_vars(tgt)):
                        return False  # solution would escape a binder
                    if x in store:
                        return alpha_equal(store[x], tgt)
                    store[x] = tgt
                    return True
                return (
                    isinstance(tgt, TVar) and tgt.name == x and tgt.name not in envt
                )
            case Arrow(dom=d, cod=c):
                return (
                    isinstance(tgt, Arrow)
                    and go(d, tgt.dom, envp, envt, depth)
                    and go(c, tgt.cod, envp, envt, depth)
                )
            case Forall(bound=x, body=b):
                if x in metas:
                    raise ValueError("solvable variable is bound inside the pattern")
                if not isinstance(tgt, Forall):
                    return False
                return go(
                    b,
                    tgt.body,
                    {**envp, x: depth},
                    {**envt, tgt.bound: depth},
                    depth + 1,
                )
            case Con(con=c, args=args):
                return (
                    isinstance(tgt, Con)
                    and tgt.con == c
                    and len(tgt.args) == len(args)
                    and all(
                        go(p, q, envp, envt, depth) for p, q in zip(args, tgt.args)
                    )
                )
        raise TypeError(pat)

    if not go(pattern, target, {}, {}, 0):
        return None
    tag = Contextual(pattern, target)
    return Solution({name: Binding(ty, tag) for name, ty in store.items()})


def _match(
    metas: frozenset[str],
    ty: TypeExpr,
    proto: Prototype,
    supply: NameSupply | None,
) -> MatchResult | MatchFailure:
    match proto:
        case Unknown():
            return MatchResult(Solution(), Plain(ty))
        case Exact(ty=tgt):
            sol = match_first_order(metas, ty, tgt)
            if sol is None:
                return MatchFailure(ty, proto, arity_overrun=False)
            return MatchResult(sol, Plain(ty))
        case ArrowTo():
            pass
        case _:
            raise TypeError(proto)

    match ty:
        case Arrow(dom=d, cod=c):
            out = _match(metas, c, proto.rest, supply)
            if isinstance(out, MatchFailure):
                return out
            return MatchResult(out.solution, DArrow(d, out.decorated))
        case Forall(bound=x, body=b):
            if supply is not None:
                fresh = supply.fresh_meta(x)
            else:
                fresh = _fresh_against(
                    x, set(metas) | free_type_vars(b) | proto_free_vars(proto)
                )
            if fresh != x:
                b = substitute({x: TVar(fresh)}, b)
            out = _match(metas | {fresh}, b, proto, supply)
            if isinstance(out, MatchFailure):
                return out
            binding = out.solution.binding(fresh)
            deco = binding.ty if binding else None
            origin = binding.origin if binding else None
            return MatchResult(
                out.solution.without(fresh),
                DForall(fresh, deco, out.decorated, deco_origin=origin),
            )
        case TVar(name=x) if x in metas:
            return MatchResult(Solution(), Stuck(x, proto))
        case _:
            return MatchFailure(ty, proto, arity_overrun=True)


def match_proto(
    metas: frozenset[str] | set[str],
    ty: TypeExpr,
    proto: Prototype,
    supply: NameSupply | None = None,
) -> MatchResult | None:
    """Match a type against a prototype.

    On success the solution instantiates a subset of ``metas`` and the
    decorated type records, per leading quantifier, what the exact part
    of the prototype determined for it.  Quantifier binders are
    freshened (via ``supply`` when given) before becoming solvable.
    """
    out = _match(frozenset(metas), ty, proto, supply)
    return out if isinstance(out, MatchResult) else None


def subst_decorated(
    mapping: Mapping[str, TypeExpr],
    w: DecoratedType,
    supply: NameSupply | None = None,
) -> DecoratedType | None:
    """Apply a substitution to a decorated type.

    A stuck decoration whose meta-variable is being solved is
    re-matched against its pending prototype; if the solved type cannot
    supply the demanded arrows the substitution is undefined and None
    is returned (a solution conflict for callers to report).

    Precondition: no value of ``mapping`` mentions a meta-variable, and
    every ``DForall`` binder in ``w`` is one.  No binder can then
    capture a substituted type, so none is renamed.
    """
    if not mapping:
        return w
    match w:
        case Plain(ty=t):
            return Plain(substitute(mapping, t))
        case DArrow(dom=d, cod=c):
            cod = subst_decorated(mapping, c, supply)
            if cod is None:
                return None
            return DArrow(substitute(mapping, d), cod)
        case DForall(bound=x, deco=r, body=b, deco_origin=org):
            inner = {k: v for k, v in mapping.items() if k != x}
            body = subst_decorated(inner, b, supply)
            if body is None:
                return None
            if org is not None and inner:
                org = Contextual(substitute(inner, org.partial), org.against)
            return DForall(x, r, body, deco_origin=org)
        case Stuck(meta=m, proto=p):
            if m not in mapping:
                return w
            out = _match(frozenset(), mapping[m], p, supply)
            if isinstance(out, MatchFailure):
                return None
            return out.decorated
    raise TypeError(w)
