"""Standard System F type checker for fully annotated terms.

This is the ground truth the inference engine is audited against.  It
never consults prototypes, decorations, or solutions, and it must stay
independent of the inference modules.  Terms and types are never
subclassed, so it dispatches on ``type(node) is X``, as ``syntax`` does.
"""

from __future__ import annotations

from .syntax import (
    App,
    Arrow,
    Context,
    Forall,
    Lam,
    TApp,
    TLam,
    Term,
    TVar,
    TypeExpr,
    Var,
    alpha_equal,
    is_well_formed,
    substitute,
)


class InternalTypeError(Exception):
    """A fully annotated term failed to type check."""


def check_internal(ctx: Context, term: Term) -> TypeExpr:
    """Synthesize the type of an internal term, or raise InternalTypeError."""
    kind = type(term)
    if kind is Var:
        ty = ctx.lookup(term.name)
        if ty is None:
            raise InternalTypeError(f"unbound variable {term.name!r}")
        return ty
    if kind is Lam or kind is TLam:
        # One loop per binder chain, and one checked extension, which
        # walks each annotation once.
        names, doms = [], []  # each binder and its annotation, None for a type lambda
        while (kind := type(term)) is TLam or kind is Lam:
            if kind is Lam and term.ann is None:
                raise InternalTypeError(f"binder {term.bound!r} lacks an annotation")
            names.append(term.bound)
            doms.append(term.ann if kind is Lam else None)
            term = term.body
        try:
            ctx = ctx._extend(names, doms)
        except ValueError as err:
            raise InternalTypeError(str(err)) from None
        ty = check_internal(ctx, term)
        for x, dom in zip(reversed(names), reversed(doms)):
            ty = Forall(x, ty) if dom is None else Arrow(dom, ty)
        return ty
    if kind is App or kind is TApp:
        # One loop per applicand chain.  Going down, each type argument
        # is checked, outermost first, as the recursive checker did.
        # Coming back up, the quantifiers the type arguments instantiate
        # are peeled into one pending instantiation, applied to each
        # domain met and, once, to the result.
        spine: list[App | TApp] = []
        while True:
            kind = type(term)
            if kind is TApp:
                if not is_well_formed(ctx, term.targ):
                    raise InternalTypeError("type argument is not well-formed")
            elif kind is not App:
                break
            spine.append(term)
            term = term.fun
        ty = check_internal(ctx, term)
        inst: dict[str, TypeExpr] = {}
        for node in reversed(spine):
            if inst and type(ty) is TVar and ty.name in inst:
                ty, inst = inst[ty.name], {}  # a type of the context, which inst never touches
            if type(node) is App:
                if type(ty) is not Arrow:
                    raise InternalTypeError("applicand is not a function")
                aty = check_internal(ctx, node.arg)
                if not alpha_equal(substitute(inst, ty.dom) if inst else ty.dom, aty):
                    raise InternalTypeError("argument type does not match the domain")
                ty = ty.cod
            else:
                if type(ty) is not Forall:
                    raise InternalTypeError("applicand is not a quantified type")
                inst[ty.bound] = node.targ  # a later binder of the same name shadows this one
                ty = ty.body
        return substitute(inst, ty) if inst else ty
    raise TypeError(term)
