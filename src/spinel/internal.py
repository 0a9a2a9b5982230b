"""Standard System F type checker for fully annotated terms.

This is the ground truth the inference engine is audited against.  It
never consults prototypes, decorations, or solutions, and it must stay
independent of the inference modules.
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
    TermBind,
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
    match term:
        case Var(name=x):
            ty = ctx.lookup(x)
            if ty is None:
                raise InternalTypeError(f"unbound variable {x!r}")
            return ty
        case Lam(bound=x, ann=ann, body=body):
            if ann is None:
                raise InternalTypeError(f"binder {x!r} lacks an annotation")
            if not is_well_formed(ctx, ann):
                raise InternalTypeError(f"annotation on {x!r} is not well-formed")
            cod = check_internal(ctx._extend_unchecked(TermBind(x, ann)), body)
            return Arrow(ann, cod)
        case TLam(bound=x, body=body):
            inner = check_internal(ctx.with_type_var(x), body)
            return Forall(x, inner)
        case App(fun=f, arg=a):
            fty = check_internal(ctx, f)
            if not isinstance(fty, Arrow):
                raise InternalTypeError("applicand is not a function")
            aty = check_internal(ctx, a)
            if not alpha_equal(fty.dom, aty):
                raise InternalTypeError("argument type does not match the domain")
            return fty.cod
        case TApp(fun=f, targ=s):
            if not is_well_formed(ctx, s):
                raise InternalTypeError("type argument is not well-formed")
            fty = check_internal(ctx, f)
            if not isinstance(fty, Forall):
                raise InternalTypeError("applicand is not a quantified type")
            return substitute({fty.bound: s}, fty.body)
    raise TypeError(term)
