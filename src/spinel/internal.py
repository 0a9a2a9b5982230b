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
    TyVarDecl,
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
        case Lam() | TLam():
            # One loop per binder chain, and one checked extension, which
            # walks each annotation once.
            binds: list[TyVarDecl | TermBind] = []
            while True:
                match term:
                    case TLam(bound=x):
                        binds.append(TyVarDecl(x))
                    case Lam(bound=x, ann=None):
                        raise InternalTypeError(f"binder {x!r} lacks an annotation")
                    case Lam(bound=x, ann=ann):
                        binds.append(TermBind(x, ann))
                    case _:
                        break
                term = term.body
            try:
                ctx = ctx._extend(binds)
            except ValueError as err:
                raise InternalTypeError(str(err)) from None
            ty = check_internal(ctx, term)
            for bind in reversed(binds):
                ty = Arrow(bind.ty, ty) if type(bind) is TermBind else Forall(bind.name, ty)
            return ty
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
