"""Bidirectional type inference with spine-local meta-variables.

Maximal term applications are processed as whole spines, a head followed
by term and type arguments, in one loop with two passes.  The first
pass walks the items from the outermost inwards, wrapping the contextual
prototype (or the unknown one, when synthesizing) in one pending arrow
per term argument.  The head's synthesized type is matched against that
prototype, which mints one meta-variable per quantifier it peels.  The
second pass consumes the items from the innermost outwards: quantifiers
peel off with their binder as the meta-variable, solved contextually
when the match decorated it, and each argument either checks against a
known domain or synthesizes and instantiates the metas the domain still
mentions.
The match hands over its arrows and quantifiers as one list of links,
which the second pass reads in order, the leaf that ends them, and the
decorations its solution found for the quantifiers.  Solutions found
along the spine are not substituted into the rest of it.  The synthetic
instantiations and the explicit type arguments wait in one pending map,
applied to each domain and each peeled quantifier's origin as it is
read, and to the leaf at the end.
When a solution reaches a stuck leaf, that leaf alone is re-matched, at
the argument that solved it, and the links it reveals join the list.
The contextual solutions grow one map in place, and each domain receives
only those of the metas it mentions.  The pending map reaches the
partial elaboration in one substitution once the spine is done.
Chains of lambdas and type lambdas, and chains of type applications
outside a spine, are likewise walked in one loop each, with one
accumulated renaming or instantiation applied where a type is used.
Meta-variables never leave the spine that minted them: synthesis
demands an empty solution, and checking demands that the contextual
type solved every meta the partial elaboration mentions.
Terms, modes, prototypes and match leaves are never subclassed, so
the engine dispatches on ``type(x) is X``, as the walks of ``syntax``
do, and its records are ``syntax._node``s, cheap to build at every node.
An elaboration shares every node of its term beneath which inference
changes nothing, so an elaboration equal to its term is that term.
A raised ``Diagnostic`` is plain data: its traceback starts at the
entry, ``infer`` or ``spine_infer``, and pins none of the engine's
frames, runs or name supplies; an ``EngineInvariantError`` keeps them.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .matcher import MatchFailure, _match
from .syntax import (
    App,
    Arrow,
    ArrowTo,
    Binding,
    Context,
    Contextual,
    Exact,
    Forall,
    Lam,
    NameSupply,
    Prototype,
    Solution,
    Span,
    Stuck,
    Synthetic,
    TApp,
    TLam,
    TVar,
    Term,
    TypeExpr,
    Unknown,
    Var,
    _METADATA,
    _fresh_against,
    _node,
    _well_formed,
    alpha_equal,
    free_type_vars,
    is_meta_name,
    is_well_formed,
    match_type,
    meta_vars_of_term,
    meta_vars_of_type,
    strip,
    subst_type_args,
    substitute,
)

# ------------------------------------------------------------------ modes


@_node
class Synthesize:
    """Infer a type with no contextual information."""


@_node
class Check:
    """Check against a known, well-formed contextual type."""

    expected: TypeExpr


_Expected = TypeExpr | None  # below ``infer``, a checked term's type; None synthesizes
_UNKNOWN = Unknown()  # the prototype every synthesized spine meets


@_node
class SpineOutcome:
    """A spine's type (``deco``), partial elaboration and solution."""

    deco: TypeExpr
    partial: Term
    solution: Solution


@_node
class InferOutcome:
    """A term's type and elaboration.  ``spine`` is the outcome of the
    term's own application spine, kept for a declarative replay: set
    exactly when the term is an application, and never compared."""

    ty: TypeExpr
    elaboration: Term
    spine: SpineOutcome | None = _METADATA


# ------------------------------------------------------------ diagnostics


class DiagnosticKind(Enum):
    UNANNOTATED_LAMBDA = "unannotated-lambda"
    UNSOLVED_META_VARIABLES = "unsolved-meta-variables"
    APPLICAND_NOT_ARROW = "applicand-not-arrow"
    APPLICAND_NOT_FORALL = "applicand-not-forall"
    TYPE_MISMATCH = "type-mismatch"
    SOLUTION_CONFLICT = "solution-conflict"
    EXPLICIT_ARG_CONFLICT = "explicit-arg-conflict"
    UNBOUND_NAME = "unbound-name"


class Diagnostic(Exception):
    """A user-facing inference failure.

    ``expected`` may mention meta-variables; ``bindings`` holds the type
    the diagnostic's match fixed for each of them it solved, and
    ``resolved`` the expected type with those applied.  The match itself
    is the engine's record of it: ``contextual_match`` or
    ``synthetic_match``.  ``unsolved`` holds the metas an
    unsolved-meta-variables diagnostic leaves open in the elaboration,
    whether or not its synthesized type mentions them.  ``display`` maps
    reserved meta-variable names to their source-keyed rendering; it is
    filled in once, as the diagnostic leaves ``infer`` or ``spine_infer``.
    An instance stores only the fields it is given; any other reads its
    class default: None, an empty frozenset or an empty read-only mapping.

    A raised diagnostic is plain data: its traceback starts at the entry
    that raised it, ``infer`` or ``spine_infer``, and pins no engine state.
    """

    expected: TypeExpr | None = None
    resolved: TypeExpr | None = None
    bindings: Mapping[str, TypeExpr] = MappingProxyType({})
    synthesized: TypeExpr | None = None
    contextual_match: Contextual | None = None
    synthetic_match: Synthetic | None = None
    unsolved: frozenset[str] = frozenset()
    display: Mapping[str, str] = MappingProxyType({})
    subject: Term | None = None
    detail: str | None = None

    _FIELDS = frozenset(__annotations__)

    def __init__(self, kind: DiagnosticKind, **fields):
        if not self._FIELDS.issuperset(fields):
            raise TypeError(f"not a diagnostic field: {', '.join(sorted(fields.keys() - self._FIELDS))}")
        super().__init__(kind._value_)  # the member's own attribute, not the ``value`` descriptor
        self.kind = kind
        vars(self).update(fields)

    @property
    def span(self) -> Span | None:
        """Where the diagnostic points: its subject's span."""
        return None if self.subject is None else self.subject.span


class EngineInvariantError(Exception):
    """An internal consistency check failed; this is an engine bug."""


# ------------------------------------------------------------- run state


class _Run:
    """One call's trace, and its name supply, made when a spine first reads it."""

    def __init__(self, trace: list[str] | None = None):
        self.trace = trace

    @cached_property
    def supply(self) -> NameSupply:
        return NameSupply()

    def note(self, rule: str) -> None:
        if self.trace is not None:
            self.trace.append(rule)


def _named(run: _Run, step, *args):
    """Run ``step``; a diagnostic that leaves it gets its display names here.
    Only the run's supply mints metas, and ``_try_synthesize`` returns no
    type that holds one, so a run that made no supply has none to name.
    The diagnostic leaves without ``step``'s frames, and this frame, the
    last its traceback holds, keeps neither the run nor the arguments."""
    try:
        return step(run, *args)
    except Diagnostic as d:
        if "supply" in vars(run):
            metas = set(d.unsolved)
            for ty in (
                d.expected,
                d.resolved,
                d.synthesized,
                d.contextual_match.partial if d.contextual_match else None,
                d.synthetic_match.partial if d.synthetic_match else None,
            ):
                if ty is not None:
                    metas |= {v for v in free_type_vars(ty) if is_meta_name(v)}
            if metas:
                d.display = run.supply.display_names(metas)
        del run, args
        raise d.with_traceback(None)


# ---------------------------------------------------------- entry points


def infer(
    ctx: Context, mode: Synthesize | Check, term: Term, trace: list[str] | None = None
) -> InferOutcome:
    """Infer or check a term, elaborating it to a fully annotated one.

    Raises Diagnostic on user-level failure and EngineInvariantError if
    an internal consistency check trips.  Raises ValueError, a caller's
    error, if a ``Check`` type is not well-formed in ``ctx``, or if a
    binder of ``term`` reuses a name of ``ctx`` or of an enclosing binder
    or gives a type variable a reserved ``?`` name; a parsed term has no
    such binder.  The mode is read only here.
    """
    expected = mode.expected if type(mode) is Check else None
    if expected is None and type(mode) is not Synthesize:
        raise TypeError(mode)
    if expected is not None and not is_well_formed(ctx, expected):
        raise ValueError("contextual type is not well-formed")
    return InferOutcome(*_named(_Run(trace), _infer, ctx, expected, term))


def spine_infer(ctx: Context, proto: Prototype, term: Term) -> SpineOutcome:
    """Run the spine judgment directly (mainly for tests and audits).

    Raises ValueError unless ``term`` is an application and ``proto`` is
    ``Unknown`` or ``Exact``.
    """
    if type(term) is not App:
        raise ValueError("only term applications have spine derivations")
    if type(proto) is not Unknown and type(proto) is not Exact:
        raise ValueError("a spine is matched against an unknown or exact prototype")
    return _named(_Run(), _spine, ctx, proto, term)


# ------------------------------------------------------------- inference

_Outcome = tuple[TypeExpr, Term, SpineOutcome | None]  # below ``infer``, an ``InferOutcome``'s fields


def _infer(run: _Run, ctx: Context, expected: _Expected, term: Term) -> _Outcome:
    kind = type(term)
    if kind is Var:
        run.note("var")
        ty = ctx.lookup(term.name)
        if ty is None:
            raise Diagnostic(
                DiagnosticKind.UNBOUND_NAME,
                subject=term,
                detail=f"unbound name {term.name!r}",
            )
        return _conclude(expected, term, ty, term)
    if kind is App:
        if expected is None:
            return _app_synthesize(run, ctx, term)
        return _app_check(run, ctx, term, expected)
    if kind is Lam or kind is TLam:
        return _binder_chain(run, ctx, expected, term)
    if kind is TApp:
        return _type_applications(run, ctx, expected, term)
    raise TypeError(term)


def _binder_chain(run: _Run, ctx: Context, expected: _Expected, term: Lam | TLam) -> _Outcome:
    """Check or synthesize a maximal chain of lambdas and type lambdas in one loop.

    In check mode the expected quantifier and arrow chain is walked
    unsubstituted.  ``renaming`` maps each expected quantifier's binder
    to its type lambda's variable, or drops the name where the two agree
    (a later binder of the same name overrides an earlier one), and is
    applied only where a type is used: to a domain, to a mismatched
    expected type, and once to the expected type of the chain's body.
    Annotations are walked once, against ``ctx`` plus ``tvs``, one set of
    the chain's type variables that no link copies; a bare lambda's
    domain, the expected one under the renaming, is well-formed by
    construction.  The whole chain enters the context in one extension,
    which checks only its names, before its body is inferred; a
    diagnostic builds its link's context the same way.
    """
    renaming: dict[str, TypeExpr] = {}
    tvs: set[str] = set()
    layers: list[Lam | TLam] = []
    names, doms = [], []  # each layer's binder and a lambda's domain, None for a type lambda
    declared, signature = ctx._scope, ctx.signature
    while (kind := type(term)) is TLam or kind is Lam:
        x = term.bound
        if kind is TLam:
            run.note("tylam")
            tvs.add(x)
            dom, fits = None, type(expected) is Forall
        elif term.ann is None:
            if expected is None:
                raise Diagnostic(
                    DiagnosticKind.UNANNOTATED_LAMBDA,
                    subject=term,
                    detail=f"no contextual type here, so binder {x!r} needs an annotation",
                )
            if type(expected) is not Arrow:
                raise Diagnostic(
                    DiagnosticKind.TYPE_MISMATCH,
                    expected=substitute(renaming, expected),
                    subject=term,
                    detail="an unannotated function only checks against an arrow type",
                )
            run.note("lam-bare")
            dom, fits = substitute(renaming, expected.dom), True
        else:
            dom = term.ann
            run.note("lam")
            if not _well_formed(declared, signature, dom, tvs):
                prefix = ctx._extend(names, doms, False)  # raises first if a name is at fault
                raise Diagnostic(
                    DiagnosticKind.UNBOUND_NAME,
                    subject=term,
                    detail=_illformed_detail(prefix, dom, f"annotation on {x!r}"),
                )
            fits = type(expected) is Arrow and alpha_equal(substitute(renaming, expected.dom), dom)
        if expected is not None:
            if not fits:
                raise Diagnostic(
                    DiagnosticKind.TYPE_MISMATCH,
                    expected=substitute(renaming, expected),
                    synthesized=_try_synthesize(ctx._extend(names, doms, False), term),
                    subject=term,
                )
            if kind is TLam:
                if expected.bound == x:
                    renaming.pop(x, None)
                else:
                    renaming[expected.bound] = TVar(x)
                expected = expected.body
            else:
                expected = expected.cod
        layers.append(term)
        names.append(x)
        doms.append(dom)
        term = term.body

    if expected is not None:
        expected = substitute(renaming, expected)
    ty, elab, _ = _infer(run, ctx._extend(names, doms, False), expected, term)
    for layer, dom in zip(reversed(layers), reversed(doms)):
        if dom is None:
            ty = Forall(layer.bound, ty)
            elab = layer if elab is layer.body else TLam(layer.bound, elab, layer._span)
        else:
            ty, same = Arrow(dom, ty), elab is layer.body and dom is layer.ann
            elab = layer if same else Lam(layer.bound, dom, elab, layer._span)
    return ty, elab, None


def _type_applications(run: _Run, ctx: Context, expected: _Expected, term: TApp) -> _Outcome:
    """Infer a maximal chain of type applications outside a spine.

    The applicand's quantifiers are walked unsubstituted; ``inst`` maps
    each one's binder to its type argument and is applied once to the
    result, or early where the walk must see through a variable it binds
    to the quantifier that variable stands for.
    """
    outer = term
    chain: list[TApp] = []
    while type(term) is TApp:
        run.note("tyapp")
        _check_type_arg(ctx, term)
        chain.append(term)
        term = term.fun
    ty, elab, _ = _infer(run, ctx, None, term)
    inst: dict[str, TypeExpr] = {}
    for app in reversed(chain):
        if type(ty) is not Forall:
            ty, inst = substitute(inst, ty), {}
            if type(ty) is not Forall:
                raise Diagnostic(
                    DiagnosticKind.APPLICAND_NOT_FORALL,
                    synthesized=ty,
                    subject=app,
                )
        inst[ty.bound] = app.targ
        ty = ty.body
        elab = app if elab is app.fun else TApp(elab, app.targ, app._span)
    return _conclude(expected, outer, substitute(inst, ty), elab)


def _conclude(expected: _Expected, term: Term, ty: TypeExpr, elab: Term) -> _Outcome:
    if expected is not None and not alpha_equal(ty, expected):
        raise Diagnostic(
            DiagnosticKind.TYPE_MISMATCH,
            expected=expected,
            synthesized=ty,
            subject=term,
        )
    return ty, elab, None


def _try_synthesize(ctx: Context, term: Term) -> TypeExpr | None:
    try:
        return _infer(_Run(), ctx, None, term)[0]
    except Diagnostic:
        return None


def _check_type_arg(ctx: Context, term: TApp) -> None:
    if not is_well_formed(ctx, term.targ):
        raise Diagnostic(
            DiagnosticKind.UNBOUND_NAME,
            subject=term,
            detail=_illformed_detail(ctx, term.targ, "type argument"),
        )


def _illformed_detail(ctx: Context, ty: TypeExpr, what: str) -> str:
    loose = sorted(meta_vars_of_type(ctx, ty))
    if loose:
        return f"{what} mentions unbound type variable {loose[0]!r}"
    return f"{what} uses a constructor at the wrong arity"


# --------------------------------------------- maximal application spines


def _app_synthesize(run: _Run, ctx: Context, term: App) -> _Outcome:
    run.note("app-synth")
    out = _spine(run, ctx, _UNKNOWN, term)
    ty = out.deco
    unsolved = meta_vars_of_term(ctx, out.partial)
    if __debug__ and not meta_vars_of_type(ctx, ty) <= unsolved:
        raise EngineInvariantError("spine type mentions metas the elaboration lost")
    if out.solution:
        raise EngineInvariantError("synthesis produced contextual bindings")
    if unsolved:
        raise Diagnostic(
            DiagnosticKind.UNSOLVED_META_VARIABLES,
            synthesized=ty,
            unsolved=unsolved,
            subject=term,
        )
    return ty, out.partial, out


def _app_check(run: _Run, ctx: Context, term: App, expected: TypeExpr) -> _Outcome:
    run.note("app-check")
    out = _spine(run, ctx, Exact(expected), term)
    mv_partial = meta_vars_of_term(ctx, out.partial)
    solved = out.solution.types()
    final = substitute(solved, out.deco)
    if mv_partial != solved.keys():
        raise Diagnostic(
            DiagnosticKind.UNSOLVED_META_VARIABLES,
            expected=expected,
            synthesized=final,
            unsolved=mv_partial.difference(out.solution),
            subject=term,
        )
    if not alpha_equal(final, expected):
        raise EngineInvariantError("checked spine type does not restore the contextual type")
    elab = subst_type_args(solved, out.partial)
    if __debug__ and meta_vars_of_term(ctx, elab):
        raise EngineInvariantError("checked elaboration still mentions meta-variables")
    return expected, elab, out


def _spine(run: _Run, ctx: Context, proto: Unknown | Exact, term: App) -> SpineOutcome:
    """Infer a maximal application spine: its head, then its items in order.
    The outermost item is a term argument, so every item and the head
    meet an arrow prototype."""
    # First pass, outermost item first: build the prototype the head meets.
    items: list[App | TApp] = []
    while (kind := type(term)) is App or kind is TApp:
        if kind is App:
            run.note("spine-arg")
            proto = ArrowTo(proto)
        else:
            run.note("spine-tyarg")
            _check_type_arg(ctx, term)
        items.append(term)
        term = term.fun

    run.note("spine-head")
    head_ty, partial, _ = _infer(run, ctx, None, term)
    matched = _match(frozenset(), head_ty, proto, run.supply)
    if type(matched) is MatchFailure:
        raise _head_failure(term, head_ty, matched)

    # Second pass, innermost item first.  Each quantifier link is the
    # meta-variable: the matcher minted it fresh for this run.
    rest = _Remaining(*matched, run.supply)
    contextual = Solution()
    arg_index = 0
    for item in reversed(items):
        if type(item) is TApp:
            _take_type_arg(rest, contextual, item)
            partial = item if partial is item.fun else TApp(partial, item.targ, item._span)
            continue
        arg_index += 1
        while type(link := rest.next()) is str:
            run.note("peel")
            rest.at += 1
            partial = TApp(partial, TVar(link))
            binding = rest.decos.get(link)
            if binding is not None:
                contextual[link] = Binding(binding.ty, rest.origin(binding.origin))
        if link is None:
            raise Diagnostic(
                DiagnosticKind.APPLICAND_NOT_ARROW,
                synthesized=rest.shown(contextual),
                subject=item.arg,
            )
        elab = _consume_arrow(run, ctx, rest, contextual, item.arg, arg_index)
        partial = item if partial is item.fun and elab is item.arg else App(partial, elab, item._span)
    if rest.next() is not None or type(rest.leaf) is Stuck:
        raise EngineInvariantError("a spine ended before its decorated type")
    return SpineOutcome(rest.apply(rest.leaf), subst_type_args(rest.pending, partial), contextual)


class _Remaining:
    """The rest of a spine's head type, under a delayed substitution.

    ``links`` holds the links the matcher handed over, outermost first:
    a quantifier as its meta-variable (a ``str``), an arrow as its
    domain (a type).  ``leaf`` ends them: the residual type itself, or
    the ``Stuck`` meta-variable that must still reveal arrows.  ``at`` is
    the next link the spine reads.  ``decos`` holds the matches'
    solutions, the contextual decoration of each quantifier they solved,
    by meta-variable.  ``pending`` is the spine's one map of solutions
    found along it: the synthetic instantiations and the explicit type
    arguments.  ``apply`` brings a domain or an origin up to date as the
    spine reads it, so nothing is substituted twice.  When a solution
    reaches the stuck leaf's meta-variable, ``solve`` re-matches that
    leaf alone, its solved type against its pending prototype, and
    appends the links and decorations that match reveals, so a conflict
    is reported at the argument that solved it.  Every pending value is
    well-formed in the spine's context, so none mentions a meta-variable
    and no link's binder can capture one.  ``shown`` is the unread type
    as a diagnostic prints it.
    """

    def __init__(
        self, links: list[str | TypeExpr], leaf: TypeExpr | Stuck, decos: Solution, supply: NameSupply
    ):
        self.links = links
        self.at = 0
        self.leaf = leaf
        self.decos = decos
        self.supply = supply
        self.pending: dict[str, TypeExpr] = {}

    def next(self) -> str | TypeExpr | None:
        """The next unread link, or None once every link is read."""
        return self.links[self.at] if self.at < len(self.links) else None

    def apply(self, ty: TypeExpr) -> TypeExpr:
        return substitute(self.pending, ty)

    def origin(self, org: Contextual | None) -> Contextual | None:
        if org is None or not self.pending:
            return org
        return Contextual(self.apply(org.partial), org.against)

    def solve(self, solved: dict[str, TypeExpr]) -> bool:
        """Delay ``solved``; False if it solves the stuck leaf's
        meta-variable with a type that cannot reveal the arrows it owes."""
        self.pending.update(solved)
        if type(self.leaf) is not Stuck or self.leaf.meta not in solved:
            return True
        out = _match(frozenset(), self.pending[self.leaf.meta], self.leaf.proto, self.supply)
        if type(out) is MatchFailure:
            return False
        links, self.leaf, decos = out
        self.links += links
        self.decos.update(decos)
        return True

    def shown(self, contextual: dict[str, Binding]) -> TypeExpr:
        """The unread type with ``pending`` and the ``contextual`` solutions applied.

        Each quantifier the spine has not reached is named after its
        source binder again, primed only where that name is free below
        the quantifier.  The links are rebuilt by a loop, so an unread
        type of any length is shown at any recursion limit.
        """
        types = {m: b.ty for m, b in contextual.items()}
        ty = substitute(types, self.apply(strip(self.leaf)))
        for link in reversed(self.links[self.at :]):
            if type(link) is str:
                x = _fresh_against(self.supply.source_of(link), free_type_vars(ty))
                ty = Forall(x, substitute({link: TVar(x)}, ty))
            else:
                ty = Arrow(substitute(types, self.apply(link)), ty)
        return ty


def _head_failure(head: Term, head_ty: TypeExpr, failure: MatchFailure) -> Diagnostic:
    if failure.arity_overrun:
        return Diagnostic(
            DiagnosticKind.APPLICAND_NOT_ARROW,
            synthesized=head_ty,
            subject=head,
        )
    against = failure.proto.ty if type(failure.proto) is Exact else None
    return Diagnostic(
        DiagnosticKind.TYPE_MISMATCH,
        expected=against,
        synthesized=failure.ty,
        contextual_match=Contextual(failure.ty, against) if against is not None else None,
        subject=head,
    )


def _take_type_arg(rest: _Remaining, contextual: dict[str, Binding], term: TApp) -> None:
    s = term.targ
    meta = rest.next()
    if type(meta) is not str:
        raise Diagnostic(
            DiagnosticKind.APPLICAND_NOT_FORALL,
            synthesized=rest.shown(contextual),
            subject=term,
        )
    binding = rest.decos.get(meta)
    if binding is not None and not alpha_equal(binding.ty, s):
        raise Diagnostic(
            DiagnosticKind.EXPLICIT_ARG_CONFLICT,
            expected=binding.ty,
            synthesized=s,
            contextual_match=rest.origin(binding.origin),
            subject=term,
        )
    rest.at += 1
    if not rest.solve({meta: s}):
        raise Diagnostic(
            DiagnosticKind.SOLUTION_CONFLICT,
            synthesized=s,
            subject=term,
            detail="explicit type argument cannot reveal the arrows this spine needs",
        )


def _consume_arrow(
    run: _Run,
    ctx: Context,
    rest: _Remaining,
    contextual: dict[str, Binding],
    arg: Term,
    arg_index: int,
) -> Term:
    """Check or synthesize one argument against the next domain; return its elaboration.

    The domain receives the pending map of ``rest`` as it is read, then
    the contextual solutions of the metas it mentions.  A synthesized
    argument's instantiation joins the pending map, which re-matches the
    stuck leaf at once if the instantiation solves it and reaches the
    partial elaboration when the spine is done.
    """
    dom = rest.apply(rest.next())
    rest.at += 1
    fixed = {v: contextual[v] for v in free_type_vars(dom) if v in contextual} if contextual else {}
    expected = substitute({v: b.ty for v, b in fixed.items()}, dom)
    unsolved = meta_vars_of_type(ctx, expected)
    if not unsolved:
        run.note("arg-check")
        try:
            return _infer(run, ctx, expected, arg)[1]
        except Diagnostic as d:
            _attach_solution_origin(d, dom, expected, fixed, arg)
            raise

    run.note("arg-synth")
    try:
        ty, elab, _ = _infer(run, ctx, None, arg)
    except Diagnostic as d:
        if d.subject is arg and d.expected is None:
            d.expected = expected
        raise
    found = match_type(unsolved, expected, ty)
    if found is None:
        raise Diagnostic(
            DiagnosticKind.TYPE_MISMATCH,
            expected=expected,
            synthesized=ty,
            synthetic_match=Synthetic(expected, ty, arg_index),
            subject=arg,
        )
    if not rest.solve(found):
        raise Diagnostic(
            DiagnosticKind.SOLUTION_CONFLICT,
            expected=expected,
            bindings=found,
            synthesized=ty,
            synthetic_match=Synthetic(expected, ty, arg_index),
            subject=arg,
            detail="the synthesized instantiation cannot reveal the arrows this spine needs",
        )
    return elab


def _attach_solution_origin(
    d: Diagnostic,
    dom: TypeExpr,
    expected: TypeExpr,
    fixed: dict[str, Binding],
    arg: Term,
) -> None:
    """Point a failed argument check back at the match that fixed its domain.

    ``fixed`` holds the contextual solutions of the metas the domain
    mentions.  They were all found by one contextual match, so any one of
    their origins names it.
    """
    if d.subject is not arg or not fixed:
        return
    d.expected = dom
    d.resolved = expected
    d.bindings = {v: b.ty for v, b in fixed.items()}
    if d.contextual_match is None:
        d.contextual_match = next(iter(fixed.values())).origin
