"""Core syntax for a System F elaborator with spine-local type inference.

Defines types, terms, typing contexts, prototypes (partially known
contextual types), the leaf that ends a prototype match (the residual
type itself, or a ``Stuck`` meta-variable), and solutions (dicts of
meta-variable instantiations tagged with the evidence that produced
them), plus the structural operations the rest of the package builds
on: free variables, well-formedness, alpha equality (as equality of
canonical keys) and first-order matching, capture-avoiding
substitution, and meta-variable accounting.

Every syntax node is an immutable class with slots, made by ``_node``:
a run builds them by the hundred thousand, so they are kept small and
their constructors cheap.  The engine's records are ``_node``s too.

The walks over types run under every layer, so they copy nothing per
node.  They dispatch on ``type(node) is X``, since nodes are never
subclassed, and follow arrow codomains and quantifier bodies by a loop.
A scope walk (free variables, well-formedness) keeps one mutable set of
open binders; alpha equality walks both types at once and stops at their
first difference, and first-order matching is that one walk with holes;
substitution returns, shared, every node beneath which it changes nothing.
So do the engine's elaborations, and ``subst_type_args`` on them.

Meta-variables are ordinary type variables drawn from a reserved
namespace (``?X0``, ``?X1``, ...) that the surface parser cannot
produce, so a type variable is a meta-variable exactly when it is not
declared in the ambient context.
"""

from __future__ import annotations

from operator import is_not
from typing import Container, Mapping, NamedTuple, Sequence, Union


# ---------------------------------------------------------------- spans


class Span(NamedTuple):
    """Source extent as 1-based (line, col) .. (end_line, end_col).

    A named tuple: immutable and hashable, its fields read by name.  A
    node keeps its span in a slot of its own, ``_span``, that takes no
    part in comparing, hashing or printing nodes.  The parser stores a
    plain tuple there, and the engine copies the slot into each node it
    rebuilds.  Reading ``span`` makes a new ``Span`` of a tuple: only a
    diagnostic reads one, so an accepted goal makes none.
    """

    line: int
    col: int
    end_line: int
    end_col: int


# ---------------------------------------------------------------- nodes


_METADATA = object()  # a field's default: None, kept but not compared, hashed or shown
_KEYS: dict[type, object] = {tuple: tuple}  # a node's compared fields (a tuple's items)
_SPAN = property(lambda node: tuple.__new__(Span, s) if type(s := node._span) is tuple else s)  # a node's span


class _Hash(int):  # a hash value, which ``hash`` gives back unchanged
    __slots__ = ()
    __hash__ = int.__int__


def _eq(a, b):
    """Equality of the compared fields, by a stack, left to right."""
    if type(b) is not type(a):
        return NotImplemented
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        key = _KEYS.get(type(x)) if type(y) is type(x) else None
        if x is y or key is None and x == y:
            continue
        if key is None or len(x := key(x)) != len(y := key(y)):
            return False
        pairs += zip(reversed(x), reversed(y))
    return True


def _hash(node):
    """``hash`` of the tuple of compared fields, children first, each node
    or tuple beneath standing in by its hash; walked by a stack."""
    order, todo, seen = [], [node], set()
    while todo:  # every node and tuple beneath, each before what it holds
        order.append(x := todo.pop())
        for v in _KEYS[type(x)](x):
            if type(v) in _KEYS and id(v) not in seen:
                seen.add(id(v))
                todo.append(v)
    done: dict[int, _Hash] = {}
    for x in reversed(order):
        h = hash(tuple([done.get(id(v), v) for v in _KEYS[type(x)](x)]))
        done[id(x)] = _Hash(h)
    return h


def _frozen(self, name, *value):
    from dataclasses import FrozenInstanceError  # loaded only to raise it
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _node(cls):
    """``cls`` rebuilt with a slot per annotated field, in order, its class
    attribute its default.  The constructor stores through each slot's
    descriptor (``Arrow.dom.__set__``), which ``object.__setattr__`` would
    look up by name; a ``span`` field's slot is ``_span``, read by ``_SPAN``.
    A ``_METADATA`` field takes no part in ``==``, ``hash`` or ``repr``;
    ``hash`` is that of the other fields' tuple.  Assigning or deleting
    any attribute raises ``FrozenInstanceError``."""
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    names = tuple(ns.get("__annotations__", ()))
    defaults = {n: ns.pop(n) for n in names if n in ns}
    cls = type(cls.__name__, cls.__bases__, {
        **ns, "__slots__": tuple("_span" if n == "span" else n for n in names), "__match_args__": names,
        "__qualname__": cls.__qualname__, "__eq__": _eq, "__hash__": _hash, "__setattr__": _frozen,
        "__delattr__": _frozen, **({"span": _SPAN} if "span" in names else {})})
    compared = [n for n in names if defaults.get(n) is not _METADATA]
    env = {f"set_{n}": getattr(cls, slot).__set__ for n, slot in zip(names, cls.__slots__)}
    env |= {f"default_{n}": None if d is _METADATA else d for n, d in defaults.items()}
    params = ", ".join(f"{n}=default_{n}" if n in defaults else n for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in compared)
    exec(
        f"def __init__(self, {params}):\n    "
        + ("\n    ".join(f"set_{n}(self, {n})" for n in names) or "pass")
        + f"\ndef __repr__(self):\n    return f'{cls.__qualname__}({shown})'"
        + f"\ndef key(self):\n    return ({''.join(f'self.{n}, ' for n in compared)})",
        env,
    )
    cls.__init__, cls.__repr__, _KEYS[cls] = env["__init__"], env["__repr__"], env["key"]
    return cls


# ---------------------------------------------------------------- types


@_node
class TVar:
    """Type variable reference (possibly a meta-variable)."""

    name: str
    span: Span | None = _METADATA


@_node
class Arrow:
    dom: TypeExpr
    cod: TypeExpr
    span: Span | None = _METADATA


@_node
class Forall:
    bound: str
    body: TypeExpr
    span: Span | None = _METADATA


@_node
class Con:
    """Saturated application of a declared type constructor."""

    con: str
    args: tuple[TypeExpr, ...] = ()
    span: Span | None = _METADATA


TypeExpr = Union[TVar, Arrow, Forall, Con]


# ---------------------------------------------------------------- terms


@_node
class Var:
    name: str
    span: Span | None = _METADATA


@_node
class Lam:
    """Term abstraction; ``ann`` is None for a bare (unannotated) binder."""

    bound: str
    ann: TypeExpr | None
    body: Term
    span: Span | None = _METADATA


@_node
class TLam:
    bound: str
    body: Term
    span: Span | None = _METADATA


@_node
class App:
    fun: Term
    arg: Term
    span: Span | None = _METADATA


@_node
class TApp:
    fun: Term
    targ: TypeExpr
    span: Span | None = _METADATA


Term = Union[Var, Lam, TLam, App, TApp]


def spine_parts(t: Term) -> tuple[Term, list[Term | TypeExpr]]:
    """Split an application spine into its head and argument list.

    Type arguments appear in the list as TypeExpr, term arguments as
    Term, both in application order (leftmost first).
    """
    items: list[Term | TypeExpr] = []
    while True:
        kind = type(t)
        if kind is App:
            items.append(t.arg)
        elif kind is TApp:
            items.append(t.targ)
        else:
            items.reverse()
            return t, items
        t = t.fun


# ------------------------------------------------------------- contexts


@_node
class TyVarDecl:
    name: str


@_node
class TermBind:
    name: str
    ty: TypeExpr


class Context:
    """Ordered typing context plus a constructor signature.

    Immutable: the ``with_*`` methods return extended copies.  Constructors,
    type variables and terms share one namespace: extension raises
    ValueError on a name already declared in either, on a type variable
    with a reserved ``?`` name, or on binding a term to an ill-formed type.

    Scope is ordered: a bound type may mention only the type variables
    declared before it.  A context is one insertion-ordered map from each
    declared name to its type, None for a type variable, and the
    signature; ``entries``, ``dtv`` and ``names`` are derived from the map
    on each read, and every other reader asks the map.  Every extension is
    one step, ``_extend``: ``with_*`` pass one name, the constructor its
    entries, and the engine a whole binder chain or a run of ``assume``s.
    It copies the map once per batch and checks only the new names, each
    type against the growing copy: whatever was well-formed in the prefix
    stays well-formed once a name or a constructor is added.
    """

    __slots__ = ("signature", "_scope")

    def __new__(
        cls,
        entries: Sequence[TyVarDecl | TermBind] = (),
        signature: Mapping[str, int] | None = None,
    ) -> Context:
        ctx = Context._of({}, dict(signature) if signature else {})
        return ctx._extend([e.name for e in entries], [e.ty if type(e) is TermBind else None for e in entries])

    @staticmethod
    def _of(scope: dict[str, TypeExpr | None], signature: dict[str, int]) -> Context:
        """The context of ``scope`` and ``signature``, taken as they are."""
        ctx = object.__new__(Context)
        ctx._scope, ctx.signature = scope, signature
        return ctx

    @classmethod
    def empty(cls, signature: Mapping[str, int] | None = None) -> Context:
        return cls((), signature)

    def _extend(self, names: Sequence[str], types: Sequence[TypeExpr | None], walk=True) -> Context:
        """This context plus each of ``names`` with its type in ``types``, None for a
        type variable, each checked against those before it; with ``walk``
        False the types are well-formed already and only the names are checked."""
        scope, signature = dict(self._scope), self.signature
        for name, ty in zip(names, types):
            if name in scope or name in signature:
                raise ValueError(f"duplicate declaration of {name!r}")
            if ty is None:
                if is_meta_name(name):
                    raise ValueError(f"type variable {name!r} has a reserved meta-variable name")
            elif walk and not _well_formed(scope, signature, ty, set()):
                raise ValueError(f"type bound to {name!r} is not well-formed")
            scope[name] = ty
        return Context._of(scope, signature)

    def with_type_var(self, name: str) -> Context:
        return self._extend((name,), (None,))

    def with_term(self, name: str, ty: TypeExpr) -> Context:
        return self._extend((name,), (ty,))

    def with_con(self, name: str, arity: int) -> Context:
        if name in self.signature or name in self._scope:
            raise ValueError(f"duplicate constructor {name!r}")
        return Context._of(self._scope, {**self.signature, name: arity})

    @property
    def entries(self) -> tuple[TyVarDecl | TermBind, ...]:
        return tuple([TyVarDecl(x) if t is None else TermBind(x, t) for x, t in self._scope.items()])

    def lookup(self, name: str) -> TypeExpr | None:
        return self._scope.get(name)

    @property
    def dtv(self) -> frozenset[str]:
        return frozenset([x for x, t in self._scope.items() if t is None])

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self._scope)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Context)
            and self.entries == other.entries
            and self.signature == other.signature
        )

    def __repr__(self) -> str:
        return f"Context({self.entries!r}, {self.signature!r})"


# ------------------------------------------------------------ prototypes


@_node
class Unknown:
    """No contextual information: the fully unknown prototype."""


@_node
class Exact:
    ty: TypeExpr


@_node
class ArrowTo:
    """An arrow with unknown domain whose codomain is ``rest``."""

    rest: Prototype


Prototype = Union[Unknown, Exact, ArrowTo]


# ------------------------------------------------------------ provenance


@_node
class Contextual:
    """Solved by matching ``partial`` against the contextual type ``against``."""

    partial: TypeExpr
    against: TypeExpr


@_node
class Synthetic:
    """Solved by matching ``partial`` against ``against``, the synthesized
    type of argument ``arg_index`` (1-based)."""

    partial: TypeExpr
    against: TypeExpr
    arg_index: int


@_node
class Binding:
    ty: TypeExpr
    origin: Contextual | Synthetic


class Solution(dict):
    """Finite map from meta-variable names to bindings: a ``dict``, which
    a spine grows in place and hands over as it is once it is done."""

    __slots__ = ()

    def types(self) -> dict[str, TypeExpr]:
        return {k: v.ty for k, v in self.items()}

    def equivalent(self, other: Solution) -> bool:
        """Same domain and alpha-equal solved types (provenance ignored)."""
        if self.keys() != other.keys():
            return False
        return all(alpha_equal(b.ty, other[k].ty) for k, b in self.items())


# ----------------------------------------------------------- match leaves


@_node
class Stuck:
    """A meta-variable that must later reveal the arrows ``proto`` demands."""

    meta: str
    proto: Prototype  # always of ArrowTo shape


def strip(w: TypeExpr | Stuck) -> TypeExpr:
    """Forget a match leaf's decoration: a stuck leaf's meta-variable, or
    the residual type itself."""
    return TVar(w.meta) if type(w) is Stuck else w


# ------------------------------------------------------- free variables


def free_type_vars(ty: TypeExpr) -> frozenset[str]:
    """The type variables of ``ty`` that no quantifier in it binds.  Arrow
    codomains and quantifier bodies are followed by a loop, so a chain of
    any length is read at any recursion limit."""
    found: set[str] = set()
    _collect_free(ty, set(), found)
    return frozenset(found)


def _collect_free(ty: TypeExpr, bound: set[str], found: set[str]) -> None:
    """Add to ``found`` the variables of ``ty`` that neither ``bound``, the
    binders open around it, nor a quantifier in it binds.

    A chain adds to ``bound`` only the binders it does not find there and
    removes exactly those when it ends, since a type may repeat a name.
    """
    opened: list[str] = []
    while True:
        kind = type(ty)
        if kind is TVar:
            if ty.name not in bound:
                found.add(ty.name)
            break
        if kind is Arrow:
            _collect_free(ty.dom, bound, found)
            ty = ty.cod
        elif kind is Forall:
            if ty.bound not in bound:
                bound.add(ty.bound)
                opened.append(ty.bound)
            ty = ty.body
        elif kind is Con:
            for a in ty.args:
                _collect_free(a, bound, found)
            break
        else:
            raise TypeError(ty)
    bound.difference_update(opened)


def is_well_formed(ctx: Context, ty: TypeExpr) -> bool:
    """True iff every variable is declared and constructor arities match.

    Arrow codomains and quantifier bodies are followed by a loop, so a
    chain of any length is checked at any recursion limit.
    """
    return _well_formed(ctx._scope, ctx.signature, ty, set())


def _well_formed(
    declared: Mapping[str, TypeExpr | None], signature: Mapping[str, int], ty: TypeExpr, scope: set[str],
) -> bool:
    """``is_well_formed`` in a context's map ``declared``, which binds
    each type variable to None, with ``scope``, the binders open around ``ty``.

    A chain adds to ``scope`` only the binders it does not find there and,
    once it is well-formed, removes exactly those; a False answer is final,
    so the scope it leaves behind is never read again.
    """
    opened: list[str] = []
    while True:
        kind = type(ty)
        if kind is TVar:
            if ty.name not in scope and declared.get(ty.name, ty) is not None:
                return False
            break
        if kind is Arrow:
            if not _well_formed(declared, signature, ty.dom, scope):
                return False
            ty = ty.cod
        elif kind is Forall:
            if ty.bound not in scope:
                scope.add(ty.bound)
                opened.append(ty.bound)
            ty = ty.body
        elif kind is Con:
            args = ty.args
            if signature.get(ty.con) != len(args):
                return False
            for a in args:
                if not _well_formed(declared, signature, a, scope):
                    return False
            break
        else:
            raise TypeError(ty)
    scope.difference_update(opened)
    return True


def meta_vars_of_type(ctx: Context, ty: TypeExpr) -> frozenset[str]:
    """Free variables of the type that the context does not declare."""
    return frozenset([x for x in free_type_vars(ty) if ctx._scope.get(x, x) is not None])


def meta_vars_of_term(ctx: Context, t: Term) -> frozenset[str]:
    """Meta-variables of a partial elaboration.

    Only type-argument positions along the applicand chain may hold
    meta-variables; anything else there must be well-formed.  The chain
    is walked by a loop, so a spine of any length is read at any
    recursion limit.
    """
    metas: set[str] = set()
    while True:
        kind = type(t)
        if kind is TApp:
            s = t.targ
            if not is_well_formed(ctx, s):
                if type(s) is not TVar:
                    raise ValueError("type argument is neither a meta-variable nor well-formed")
                metas.add(s.name)
        elif kind is not App:
            return frozenset(metas)
        t = t.fun


# ----------------------------------------------------------- substitution


def _fresh_against(base: str, avoid: set[str] | frozenset[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(mapping: Mapping[str, TypeExpr], ty: TypeExpr) -> TypeExpr:
    """Simultaneous capture-avoiding substitution of types for variables.

    A node beneath which the mapping changes nothing is returned itself,
    span and all; spans take no part in comparing nodes.  So
    ``substitute(m, t) is t`` when no free variable of ``t`` is in ``m``,
    unless a binder of ``t`` is free in a value of ``m``: such a binder is
    renamed apart whether or not anything beneath it changes.  Changed
    nodes are built anew, without spans.  Arrow codomains and quantifier
    bodies are followed by a loop, and the chain's nodes are rebuilt
    bottom-up once it ends, so a chain of any length is substituted at
    any recursion limit.
    """
    if not mapping:
        return ty
    links: list[tuple[TypeExpr, object]] = []  # each link's node and its new first field
    while True:
        kind = type(ty)
        if kind is TVar:
            ty = mapping.get(ty.name, ty)
            break
        if kind is Arrow:
            links.append((ty, substitute(mapping, ty.dom)))
            ty = ty.cod
        elif kind is Con:
            args = ty.args
            if args:
                new = tuple([substitute(mapping, a) for a in args])
                if any(map(is_not, new, args)):
                    ty = Con(ty.con, new)
            break
        elif kind is Forall:
            x, b = ty.bound, ty.body
            if x in mapping:
                mapping = {k: v for k, v in mapping.items() if k != x}
                if not mapping:
                    break
            clash: set[str] = set()
            for v in mapping.values():
                _collect_free(v, set(), clash)
            if x in clash:
                fresh = _fresh_against(x, clash | free_type_vars(b) | set(mapping))
                b = substitute({x: TVar(fresh)}, b)
                x = fresh
            links.append((ty, x))
            ty = b
        else:
            raise TypeError(ty)
    while links:
        node, first = links.pop()
        if type(node) is Arrow:
            if first is not node.dom or ty is not node.cod:
                ty = Arrow(first, ty)
            else:
                ty = node
        elif first is not node.bound or ty is not node.body:
            ty = Forall(first, ty)
        else:
            ty = node
    return ty


def subst_type_args(mapping: Mapping[str, TypeExpr], t: Term) -> Term:
    """Substitute into the type-argument positions of an applicand chain.

    Partial elaborations keep their meta-variables only there, so this
    is the whole of applying a solution to a term.  The chain is walked
    down and rebuilt by loops, so a spine of any length is substituted
    at any recursion limit.  Only the links it changes are rebuilt: an
    elaboration shares every node beneath which nothing changes.
    """
    if not mapping:
        return t
    chain: list[App | TApp] = []
    while (kind := type(t)) is App or kind is TApp:
        chain.append(t)
        t = t.fun
    for node in reversed(chain):
        if type(node) is App:
            t = node if t is node.fun else App(t, node.arg, node._span)
        else:
            targ = substitute(mapping, node.targ)
            t = node if t is node.fun and targ is node.targ else TApp(t, targ, node._span)
    return t


# -------------------------------------------------------- canonical keys


def _canon_ty(ty: TypeExpr, env: Mapping[str, int], depth: int) -> str:
    """Key of a type under ``env``, which numbers the binders in scope.

    Arrow codomains and quantifier bodies are followed by a loop, so a
    chain of any length is keyed at any recursion limit; the loop never
    returns to a link it has left, so its binders extend one copy of ``env``.
    """
    opened: list[str] = []
    own = False
    while True:
        kind = type(ty)
        if kind is TVar:
            x = ty.name
            last = f"@{env[x]}" if x in env else f"v:{x}"
            break
        if kind is Arrow:
            opened.append(f"({_canon_ty(ty.dom, env, depth)}->")
            ty = ty.cod
        elif kind is Forall:
            opened.append("(all.")
            if not own:
                env, own = dict(env), True
            env[ty.bound] = depth
            depth += 1
            ty = ty.body
        elif kind is Con:
            last = f"{ty.con}[" + ",".join([_canon_ty(a, env, depth) for a in ty.args]) + "]"
            break
        else:
            raise TypeError(ty)
    if not opened:
        return last
    return "".join(opened) + last + ")" * len(opened)


def canon_type(ty: TypeExpr) -> str:
    """Serialization that identifies alpha-equivalent types."""
    return _canon_ty(ty, {}, 0)


def _canon_tm(t: Term, env: Mapping[str, int], depth: int) -> str:
    """Key of a term under ``env``, which numbers the binders in scope.

    Applicand chains and lambda and type-lambda bodies are followed by
    one loop, so a spine or a binder chain of any length is keyed at any
    recursion limit; as in ``_canon_ty``, its binders extend one copy of
    ``env``.  The key of a head applied to k arguments is ``"(" * k`` and
    the head's key, then each argument's; a lambda's key wraps its body's.
    """
    opened: list[str] = []  # the key's text before the innermost head, in order
    closed: list[str] = []  # the key's text after it, in reverse
    own = False
    while True:
        kind = type(t)
        if kind is App:
            opened.append("(")
            closed.append(f" {_canon_tm(t.arg, env, depth)})")
            t = t.fun
        elif kind is TApp:
            opened.append("(")
            closed.append(f" [{_canon_ty(t.targ, env, depth)}])")
            t = t.fun
        elif kind is Var:
            x = t.name
            opened.append(f"@{env[x]}" if x in env else f"v:{x}")
            break
        elif kind is Lam or kind is TLam:
            if kind is TLam:
                opened.append("(tlam.")
            else:
                opened.append(f"(lam:{'_' if t.ann is None else _canon_ty(t.ann, env, depth)}.")
            closed.append(")")
            if not own:
                env, own = dict(env), True
            env[t.bound] = depth
            depth += 1
            t = t.body
        else:
            raise TypeError(t)
    closed.reverse()
    return "".join(opened) + "".join(closed)


def canon_term(t: Term) -> str:
    """Serialization that identifies alpha-equivalent terms."""
    return _canon_tm(t, {}, 0)


# --------------------------------------------------------- alpha equality


def alpha_equal(a: TypeExpr, b: TypeExpr) -> bool:
    """Equality of types up to renaming of bound variables: the equality
    of their canonical keys, decided by one walk over both types that
    stops at their first difference.

    A non-type that the walk reaches raises ``TypeError``.  One past the
    first difference is never reached, so there the answer is False.
    """
    return _alpha_ty(a, b, _NO_BINDERS, _NO_BINDERS, 0, (), None)


def match_type(metas: Container[str], pattern: TypeExpr, target: TypeExpr) -> dict[str, TypeExpr] | None:
    """First-order matching: the types for the solvable variables ``metas``
    that make ``pattern`` alpha-equal to ``target``, or None.

    It is the walk of ``alpha_equal`` with holes.  A solvable variable binds
    the first target type it meets, which must mention no binder open on the
    target side, and then must be alpha-equal to every other one it meets.
    A pattern quantifier that binds a solvable variable raises ``ValueError``
    when the walk enters it.  The target must not mention a solvable
    variable, so a subtree both sides share under the same binders matches
    at once, as in ``alpha_equal``.
    """
    store: dict[str, TypeExpr] = {}
    return store if _alpha_ty(pattern, target, _NO_BINDERS, _NO_BINDERS, 0, metas, store) else None


_NO_BINDERS: Mapping[str, int] = {}
_TYPE_NODES = frozenset({TVar, Arrow, Forall, Con})


def _alpha_ty(
    a: TypeExpr, b: TypeExpr, ea: Mapping[str, int], eb: Mapping[str, int], depth: int,
    metas: Container[str], store: dict[str, TypeExpr] | None,
) -> bool:
    """Whether ``a`` under ``ea`` and ``b`` under ``eb`` have one key once
    each solvable variable of ``metas`` in ``a`` is read as its type in
    ``store``.

    As in ``_canon_ty``, ``ea`` and ``eb`` number the binders in scope on
    each side, and a chain's binders extend one copy of each.  While both
    sides have opened the same names the two are one dict, and there a
    node met on both sides is equal to itself without a walk.
    """
    own = False
    while True:
        kind = type(a)
        if kind is TVar and a.name in metas:
            if eb and any(v in eb for v in free_type_vars(b)):
                return False  # the solution would escape a target binder
            bound = store.setdefault(a.name, b)
            return bound is b or alpha_equal(bound, b)
        if kind is not type(b):
            if kind not in _TYPE_NODES:
                raise TypeError(a)
            if type(b) not in _TYPE_NODES:
                raise TypeError(b)
            return False
        if a is b and ea is eb:
            if kind not in _TYPE_NODES:
                raise TypeError(a)
            return True
        if kind is TVar:
            x, y = a.name, b.name
            i, j = ea.get(x), eb.get(y)
            return i == j and (i is not None or x == y)
        if kind is Arrow:
            if not _alpha_ty(a.dom, b.dom, ea, eb, depth, metas, store):
                return False
            a, b = a.cod, b.cod
        elif kind is Forall:
            x, y = a.bound, b.bound
            if x in metas:
                raise ValueError("solvable variable is bound inside the pattern")
            if not own:
                if ea is eb and x == y:
                    ea = eb = dict(ea)
                else:
                    ea, eb = dict(ea), dict(eb)
                own = True
            elif ea is eb and x != y:
                eb = dict(eb)
            ea[x] = depth
            eb[y] = depth
            depth += 1
            a, b = a.body, b.body
        elif kind is Con:
            if a.con != b.con or len(a.args) != len(b.args):
                return False
            for p, q in zip(a.args, b.args):
                if not _alpha_ty(p, q, ea, eb, depth, metas, store):
                    return False
            return True
        else:
            raise TypeError(a)


def alpha_equal_term(a: Term, b: Term) -> bool:
    """Equality of terms up to renaming of bound term and type variables."""
    return canon_term(a) == canon_term(b)


# ------------------------------------------------------------ fresh names


def is_meta_name(name: str) -> bool:
    return name.startswith("?")


class NameSupply:
    """Monotone source of reserved meta-variable names for one run.

    Every meta-variable the engine works with is minted here, as
    ``?`` + source binder + counter.  The supply remembers the source
    binder of each name it minted, so that diagnostics can show ``?X``
    for a meta that instantiates a quantifier named ``X``; any other
    name (a binder) is its own source.
    """

    def __init__(self) -> None:
        self._next = 0
        self._source: dict[str, str] = {}

    def fresh_meta(self, source: str) -> str:
        base = self.source_of(source)
        name = f"?{base}{self._next}"
        self._next += 1
        self._source[name] = base
        return name

    def source_of(self, name: str) -> str:
        return self._source.get(name, name)

    def display_names(self, names) -> dict[str, str]:
        """Shortest unambiguous ``?source`` rendering for each meta name."""
        ordered = sorted(set(names))
        by_source: dict[str, list[str]] = {}
        for n in ordered:
            by_source.setdefault(self.source_of(n), []).append(n)
        out: dict[str, str] = {}
        for src, group in by_source.items():
            if len(group) == 1:
                out[group[0]] = f"?{src}"
            else:
                for i, n in enumerate(group, start=1):
                    out[n] = f"?{src}{i}"
        return out
