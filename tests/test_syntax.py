"""Core syntax operations: alpha equality, substitution, meta-variables."""

from __future__ import annotations

import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import CTX, count_well_formed_walks, erasures, recursion_headroom, tm, ty
from spinel.cli import diagnostic_json
from spinel.infer import Check, Diagnostic, DiagnosticKind, InferOutcome, SpineOutcome, Synthesize, infer
from spinel.matcher import MatchFailure
from spinel.oracle import SpecVerdict
from spinel.syntax import (
    App,
    Arrow,
    ArrowTo,
    Binding,
    Con,
    Context,
    Contextual,
    Exact,
    Forall,
    Lam,
    NameSupply,
    Solution,
    Span,
    Stuck,
    Synthetic,
    TApp,
    TLam,
    TVar,
    TermBind,
    TyVarDecl,
    Unknown,
    Var,
    _well_formed,
    alpha_equal,
    alpha_equal_term,
    canon_term,
    canon_type,
    free_type_vars,
    is_well_formed,
    meta_vars_of_term,
    meta_vars_of_type,
    spine_parts,
    strip,
    subst_type_args,
    substitute,
)


# ---------------------------------------------------------------- spans


def test_span_is_immutable_hashable_and_reads_by_name():
    sp = Span(1, 2, 3, 4)
    assert (sp.line, sp.col, sp.end_line, sp.end_col) == (1, 2, 3, 4)
    assert repr(sp) == "Span(line=1, col=2, end_line=3, end_col=4)"
    with pytest.raises(AttributeError):
        sp.line = 5
    assert sp == Span(1, 2, 3, 4) and hash(sp) == hash(Span(1, 2, 3, 4))
    assert {sp: "here"}[Span(1, 2, 3, 4)] == "here"


def test_a_span_in_a_diagnostic_record_keeps_its_keys_and_order():
    d = Diagnostic(DiagnosticKind.UNBOUND_NAME, subject=Var("x", Span(1, 2, 3, 4)))
    assert list(diagnostic_json(d)["span"].items()) == [
        ("line", 1), ("col", 2), ("end_line", 3), ("end_col", 4)
    ]


@pytest.mark.parametrize("node", [TVar, Arrow, Forall, Con, Var, Lam, TLam, App, TApp])
def test_node_spans_take_no_part_in_comparison(node):
    assert node.__match_args__[-1] == "span"
    values = NODE_FIELDS[node]
    span = Span(1, 2, 3, 4)
    a, b = node(*values, span), node(*values, span=Span(5, 6, 7, 8))
    assert a.span is span and node(*values).span is None  # a Span given is read back as it is
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == repr(node(*values))
    assert "span" not in repr(a)


# Each slotted node class, and each engine record made the same way, with
# the values of its fields, metadata left out.
NODE_FIELDS = {
    TVar: ("X",),
    Arrow: (TVar("X"), Con("Nat")),
    Forall: ("X", TVar("X")),
    Con: ("Pair", (Con("Nat"), TVar("X"))),
    Var: ("x",),
    Lam: ("x", Con("Nat"), Var("x")),
    TLam: ("X", Var("x")),
    App: (Var("f"), Var("x")),
    TApp: (Var("f"), Con("Nat")),
    TyVarDecl: ("X",),
    TermBind: ("x", Con("Nat")),
    Exact: (Con("Nat"),),
    ArrowTo: (Unknown(),),
    Stuck: ("?X0", ArrowTo(Unknown())),
    Unknown: (),
    Contextual: (TVar("?X0"), Con("Nat")),
    Synthetic: (TVar("?X0"), Con("Nat"), 1),
    Binding: (Con("Nat"), Contextual(TVar("?X0"), Con("Nat"))),
    Synthesize: (),
    Check: (Con("Nat"),),
    SpineOutcome: (Con("Nat"), Var("z"), Solution()),
    InferOutcome: (Con("Nat"), Var("z")),
    MatchFailure: (Con("Nat"), ArrowTo(Unknown()), True),
    SpecVerdict: (False, ("PHead",), "forced"),
}
METADATA = {
    "span": Span(1, 2, 3, 4),
    "spine": SpineOutcome(Con("Nat"), Var("z"), Solution()),
}


def _hash(x):
    """The hash of ``x``, or ``TypeError`` when a field (a ``Solution``) has none."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("node", list(NODE_FIELDS), ids=lambda node: node.__name__)
def test_node_contract(node):
    values = NODE_FIELDS[node]
    names = node.__match_args__
    assert names == tuple(node.__annotations__)
    meta = {name: METADATA[name] for name in names if name in METADATA}
    assert names[len(values):] == tuple(meta)

    a = node(*values)
    b = node(**dict(zip(names, values)))
    assert not hasattr(a, "__dict__")
    assert a == b and _hash(a) == _hash(b) and repr(a) == repr(b)
    assert a != node(*values[:-1], TVar("?other")) if values else a == node()
    for name in (*names[:1], "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, None)

    # repr shows the compared fields, as a frozen dataclass's does
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(a) == f"{node.__name__}({shown})"
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)

    # metadata, given by keyword or in position, is kept but neither compared nor shown
    for c in (node(*values, **meta), node(*values, *meta.values())):
        assert all(getattr(c, name) == value for name, value in meta.items())
        assert c == a and _hash(c) == _hash(a) and repr(c) == repr(a)


def test_records_match_by_class_pattern():
    match InferOutcome(Con("Nat"), Var("z")), Check(Con("B")):
        case InferOutcome(ty, elab), Check(expected=e):
            assert (ty, elab, e) == (Con("Nat"), Var("z"), Con("B"))
        case _:
            pytest.fail("records no longer match their class patterns")


def test_node_defaults():
    assert Con("Nat") == Con("Nat", ()) and Con("Nat").args == () and Con("Nat").span is None


def test_trees_that_differ_only_in_spans_compare_equal():
    a, b = tm(r"/\X. \x : X. pair [X] x z"), tm(r"/\X.   \x : X.  pair  [X]  x  z")
    assert a.span != b.span and a.body.body.span != b.body.body.span
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("node", list(NODE_FIELDS), ids=lambda node: node.__name__)
def test_node_hash_is_the_hash_of_its_compared_fields(node):
    # A frozen dataclass's hash, so sets and dicts of nodes keep their
    # order, and with it the enumerated corpora and their pinned digests.
    values = NODE_FIELDS[node]
    assert _hash(node(*values)) == _hash(tuple(values))


def test_node_hash_is_a_frozen_dataclass_hash_at_every_depth():
    # The same values as frozen dataclasses of the same fields, built by
    # their own recursive hash, on a chain under the recursion limit.
    mirror = {
        cls: dataclasses.make_dataclass(cls.__name__, cls.__match_args__[:-1], frozen=True)
        for cls in (TVar, Arrow, Forall, Con)
    }
    ours, theirs = TVar("X"), mirror[TVar]("X")
    for i in range(150):
        if i % 3 == 0:
            ours, theirs = Forall(f"X{i}", ours), mirror[Forall](f"X{i}", theirs)
        else:
            ours = Arrow(Con("Pair", (ours, TVar("X"))), TVar(f"X{i}"))
            theirs = mirror[Arrow](mirror[Con]("Pair", (theirs, mirror[TVar]("X"))), mirror[TVar](f"X{i}"))
    assert hash(ours) == hash(theirs)


def _alternating(n):
    return "".join(f"forall Y{i}. Y{i} -> " for i in range(n)) + "Nat"


def test_equality_of_a_long_alternating_chain_does_not_recurse():
    # A recursive `__eq__` (a dataclass's) raises RecursionError here.
    a, b = ty(_alternating(300)), ty(_alternating(300))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ty(_alternating(300).replace("Y299 -> Nat", "Y299 -> B"))


# Twice the frames the long-chain test allows: a recursive `==` or `hash`
# takes at least one frame per link, two before Python 3.13.
LONG = 2_000


def _chain(link, last):
    """``last`` beneath ``link(i, ...)`` for i from LONG - 1 out to 0."""
    for i in reversed(range(LONG)):
        last = link(i, last)
    return last


def _long_trees(shape, leaf):
    """The trees of CI's long-input ``shape``, LONG links long, with
    ``leaf`` at the bottom of each: the goal's term and type, or for
    ``contextual`` (whose goal type is ``lambda``'s) the goal's term and
    the head's type."""
    nat = Con("Nat")
    if shape == "lambda":  # \x0. ... x0 : Nat -> ... -> Nat
        return [
            _chain(lambda i, b: Lam(f"x{i}", None, b), Var(leaf)),
            _chain(lambda i, b: Arrow(nat, b), TVar(leaf)),
        ]
    if shape == "quantifier":  # /\X0. ... \x. x : forall Y0. ... Y1999 -> Y1999
        return [
            _chain(lambda i, b: TLam(f"X{i}", b), Lam("x", None, Var(leaf))),
            _chain(lambda i, b: Forall(f"Y{i}", b), Arrow(TVar(f"Y{LONG - 1}"), TVar(leaf))),
        ]
    head = Var(leaf)  # g z ... z, with g : forall X0 ... . X0 -> ... -> Nat -> (X0 -> ... -> Nat)
    for _ in range(LONG):
        head = App(head, Var("z"))
    xs = [TVar(f"X{i}") for i in range(LONG)]
    codomain = _chain(lambda i, b: Arrow(xs[i], b), TVar(leaf))
    domains = _chain(lambda i, b: Arrow(xs[i], b), Arrow(nat, codomain))
    return [head, _chain(lambda i, b: Forall(f"X{i}", b), domains)]


@pytest.mark.parametrize("shape", ["lambda", "quantifier", "contextual"])
def test_equality_and_hash_of_long_chains_return(shape):
    # Under 1,000 frames of headroom, a dataclass's recursive `==` and
    # `hash` raise RecursionError on every one of these trees.
    trees = zip(_long_trees(shape, "x"), _long_trees(shape, "x"), _long_trees(shape, "y"))
    with recursion_headroom(1000):
        for a, b, other in trees:
            assert a is not b and a == b and hash(a) == hash(b)
            assert a != other  # only a walk to the bottom tells them apart


def test_alpha_equal_renames_binders():
    assert alpha_equal(ty("forall X. X -> X"), ty("forall Y. Y -> Y"))


def test_alpha_equal_distinguishes_structure():
    assert not alpha_equal(ty("forall X. forall Y. X"), ty("forall X. forall Y. Y"))


def test_alpha_equal_free_vars_by_name():
    assert alpha_equal(TVar("A"), TVar("A"))
    assert not alpha_equal(TVar("A"), TVar("B"))


def test_alpha_equal_term_tracks_both_binder_kinds():
    a = tm(r"\f : Nat -> Nat. /\A. \x : A. f")
    b = tm(r"\g : Nat -> Nat. /\C. \y : C. g")
    assert alpha_equal_term(a, b)
    assert not alpha_equal_term(a, tm(r"\f : Nat -> Nat. /\A. \x : A. x"))


NAT = Con("Nat")
NAT_TO_NAT = Arrow(NAT, NAT)

# Pairs of match leaves that differ only in what the decoration says.
DECO_PAIRS = {
    "plain meta vs stuck meta": (TVar("?M"), Stuck("?M", ArrowTo(Unknown()))),
    "exact arrow vs arrow prototype": (
        Stuck("?M", ArrowTo(Exact(NAT_TO_NAT))),
        Stuck("?M", ArrowTo(ArrowTo(Exact(NAT)))),
    ),
}


def _copy(x):
    return type(x)(*(getattr(x, name) for name in x.__match_args__))


@pytest.mark.parametrize("pair", DECO_PAIRS.values(), ids=DECO_PAIRS.keys())
def test_decorated_equality_keeps_decorations_apart(pair):
    # Goldens compare match leaves with ``==``; it must see every
    # difference in the decoration, not only in the stripped type.
    a, b = pair
    assert a == _copy(a) and b == _copy(b) and _copy(a) is not a
    assert a != b and b != a


def test_decorated_equality_is_strict_on_binder_names():
    # ``==`` is at least as strict as alpha equality: renamed binders and
    # stuck heads differ, though the stripped types are alpha-equal.
    a = Forall("X", Arrow(TVar("X"), TVar("X")))
    b = Forall("Y", Arrow(TVar("Y"), TVar("Y")))
    assert a != b
    assert alpha_equal(a, b)
    c = Stuck("?M", ArrowTo(Exact(Forall("X", TVar("X")))))
    d = Stuck("?M", ArrowTo(Exact(Forall("Y", TVar("Y")))))
    assert c != d
    assert strip(c) == strip(d)
    assert Stuck("?M", ArrowTo(Unknown())) != Stuck("?N", ArrowTo(Unknown()))


def test_substitute_is_capture_avoiding():
    out = substitute({"A": TVar("X")}, Forall("X", Arrow(TVar("X"), TVar("A"))))
    assert isinstance(out, Forall)
    assert out.bound != "X"
    assert alpha_equal(out, Forall("Z", Arrow(TVar("Z"), TVar("X"))))


def test_substitute_is_simultaneous():
    out = substitute({"A": TVar("B"), "B": TVar("A")}, Arrow(TVar("A"), TVar("B")))
    assert out == Arrow(TVar("B"), TVar("A"))


def test_spine_parts_orders_items_left_to_right():
    head, items = spine_parts(tm("pair [Nat] z tt"))
    assert head == Var("pair")
    assert items[0] == Con("Nat")
    assert items[1] == Var("z")
    assert items[2] == Var("tt")


def test_subst_type_args_only_touches_spine_type_arguments():
    t = TApp(App(Var("f"), Var("x")), TVar("?M0"))
    out = subst_type_args({"?M0": Con("Nat")}, t)
    assert out == TApp(App(Var("f"), Var("x")), Con("Nat"))
    lam = tm(r"\x : Nat. x")
    assert subst_type_args({"Nat": Con("B")}, lam) == lam


def test_applicand_chains_are_walked_by_loops():
    # 5,000 type and term arguments, read at Python's default recursion limit
    n = 2500
    t = Var("g")
    for i in range(n):
        t = App(TApp(t, TVar(f"?X{i}") if i % 2 else Con("Nat")), Var("z"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        metas = meta_vars_of_term(CTX, t)
        solved = subst_type_args({m: Con("B") for m in metas}, t)
        assert meta_vars_of_term(CTX, solved) == frozenset()
        key = canon_term(solved)
        assert alpha_equal_term(solved, solved)
    finally:
        sys.setrecursionlimit(limit)
    assert metas == {f"?X{i}" for i in range(1, n, 2)}
    assert key == "(" * 2 * n + "v:g" + "".join(
        f" [{'B[]' if i % 2 else 'Nat[]'}]) v:z)" for i in range(n)
    )
    head, items = spine_parts(solved)
    assert head == Var("g") and len(items) == 2 * n
    assert items[:4] == [Con("Nat"), Var("z"), Con("B"), Var("z")]


def test_meta_vars_of_type_excludes_declared_vars():
    ctx = CTX.with_type_var("A")
    assert meta_vars_of_type(ctx, Arrow(TVar("A"), TVar("?X0"))) == {"?X0"}


def test_meta_vars_of_term_collects_spine_type_arguments():
    t = TApp(TApp(Var("pair"), TVar("?X0")), Con("Nat"))
    assert meta_vars_of_term(CTX, App(App(t, Var("z")), Var("z"))) == {"?X0"}


def test_meta_vars_of_term_rejects_illformed_concrete_arguments():
    t = TApp(Var("pair"), Con("Pair", (Con("Nat"),)))
    with pytest.raises(ValueError):
        meta_vars_of_term(CTX, t)


def test_well_formedness_checks_scope_and_arity():
    assert is_well_formed(CTX, ty("Pair Nat (B -> B)"))
    assert not is_well_formed(CTX, TVar("A"))
    assert not is_well_formed(CTX, Con("Pair", (Con("Nat"),)))
    assert is_well_formed(CTX.with_type_var("A"), TVar("A"))


def test_context_rejects_shadowing_and_bad_bindings():
    with pytest.raises(ValueError):
        CTX.with_term("z", Con("Nat"))
    with pytest.raises(ValueError):
        CTX.with_type_var("pair")
    with pytest.raises(ValueError):
        CTX.with_term("loose", TVar("A"))


def test_a_constructor_declared_twice_is_rejected():
    with pytest.raises(ValueError, match="duplicate constructor 'Nat'"):
        CTX.with_con("Nat", 0)


def test_a_type_variable_with_a_reserved_meta_name_is_rejected():
    # Declared, `?X0` was taken for a meta of the run: `synth right tt`
    # answered `Sum ?X0 B`, an unsolved meta left in its spine, and
    # `synth ident z` failed with a type mismatch.
    with pytest.raises(ValueError, match=r"^type variable '\?X0' has a reserved meta-variable name$"):
        CTX.with_type_var("?X0")
    with pytest.raises(ValueError, match=r"^type variable '\?X0' has a reserved meta-variable name$"):
        infer(CTX, Synthesize(), TLam("?X0", Var("z")))
    with pytest.raises(Diagnostic) as err:
        infer(CTX, Synthesize(), tm("right tt"))
    assert err.value.kind is DiagnosticKind.UNSOLVED_META_VARIABLES
    assert infer(CTX, Synthesize(), tm("ident z")).ty == Con("Nat")


def test_context_constructor_respects_ordered_scope():
    with pytest.raises(ValueError, match="type bound to 'x' is not well-formed"):
        Context((TermBind("x", TVar("A")), TyVarDecl("A")))
    ctx = Context((TyVarDecl("A"), TermBind("x", TVar("A"))))
    assert ctx.lookup("x") == TVar("A")
    assert ctx.names == frozenset({"A", "x"}) and ctx.dtv == frozenset({"A"})
    with pytest.raises(ValueError, match="duplicate declaration of 'A'"):
        Context((TyVarDecl("A"), TermBind("A", Con("Nat"))), {"Nat": 0})
    assert Context(CTX.entries, CTX.signature) == CTX


def test_context_repr_and_equality_read_its_declarations_in_order():
    # Held as they are, for a context that shares one map between versions
    # (ROADMAP Direction 17): the entries in order, then the signature.
    decls = (TyVarDecl("A"), TermBind("x", Arrow(TVar("A"), Con("Nat"))))
    built = Context.empty().with_con("Nat", 0).with_type_var("A").with_term("x", decls[1].ty)
    assert repr(built) == (
        "Context((TyVarDecl(name='A'), TermBind(name='x', ty=Arrow(dom=TVar(name='A'), "
        "cod=Con(con='Nat', args=())))), {'Nat': 0})"
    )
    assert built == Context(decls, {"Nat": 0}) != Context(decls, {"Nat": 0, "B": 0})
    assert built != repr(built)
    nat = Con("Nat")
    first, second = Context.empty({"Nat": 0}), Context.empty({"Nat": 0})
    assert first.with_term("y", nat).with_term("z", nat) != second.with_term("z", nat).with_term("y", nat)
    assert first.with_term("y", nat).with_term("z", nat) == second.with_term("y", nat).with_term("z", nat)


def _assumptions(n):
    ctx = CTX.with_type_var("A")
    for i in range(n):
        ctx = ctx.with_term(f"c{i}", Arrow(TVar("A"), Con("Nat")))
    return ctx


def test_context_extension_checks_only_the_new_entry(monkeypatch):
    small, large = _assumptions(50), _assumptions(400)
    fresh = ty("forall X. X -> Pair Nat A", small)
    walks = count_well_formed_walks(monkeypatch)
    counts = {}
    for ctx in (small, large):
        walks["walks"] = 0
        ext = ctx.with_term("fresh", fresh)
        ext = ext.with_type_var("C")
        ext = ext.with_con("Fresh", 1)
        assert ext.lookup("fresh") is not None and "C" in ext.dtv and ext.signature["Fresh"] == 1
        counts[len(ctx.entries)] = walks["walks"]
    assert counts[len(small.entries)] == counts[len(large.entries)] == 1


def test_strip_restores_plain_types():
    t = ty("Nat -> Nat")
    assert strip(t) is t
    assert strip(Stuck("?X0", ArrowTo(Unknown()))) == TVar("?X0")


def test_name_supply_display_names():
    supply = NameSupply()
    a = supply.fresh_meta("X")
    b = supply.fresh_meta("Y")
    assert supply.display_names({a, b}) == {a: "?X", b: "?Y"}
    c = supply.fresh_meta("X")
    disp = supply.display_names({a, c})
    assert disp[a] != disp[c]
    assert disp[a].startswith("?X")


_tyvars = st.sampled_from(["A", "B1", "C"])


def _types(depth: int = 3):
    base = st.one_of(_tyvars.map(TVar), st.just(Con("Nat")))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Arrow(*p)),
            st.tuples(_tyvars, inner).map(lambda p: Forall(*p)),
            st.tuples(inner, inner).map(lambda p: Con("Pair", p)),
        ),
        max_leaves=8,
    )


@given(_types())
def test_alpha_equal_is_reflexive(t):
    assert alpha_equal(t, t)


def _rename_binders(t, env=None, names=None):
    """``t`` with every quantifier binder renamed consistently to ``R0``, ``R1``, ..."""
    env = env or {}
    names = names or (f"R{i}" for i in itertools.count())
    match t:
        case TVar(name=x):
            return TVar(env.get(x, x))
        case Arrow(dom=d, cod=c):
            return Arrow(_rename_binders(d, env, names), _rename_binders(c, env, names))
        case Forall(bound=x, body=b):
            fresh = next(names)
            return Forall(fresh, _rename_binders(b, {**env, x: fresh}, names))
        case Con(con=c, args=args):
            return Con(c, tuple(_rename_binders(a, env, names) for a in args))
    raise TypeError(t)


@given(_types())
def test_alpha_equal_survives_consistent_binder_renaming(t):
    assert alpha_equal(t, _rename_binders(t))


@given(_types(), st.data())
def test_alpha_equal_sees_a_renamed_free_variable(t, data):
    free = sorted(free_type_vars(t))
    if free:
        v = data.draw(st.sampled_from(free))
        assert not alpha_equal(t, substitute({v: TVar("Fresh")}, t))


@given(_types(), _tyvars)
def test_substituting_a_fresh_var_changes_nothing(t, v):
    if v not in free_type_vars(t):
        assert substitute({v: Con("Nat")}, t) == t


@given(_types(), _tyvars)
def test_substitution_removes_the_free_variable(t, v):
    out = substitute({v: Con("Nat")}, t)
    assert v not in free_type_vars(out)


def _recursive_substitute(mapping, t):
    """The one-node-per-frame substitution that ``substitute`` unrolls."""
    if not mapping:
        return t
    match t:
        case TVar(name=x):
            return mapping.get(x, t)
        case Arrow(dom=d, cod=c):
            return Arrow(_recursive_substitute(mapping, d), _recursive_substitute(mapping, c))
        case Con(con=c, args=args):
            return Con(c, tuple(_recursive_substitute(mapping, a) for a in args))
        case Forall(bound=x, body=b):
            inner = {k: v for k, v in mapping.items() if k != x}
            if not inner:
                return t
            clash = set().union(*(free_type_vars(v) for v in inner.values()))
            if x in clash:
                fresh = x
                while fresh in clash | free_type_vars(b) | set(inner):
                    fresh += "'"
                b, x = _recursive_substitute({x: TVar(fresh)}, b), fresh
            return Forall(x, _recursive_substitute(inner, b))
    raise TypeError(t)


def _recursive_key(t, env=None, depth=0):
    """The one-node-per-frame canonical key that ``canon_type`` unrolls."""
    env = env or {}
    match t:
        case TVar(name=x):
            return f"@{env[x]}" if x in env else f"v:{x}"
        case Arrow(dom=d, cod=c):
            return f"({_recursive_key(d, env, depth)}->{_recursive_key(c, env, depth)})"
        case Forall(bound=x, body=b):
            return f"(all.{_recursive_key(b, {**env, x: depth}, depth + 1)})"
        case Con(con=c, args=args):
            return f"{c}[{','.join(_recursive_key(a, env, depth) for a in args)}]"
    raise TypeError(t)


def _recursive_term_key(t, env=None, depth=0):
    """The one-node-per-frame canonical key that ``canon_term`` unrolls."""
    env = env or {}
    match t:
        case Var(name=x):
            return f"@{env[x]}" if x in env else f"v:{x}"
        case Lam(bound=x, ann=a, body=b):
            ann = "_" if a is None else _recursive_key(a, env, depth)
            return f"(lam:{ann}.{_recursive_term_key(b, {**env, x: depth}, depth + 1)})"
        case TLam(bound=x, body=b):
            return f"(tlam.{_recursive_term_key(b, {**env, x: depth}, depth + 1)})"
        case App(fun=f, arg=a):
            return f"({_recursive_term_key(f, env, depth)} {_recursive_term_key(a, env, depth)})"
        case TApp(fun=f, targ=s):
            return f"({_recursive_term_key(f, env, depth)} [{_recursive_key(s, env, depth)}])"
    raise TypeError(t)


def test_term_keys_are_those_of_the_recursive_definition():
    # every internal term up to size 6 and every erasure of each
    terms = [erased for erased, _ in erasures(6)]
    assert len(terms) == 1757
    for t in terms:
        assert canon_term(t) == _recursive_term_key(t)


# Terms over binders and variables drawn from one pool of names, so that
# binders shadow each other and the applicand of a spine may be a lambda.
_tmvars = st.sampled_from(["x", "y", "A"])
_terms = st.recursive(
    _tmvars.map(Var),
    lambda inner: st.one_of(
        st.tuples(_tmvars, st.none() | _types(), inner).map(lambda p: Lam(*p)),
        st.tuples(_tyvars, inner).map(lambda p: TLam(*p)),
        st.tuples(inner, inner).map(lambda p: App(*p)),
        st.tuples(inner, _types()).map(lambda p: TApp(*p)),
    ),
    max_leaves=8,
)


@given(_terms)
def test_random_term_keys_are_those_of_the_recursive_definition(t):
    assert canon_term(t) == _recursive_term_key(t)


@pytest.mark.parametrize("kind", ["lambda", "type-lambda"])
def test_binder_chains_are_keyed_by_a_loop(kind):
    # 20,000 binders, compared at Python's default recursion limit
    n = 20_000

    def chain(prefix):
        t = App(Var(f"{prefix}0"), Var("z")) if kind == "lambda" else TApp(Var("g"), TVar(f"{prefix}0"))
        for i in reversed(range(n)):
            t = Lam(f"{prefix}{i}", None, t) if kind == "lambda" else TLam(f"{prefix}{i}", t)
        return t

    a, b = chain("v"), chain("w")
    other = Lam("u", None, b) if kind == "lambda" else TLam("u", b)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        same, differ = alpha_equal_term(a, b), alpha_equal_term(a, other)
        key = canon_term(a)
    finally:
        sys.setrecursionlimit(limit)
    assert same and not differ
    link, last = ("(lam:_.", "(@0 v:z)") if kind == "lambda" else ("(tlam.", "(v:g [@0])")
    assert key == link * n + last + ")" * n


@given(st.dictionaries(_tyvars, _types(), max_size=3), _types())
def test_substitution_and_keys_are_those_of_the_recursive_definitions(mapping, t):
    out = substitute(mapping, t)
    assert out == _recursive_substitute(mapping, t)
    assert canon_type(out) == _recursive_key(out)
    assert canon_type(t) == _recursive_key(t)


def test_type_chains_are_substituted_and_keyed_by_loops():
    # 5,000 quantifier and arrow links, at Python's default recursion limit;
    # substituting for the free A renames the binder it would capture.
    n = 2500
    t = TVar("A")
    for i in reversed(range(n)):
        t = Forall(f"X{i}", Arrow(TVar(f"X{i}"), t))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = substitute({"A": TVar("X7")}, t)
        key = canon_type(out)
    finally:
        sys.setrecursionlimit(limit)
    assert key == "".join(f"(all.(@{i}->" for i in range(n)) + "v:X7" + "))" * n
    for _ in range(7):
        out = out.body.cod
    assert out.bound == "X7'" and out.body.dom == TVar("X7'")


# ------------------------------------------------- walks against references

# A scope with one declared type variable, so that ``A`` is in scope and
# ``B1`` and ``C`` are not, and constructors of arity 0 and 2.
_SCOPE = Context.empty({"Nat": 0, "Pair": 2}).with_type_var("A")


def _scoped_types():
    """Types over binders and free variables drawn from one pool, with
    repeated binders and, now and then, a constructor of the wrong arity."""
    base = st.one_of(_tyvars.map(TVar), st.just(Con("Nat")))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Arrow(*p)),
            st.tuples(_tyvars, inner).map(lambda p: Forall(*p)),
            st.tuples(inner, inner).map(lambda p: Con("Pair", p)),
            inner.map(lambda a: Con("Pair", (a,))),
        ),
        max_leaves=10,
    )


def _reference_well_formed(ctx, t, scope):
    match t:
        case TVar(name=x):
            return x in ctx.dtv or x in scope
        case Arrow(dom=d, cod=c):
            return _reference_well_formed(ctx, d, scope) and _reference_well_formed(ctx, c, scope)
        case Forall(bound=x, body=b):
            return _reference_well_formed(ctx, b, scope | {x})
        case Con(con=c, args=args):
            return ctx.signature.get(c) == len(args) and all(_reference_well_formed(ctx, a, scope) for a in args)
    raise TypeError(t)


def _reference_free(t):
    match t:
        case TVar(name=x):
            return frozenset({x})
        case Arrow(dom=d, cod=c):
            return _reference_free(d) | _reference_free(c)
        case Forall(bound=x, body=b):
            return _reference_free(b) - {x}
        case Con(args=args):
            return frozenset().union(*map(_reference_free, args))
    raise TypeError(t)


def _tvar_count(t):
    match t:
        case TVar():
            return 1
        case Arrow(dom=d, cod=c):
            return _tvar_count(d) + _tvar_count(c)
        case Forall(body=b):
            return _tvar_count(b)
        case Con(args=args):
            return sum(map(_tvar_count, args))
    raise TypeError(t)


def _rename_occurrence(t, k, name):
    """``t`` with its ``k``-th variable occurrence (left to right) renamed to ``name``."""
    def go(t):
        nonlocal k
        match t:
            case TVar():
                k -= 1
                return TVar(name) if k == -1 else t
            case Arrow(dom=d, cod=c):
                return Arrow(go(d), go(c))
            case Forall(bound=x, body=b):
                return Forall(x, go(b))
            case Con(con=c, args=args):
                return Con(c, tuple(go(a) for a in args))
        raise TypeError(t)
    return go(t)


def _agrees_with_keys(a, b):
    return alpha_equal(a, b) == (canon_type(a) == canon_type(b))


@given(_scoped_types(), _scoped_types())
def test_alpha_equal_agrees_with_keys_on_random_pairs(a, b):
    assert _agrees_with_keys(a, b)


@given(_scoped_types())
def test_alpha_equal_agrees_with_keys_on_renamed_pairs(t):
    renamed = _rename_binders(t)
    assert _agrees_with_keys(t, renamed) and alpha_equal(t, renamed)
    assert _agrees_with_keys(renamed, t) and alpha_equal(renamed, t)


@given(_scoped_types(), st.data())
def test_alpha_equal_agrees_with_keys_when_one_variable_changes(t, data):
    if not _tvar_count(t):
        return
    k = data.draw(st.integers(0, _tvar_count(t) - 1))
    changed = _rename_occurrence(t, k, data.draw(st.sampled_from(["A", "B1", "C", "D"])))
    assert _agrees_with_keys(t, changed) and _agrees_with_keys(_rename_binders(t), changed)


@given(_scoped_types(), st.lists(_tyvars, max_size=3), st.lists(_tyvars, max_size=3))
def test_alpha_equal_agrees_with_keys_on_one_body_under_two_binder_lists(body, xs, ys):
    # the same body object under each list of binders, so both walks meet it
    a, b = body, body
    for x in reversed(xs):
        a = Forall(x, a)
    for y in reversed(ys):
        b = Forall(y, b)
    assert _agrees_with_keys(a, b)
    assert _agrees_with_keys(Arrow(a, body), Arrow(b, body))
    assert _agrees_with_keys(Con("Pair", (a, body)), Con("Pair", (b, body)))


@pytest.mark.parametrize("a, b", [
    (TVar("A"), 5),
    (5, TVar("A")),
    ("A", "A"),
    (Arrow(TVar("A"), "A"), Arrow(TVar("A"), "A")),
])
def test_alpha_equal_rejects_a_non_type(a, b):
    with pytest.raises(TypeError):
        alpha_equal(a, b)


@pytest.mark.parametrize("a, b", [
    (Arrow(TVar("A"), "x"), Arrow(TVar("B"), "x")),
    (Con("Pair", (TVar("A"), 5)), Con("Pair", (TVar("B"), 5))),
    (Con("Pair", (5, 5)), Con("List", (5,))),
])
def test_alpha_equal_stops_before_a_non_type_past_the_first_difference(a, b):
    assert alpha_equal(a, b) is False


@given(_scoped_types(), st.frozensets(_tyvars))
def test_well_formedness_is_that_of_the_recursive_definition(t, extra):
    assert _well_formed(_SCOPE._dtv, _SCOPE.signature, t, set(extra)) == _reference_well_formed(_SCOPE, t, extra)
    assert is_well_formed(_SCOPE, t) == _reference_well_formed(_SCOPE, t, frozenset())


@given(_scoped_types())
def test_free_type_vars_are_those_of_the_recursive_definition(t):
    assert free_type_vars(t) == _reference_free(t)
    assert type(free_type_vars(t)) is frozenset


def test_a_repeated_binder_stays_in_scope_until_its_outer_quantifier_closes():
    inner = Forall("B1", TVar("B1"))
    assert is_well_formed(_SCOPE, Forall("B1", Arrow(inner, TVar("B1"))))
    assert not is_well_formed(_SCOPE, Arrow(inner, TVar("B1")))
    assert not is_well_formed(_SCOPE, Con("Pair", (inner, TVar("B1"))))
    assert _well_formed(_SCOPE._dtv, _SCOPE.signature, Arrow(inner, TVar("B1")), {"B1"})
    assert free_type_vars(Arrow(Forall("C", Arrow(inner, TVar("C"))), TVar("B1"))) == {"B1"}


def test_type_walks_follow_a_chain_of_20000_links_by_loops():
    # 10,000 quantifiers, each over an arrow; the binder names repeat every
    # seven links, and the copy renames each binder apart.
    n = 10_000
    t, renamed, other = TVar("A"), TVar("A"), TVar("B1")
    for i in reversed(range(n)):
        t = Forall(f"X{i % 7}", Arrow(TVar(f"X{i % 7}"), t))
        renamed = Forall(f"Y{i}", Arrow(TVar(f"Y{i}"), renamed))
        other = Forall(f"Y{i}", Arrow(TVar(f"Y{i}"), other))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert not is_well_formed(_SCOPE.with_type_var("X3"), Forall("A", TVar("B1")))
        assert is_well_formed(_SCOPE, t)
        assert not is_well_formed(CTX, t)
        assert _well_formed(CTX._dtv, CTX.signature, t, {"A"})
        assert free_type_vars(t) == {"A"}
        assert alpha_equal(t, renamed) and alpha_equal(renamed, t)
        assert not alpha_equal(t, other)
    finally:
        sys.setrecursionlimit(limit)


def _binders(t):
    match t:
        case TVar():
            return set()
        case Arrow(dom=d, cod=c):
            return _binders(d) | _binders(c)
        case Forall(bound=x, body=b):
            return {x} | _binders(b)
        case Con(args=args):
            return set().union(*map(_binders, args))
    raise TypeError(t)


@given(_scoped_types(), st.dictionaries(st.sampled_from(["A", "B1", "C", "D"]), _scoped_types(), max_size=3))
def test_substitute_returns_the_input_where_it_changes_nothing(t, mapping):
    # a binder free in a value is renamed as in any substitution under it,
    # so only mappings whose values mention no binder of ``t`` leave it whole
    if free_type_vars(t).isdisjoint(mapping) and _binders(t).isdisjoint(
        free_type_vars(Con("Pair", tuple(mapping.values())))
    ):
        assert substitute(mapping, t) is t


@given(_scoped_types(), _scoped_types(), _tyvars)
def test_substitute_shares_the_untouched_side_of_an_arrow(dom, cod, v):
    t = Arrow(dom, cod)
    out = substitute({v: Con("Nat")}, t)
    assert out == _recursive_substitute({v: Con("Nat")}, t)
    assert (out.dom is dom) == (v not in free_type_vars(dom))
    assert (out.cod is cod) == (v not in free_type_vars(cod))
    assert (out is t) == (v not in free_type_vars(t))


def test_substitute_keeps_the_spans_of_the_nodes_it_shares():
    scope = CTX.with_type_var("Y")
    t = ty("forall X. (Nat -> X) -> Pair Nat Y", scope)
    out = substitute({"Y": Con("Nat")}, Arrow(ty("B -> B"), t))
    assert out.dom.span is not None and out.cod.body.dom is t.body.dom
    assert out.cod.span is None and out.cod == ty("forall X. (Nat -> X) -> Pair Nat Nat")
    inner = ty("(Nat -> Nat) -> Pair Nat Y", scope)
    out = substitute({"Y": Con("Nat")}, inner)
    assert out.dom is inner.dom and out.cod.args[0] is inner.cod.args[0]
    assert out.span is None and out == ty("(Nat -> Nat) -> Pair Nat Nat")
