"""Tests for the surface syntax parser and the pretty-printers."""

from __future__ import annotations

import dataclasses
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from spinel import parse_term, parse_type, pretty_term, pretty_type
from spinel.oracle import enumerate_erasures, enumerate_internal_terms
from spinel.parser import (
    KEYWORDS,
    Assume,
    ConDecl,
    ParseError,
    _runs,
    parse_declaration,
    parse_program,
    tokenize,
)
from spinel.syntax import (
    App,
    Arrow,
    Con,
    Forall,
    Lam,
    TApp,
    TLam,
    TermBind,
    TVar,
    Var,
    alpha_equal,
    alpha_equal_term,
)

from conftest import CTX, tm, ty


# ------------------------------------------------------------ types


def test_arrow_associates_to_the_right():
    got = ty("Nat -> Nat -> Nat")
    want = Arrow(Con("Nat"), Arrow(Con("Nat"), Con("Nat")))
    assert alpha_equal(got, want)


def test_parenthesized_arrow_domain():
    got = ty("(Nat -> Nat) -> Nat")
    want = Arrow(Arrow(Con("Nat"), Con("Nat")), Con("Nat"))
    assert alpha_equal(got, want)


def test_forall_body_extends_to_the_right():
    got = ty("forall X. X -> X")
    want = Forall("X", Arrow(TVar("X"), TVar("X")))
    assert alpha_equal(got, want)


def test_constructor_application_consumes_exact_arity():
    got = ty("Pair Nat B")
    want = Con("Pair", (Con("Nat"), Con("B")))
    assert alpha_equal(got, want)


def test_constructor_arguments_are_atoms():
    got = ty("Pair (Nat -> B) Nat -> B")
    want = Arrow(Con("Pair", (Arrow(Con("Nat"), Con("B")), Con("Nat"))), Con("B"))
    assert alpha_equal(got, want)


def test_partially_applied_constructor_is_rejected():
    with pytest.raises(ParseError, match="expects 2 argument"):
        ty("Pair Pair Nat")
    with pytest.raises(ParseError, match="expected a type"):
        ty("Pair Nat")


def test_unbound_type_variable_is_rejected():
    with pytest.raises(ParseError, match="unbound type variable"):
        ty("X -> X")


def test_forall_binder_may_not_shadow():
    with pytest.raises(ParseError, match="shadows"):
        ty("forall X. forall X. X")


def test_forall_binder_may_not_reuse_a_constructor_name():
    with pytest.raises(ParseError, match="already a constructor"):
        ty("forall Nat. Nat")


def test_trailing_input_after_type_is_rejected():
    with pytest.raises(ParseError, match="trailing input"):
        ty("Nat Nat")


# ------------------------------------------------------------ terms


def test_application_associates_to_the_left():
    got = tm("suc suc z")
    want = App(App(Var("suc"), Var("suc")), Var("z"))
    assert alpha_equal_term(got, want)


def test_annotated_and_bare_lambdas():
    assert alpha_equal_term(tm("\\x : Nat. x"), Lam("x", Con("Nat"), Var("x")))
    assert alpha_equal_term(tm("\\x. x"), Lam("x", None, Var("x")))


def test_type_lambda_binds_a_type_variable():
    got = tm("/\\C. \\x : C. x")
    want = TLam("C", Lam("x", TVar("C"), Var("x")))
    assert alpha_equal_term(got, want)


def test_bracketed_type_arguments():
    got = tm("ident [Nat] z")
    want = App(TApp(Var("ident"), Con("Nat")), Var("z"))
    assert alpha_equal_term(got, want)


def test_trailing_lambda_argument_needs_no_parens():
    assert alpha_equal_term(tm("rapp z \\y. y"), tm("rapp z (\\y. y)"))


def test_trailing_lambda_swallows_the_rest_of_the_spine():
    got = tm("suc \\x. suc x")
    want = App(Var("suc"), Lam("x", None, App(Var("suc"), Var("x"))))
    assert alpha_equal_term(got, want)


def test_lambda_binder_may_not_shadow():
    with pytest.raises(ParseError, match="shadows"):
        tm("\\z. z")


def test_lambda_binder_may_not_reuse_a_constructor_name():
    with pytest.raises(ParseError, match="already a constructor"):
        tm("\\Nat. z")


def test_unbound_term_variables_parse_as_free_vars():
    got = parse_term("\\f. f q", CTX)
    assert alpha_equal_term(got, Lam("f", None, App(Var("f"), Var("q"))))


def test_primed_identifiers():
    got = tm("\\x'. x'")
    assert alpha_equal_term(got, Lam("x'", None, Var("x'")))


def test_comments_run_to_end_of_line():
    got = tm("suc -- increments\n  z")
    assert alpha_equal_term(got, App(Var("suc"), Var("z")))


# ------------------------------------------------------------ errors


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        ty("Nat ->\n  forall . X")
    assert exc.value.line == 2
    assert exc.value.col == 10
    assert str(exc.value).startswith("2:10:")


def test_parse_error_at_end_of_input():
    with pytest.raises(ParseError, match="expected a type"):
        ty("Nat ->")


def test_goal_requires_a_colon_when_checking():
    with pytest.raises(ParseError, match="':'"):
        parse_declaration("check", "suc z", CTX)


# Every malformed source's exact message and position, pinned from the
# parser as it stood before tokens became tuples and chains loops.
# Entries: a whole program, or one type or term in the standard context.
P = "type Nat\nassume z : Nat\n"
MALFORMED = [
    ('program', 'type Nat\nassume z : Nat$', "unexpected character '$'", 2, 15),
    ('program', 'type Nat -- a comment ? here\nassume z @ Nat', "unexpected character '@'", 2, 10),
    ('program', 'type Nat\r\nassume z : Nat\r\n#', "unexpected character '#'", 3, 1),
    ('program', 'type Nat\r%', "unexpected character '%'", 1, 10),
    ('program', 'type Nat\t~', "unexpected character '~'", 1, 10),
    ('program', P + 'synth z - z', "unexpected character '-'", 3, 9),
    ('program', P + 'synth z / z', "unexpected character '/'", 3, 9),
    ('program', P + 'synth \\x. x \xe9', "unexpected character '\xe9'", 3, 13),
    ('program', 'type Nat\n\n  -- only a comment\n   !', "unexpected character '!'", 4, 4),
    ('program', 'type', 'expected a constructor name', 1, 5),
    ('program', 'assume', 'expected a name', 1, 7),
    ('program', P + 'assume w', "expected ':'", 3, 9),
    ('program', P + 'assume w :', 'expected a type', 3, 11),
    ('program', P + 'check', 'expected a term', 3, 6),
    ('program', P + 'check z', "expected ':'", 3, 8),
    ('program', P + 'check z :', 'expected a type', 3, 10),
    ('program', P + 'synth', 'expected a term', 3, 6),
    ('program', P + 'assume w : forall', 'expected a type variable', 3, 18),
    ('program', P + 'assume w : forall X', "expected '.'", 3, 20),
    ('program', P + 'assume w : forall X.', 'expected a type', 3, 21),
    ('program', P + 'assume w : Nat ->', 'expected a type', 3, 18),
    ('program', P + 'assume w : (Nat -> Nat', "expected ')'", 3, 23),
    ('program', P + 'synth (z', "expected ')'", 3, 9),
    ('program', P + 'synth (z -- unclosed\n', "expected ')'", 3, 9),
    ('program', P + 'synth \\', 'expected a variable', 3, 8),
    ('program', P + 'synth \\x', "expected '.'", 3, 9),
    ('program', P + 'synth \\x :', 'expected a type', 3, 11),
    ('program', P + 'synth \\x : Nat', "expected '.'", 3, 15),
    ('program', P + 'synth \\x : Nat.', 'expected a term', 3, 16),
    ('program', P + 'synth /\\', 'expected a type variable', 3, 9),
    ('program', P + 'synth /\\X', "expected '.'", 3, 10),
    ('program', P + 'synth /\\X.', 'expected a term', 3, 11),
    ('program', P + 'synth z [', 'expected a type', 3, 10),
    ('program', P + 'synth z [Nat', "expected ']'", 3, 13),
    ('program', P + 'synth z -- then\n  \\x', "expected '.'", 4, 5),
    ('program', P + 'assume w : -> Nat', "expected a type, found '->'", 3, 12),
    ('program', P + 'synth )', "expected a term, found ')'", 3, 7),
    ('program', P + 'synth 3', "expected a term, found '3'", 3, 7),
    ('program', P + 'synth \\x Nat', "expected '.', found 'Nat'", 3, 10),
    ('program', P + 'synth z [Nat)', "expected ']', found ')'", 3, 13),
    ('program', P + 'synth \\z. z', "'z' shadows an existing binding", 3, 8),
    ('program', P + 'synth \\x. \\x. x', "'x' shadows an existing binding", 3, 12),
    ('program', P + 'synth /\\X. \\X. z', "'X' shadows an existing binding", 3, 13),
    ('program', P + 'assume w : forall X. forall X. X', "'X' shadows an existing binding", 3, 29),
    ('program', P + 'synth \\Nat. z', "'Nat' is already a constructor", 3, 8),
    ('program', P + 'assume w : forall Nat. Nat', "'Nat' is already a constructor", 3, 19),
    ('program', P + 'assume w : X -> X', "unbound type variable 'X'", 3, 12),
    ('program', P + 'synth \\x : Y. x', "unbound type variable 'Y'", 3, 12),
    ('program', P + 'synth z [Y]', "unbound type variable 'Y'", 3, 10),
    ('program', P + 'synth /\\X. z [Y]', "unbound type variable 'Y'", 3, 15),
    ('program', 'type Nat\ntype Pair 2\nassume p : Pair Nat', 'expected a type', 3, 20),
    ('program', 'type Nat\ntype Pair 2\nassume p : Pair -> Nat', "expected a type, found '->'", 3, 17),
    ('program', 'type Nat\ntype Pair 2\nassume p : Pair Pair Nat Nat', "constructor 'Pair' expects 2 argument(s)", 3, 17),
    ('program', 'type Nat\ntype Pair 2\nassume p : Nat -> Pair', 'expected a type', 3, 23),
    ('program', 'type Nat\ntype Nat', "duplicate declaration of 'Nat'", 2, 6),
    ('program', P + 'assume z : Nat', "duplicate declaration of 'z'", 3, 8),
    ('program', P + 'assume Nat : Nat', "duplicate declaration of 'Nat'", 3, 8),
    ('program', P + 'type z', "duplicate declaration of 'z'", 3, 6),
    ('program', 'type Nat 2 3', "expected a declaration, found '3'", 1, 12),
    ('program', P + 'check z : Nat Nat', "expected a declaration, found 'Nat'", 3, 15),
    ('program', P + 'check z : Nat )', "expected a declaration, found ')'", 3, 15),
    ('program', 'typo Nat', "expected a declaration, found 'typo'", 1, 1),
    # Where a declaration's tokens end, pinned from the parser as it stood
    # before it parsed one declaration's tokens at a time: an unexpected
    # character anywhere comes before any parse error, an error at the next
    # declaration's keyword is found there, and one at the end of the file
    # is just past its last token.
    ('program', P + 'check z :\nsynth z\nsynth z $', "unexpected character '$'", 5, 9),
    ('program', P + 'check z :\nsynth z\n', "expected a type, found 'synth'", 4, 1),
    ('program', P + 'assume w : Nat -> \nassume v : Nat\n', "expected a type, found 'assume'", 4, 1),
    ('program', P + 'check z\ntype B', "expected ':', found 'type'", 4, 1),
    ('program', P + 'synth z\ncheck z : Nat Nat\nsynth z', "expected a declaration, found 'Nat'", 4, 15),
    ('program', P + 'synth z\nassume w : Nat ->  -- to the end\n\n', 'expected a type', 4, 18),
    ('type', '', 'expected a type', 1, 1),
    ('type', 'Nat ->', 'expected a type', 1, 7),
    ('type', '(Nat', "expected ')'", 1, 5),
    ('type', 'Pair Nat', 'expected a type', 1, 9),
    ('type', 'forall X. Y', "unbound type variable 'Y'", 1, 11),
    ('type', 'Nat Nat', 'trailing input after type', 1, 5),
    ('type', 'Nat -> Nat )', 'trailing input after type', 1, 12),
    ('type', 'forall X X', "expected '.', found 'X'", 1, 10),
    ('term', '', 'expected a term', 1, 1),
    ('term', '\\x. (x', "expected ')'", 1, 7),
    ('term', 'ident [Nat', "expected ']'", 1, 11),
    ('term', 'z z )', 'trailing input after term', 1, 5),
    ('term', '\\z. z', "'z' shadows an existing binding", 1, 2),
    ('term', 'ident [X] z', "unbound type variable 'X'", 1, 8),
    ('term', 'z : Nat', 'trailing input after term', 1, 3),
    ('term', '\\x : Nat -> . x', "expected a type, found '.'", 1, 13),
]

_PARSE = {
    "program": parse_program,
    "type": lambda src: parse_type(src, CTX),
    "term": lambda src: parse_term(src, CTX),
}


@pytest.mark.parametrize("entry, src, message, line, col", MALFORMED)
def test_malformed_source_error_and_position(entry, src, message, line, col):
    with pytest.raises(ParseError) as exc:
        _PARSE[entry](src)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


# ------------------------------------------------------------ lexing

# The lexer as it stood before it scanned each line into pieces: one
# ``finditer`` over named alternatives, whitespace and comments unnamed.
_REFERENCE_TOKEN_RE = re.compile(
    r"""[ \t\r]+
      | --[^\n]*
      | (?P<tylam>/\\)
      | (?P<arrow>->)
      | (?P<lam>\\)
      | (?P<dot>\.)
      | (?P<colon>:)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<lbrack>\[)
      | (?P<rbrack>\])
      | (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _reference_tokenize(src):
    tokens = []
    for line, text in enumerate(src.split("\n"), 1):
        for m in _REFERENCE_TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind is None:
                continue
            word = m.group()
            if kind == "ident":
                if word in KEYWORDS:
                    kind = word
            elif kind == "bad":
                raise ParseError(f"unexpected character {word!r}", line, m.start() + 1)
            tokens.append((kind, word, line, m.start() + 1))
    return tokens


# Fragments a source is drawn from: every token's characters, each kind of
# whitespace (``\f`` is none of them), lone ``-`` and ``/``, comments,
# keywords, non-ASCII digits and letters, and a digit that is not decimal.
_FRAGMENTS = st.one_of(
    st.sampled_from([
        "/\\", "->", "\\", ".", ":", "(", ")", "[", "]", "-", "/", "--", "-- x -> y",
        " ", "  ", "\t", "\r", "\f", "\n", "'", "_", "x", "X1", "x'", "Nat",
        "0", "42", "٣", "²", "é", "$", *sorted(KEYWORDS),
    ]),
    st.text(alphabet="ab_'09٣é -/\\>.", max_size=4),
)


@settings(max_examples=200)
@given(st.lists(_FRAGMENTS, max_size=24).map("".join))
@example("type N 4٣ -- arity\r\n\tassume f : forall X. X->N")
@example("check /\\Y. \\y : Y. f [Y] (y) x'")
@example("synth a -b")
@example("type N ²")
@example("type N assume f : N\ncheck f synth f")
@example("type N  \t\r\nassume n : N \r")  # blanks and \r at a line's end
@example("type N\n \t \r\n\nassume n : N")  # a line of blanks only
@example("assume f : N\t-> N\t->\tN")  # a tab before ->
@example("synth x   -- c -> $\nsynth x--c\nsynth x\t--")  # comments after blanks and after a token
def test_the_lexer_agrees_with_the_reference_lexer(src):
    # and parse_program's runs cut the same tokens at each declaration
    try:
        expected = _reference_tokenize(src)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tokenize(src)
        assert (got.value.message, got.value.line, got.value.col) == (exc.message, exc.line, exc.col)
    else:
        assert tokenize(src) == expected
        runs = list(_runs(src))
        assert [tok for run in runs for tok in run[:-1]] == expected
        assert [run[-1] for run in runs[:-1]] == [run[0] for run in runs[1:]]
        declares = {"type", "assume", "check", "synth"}
        assert all(run[0][0] in declares for run in runs[1:])
        assert not any(tok[0] in declares for run in runs for tok in run[1:-1])
        assert runs[-1][-1][0] == "eof"


@pytest.mark.parametrize("src, char, col", [
    ("type Pair \u0662", "\u0662", 11),  # ARABIC-INDIC DIGIT TWO
    ("type Pair 1\u0663", "\u0663", 12),
    ("type Pair \uff12", "\uff12", 11),  # FULLWIDTH DIGIT TWO
])
def test_an_integer_is_ascii_digits_only(src, char, col):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert (exc.value.message, exc.value.line, exc.value.col) == (f"unexpected character {char!r}", 1, col)
    assert [(d.name, d.arity) for d in parse_program("type Pair 12")] == [("Pair", 12)]


# ------------------------------------------------------------ programs


PROGRAM = """\
type Nat
type List 1
assume nil : forall X. List X
assume cons : forall X. X -> List X -> List X
assume z : Nat

check cons z (nil [Nat]) : List Nat
synth cons z -- partial application
"""


def test_parse_program_collects_declarations():
    decls = list(parse_program(PROGRAM))
    kinds = [type(d).__name__ for d in decls]
    assert kinds == ["ConDecl", "ConDecl", "Assume", "Assume", "Assume", "Goal", "Goal"]
    assert decls[1].arity == 1
    assert decls[5].expected is not None
    assert decls[6].expected is None
    assert decls[5].span.line == 7


def test_parse_program_rejects_duplicate_declarations():
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_program("type Nat\nassume Nat : Nat")
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_program("type Nat\nassume z : Nat\nassume z : Nat")


def test_a_file_of_many_assumes_parses():
    # Each assume adds its name to one scope set, so the file parses in
    # linear time; at Python's default recursion limit, since nothing nests.
    n = 20_000
    src = "type Nat\n" + "".join(f"assume a{i} : Nat -> Nat\n" for i in range(n)) + f"synth a{n - 1} a0\n"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        decls = parse_program(src)
    finally:
        sys.setrecursionlimit(limit)
    assert len(decls) == n + 2
    assert (decls[-2].name, decls[-2].ty) == (f"a{n - 1}", Arrow(Con("Nat"), Con("Nat")))
    assert decls[-1].term == App(Var(f"a{n - 1}"), Var("a0")) and decls[-1].expected is None
    assert (decls[-1].span.line, decls[-1].span.end_col) == (n + 2, len(f"synth a{n - 1} a0") + 1)


def test_parsing_holds_one_declarations_tokens_at_a_time():
    # 2,000 declarations like the erasure corpus's, measured by tracemalloc,
    # which counts deterministically: at its peak, the parse holds at most a
    # quarter of the trees it returns on top of them.  Lexing the whole file
    # before parsing it held about 0.9 of them, in the token list.
    header = [f"type {c} {a}" if a else f"type {c}" for c, a in CTX.signature.items()]
    header += [f"assume {e.name} : {pretty_type(e.ty)}" for e in CTX.entries if isinstance(e, TermBind)]
    goals = []
    for internal, t in enumerate_internal_terms(CTX, 6):
        for erased in enumerate_erasures(internal):
            goals += [f"check {pretty_term(erased)} : {pretty_type(t)}", f"synth {pretty_term(erased)}"]
    src = "\n".join(header + goals[:2000]) + "\n"
    parse_program(src)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decls = parse_program(src)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(decls) == len(header) + 2000
    tree = kept - before
    assert peak - kept <= 0.25 * tree, (peak - kept) / tree


def test_every_copy_of_an_identifier_is_one_string():
    nat, suc, goal = parse_program("type Nat\nassume suc : Nat -> Nat\nsynth suc suc\n")
    assert nat.name is suc.ty.dom.con is suc.ty.cod.con
    assert suc.name is goal.term.fun.name is goal.term.arg.name


def test_parse_program_rejects_stray_tokens():
    with pytest.raises(ParseError, match="expected a declaration"):
        parse_program("typo Nat")


def test_parse_assume_and_con_decl_helpers():
    got = parse_declaration("assume", "w : Pair Nat B", CTX)
    assert isinstance(got, Assume) and got.name == "w"
    assert alpha_equal(got.ty, ty("Pair Nat B"))
    got = parse_declaration("type", "Tree 2", CTX)
    assert isinstance(got, ConDecl) and (got.name, got.arity) == ("Tree", 2)
    with pytest.raises(ParseError, match="duplicate"):
        parse_declaration("assume", "z : Nat", CTX)


@pytest.mark.parametrize(
    "keyword, src, col", [("type", "Tree 2 3", 8), ("assume", "w : Nat B", 9), ("synth", "z : Nat", 3)]
)
def test_parse_declaration_rejects_trailing_input(keyword, src, col):
    with pytest.raises(ParseError, match="trailing input after declaration") as exc:
        parse_declaration(keyword, src, CTX)
    assert (exc.value.line, exc.value.col) == (1, col)


# ------------------------------------------------------------ printing


ROUND_TRIPS = [
    "Nat",
    "Nat -> Nat -> Nat",
    "(Nat -> Nat) -> Nat",
    "forall X. X -> X",
    "forall X. forall Y. X -> Y -> Pair X Y",
    "Pair (Nat -> B) (forall X. X)",
    "Sum Nat (Pair B B) -> B",
    "forall X. (X -> Nat) -> Sum X Nat",
]


@pytest.mark.parametrize("src", ROUND_TRIPS)
def test_pretty_type_round_trips(src):
    assert pretty_type(ty(src)) == src


def test_pretty_term_goldens():
    assert pretty_term(tm("\\x : Nat. suc x")) == "\\x : Nat. suc x"
    assert pretty_term(tm("(\\x. x) z")) == "(\\x. x) z"
    assert pretty_term(tm("ident [Nat -> Nat] suc z")) == "ident [Nat -> Nat] suc z"
    assert pretty_term(tm("/\\C. \\x : C. x")) == "/\\C. \\x : C. x"
    assert pretty_term(tm("suc (suc z)")) == "suc (suc z)"


def test_pretty_term_round_trips():
    for src in ["pair [B] [Nat] tt z", "\\f : Nat -> Nat. f z", "rapp z (\\y. y)"]:
        assert alpha_equal_term(tm(pretty_term(tm(src))), tm(src))


# ------------------------------------------------------------ long chains


CHAIN = 2000
CHAIN_HEAD = "type Nat\nassume z : Nat\nassume f : Nat\n"
# Each kind of chain, as the declaration that holds it and its text.
CHAINS = {
    "arrow": ("assume g : ", " -> ".join(["Nat"] * (CHAIN + 1))),
    "forall": ("assume g : ", "".join(f"forall X{i}. " for i in range(CHAIN)) + "X0"),
    "lambda": ("synth ", "".join(f"\\x{i}. " for i in range(CHAIN)) + "x0"),
    "annotated lambda": ("synth ", "".join(f"\\x{i} : Nat. " for i in range(CHAIN)) + "x0"),
    "type lambda": ("synth ", "".join(f"/\\X{i}. " for i in range(CHAIN)) + "z"),
    "application": ("synth ", "f" + " z" * CHAIN),
    "type application": ("synth ", "f" + " [Nat]" * CHAIN),
}


def _chain_tree(decl_src):
    decl = parse_program(CHAIN_HEAD + decl_src)[-1]
    return decl.ty if isinstance(decl, Assume) else decl.term


def _same_tree(a, b):
    """Dataclass equality (spans ignored), by a loop instead of recursion."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if dataclasses.is_dataclass(a):
            if type(a) is not type(b):
                return False
            pairs += [(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a) if f.compare]
        elif isinstance(a, tuple):
            if not isinstance(b, tuple) or len(a) != len(b):
                return False
            pairs += zip(a, b)
        elif a != b:
            return False
    return True


@pytest.mark.parametrize("kind", CHAINS)
def test_long_chains_parse_print_and_reparse(kind):
    # Every link of a chain is a loop iteration, not a Python frame, so
    # a chain longer than the recursion limit parses and prints.
    assert CHAIN > sys.getrecursionlimit()
    keyword, text = CHAINS[kind]
    tree = _chain_tree(keyword + text)
    printed = pretty_type(tree) if keyword.startswith("assume") else pretty_term(tree)
    assert printed == text
    assert _same_tree(_chain_tree(keyword + printed), tree)


# ------------------------------------------------------------ properties


def _type_exprs(depth: int):
    base = st.sampled_from([Con("Nat"), Con("B"), TVar("A")])
    if depth == 0:
        return base
    sub = _type_exprs(depth - 1)
    bound = f"A{depth}"
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda p: Arrow(*p)),
        st.tuples(sub, sub).map(lambda p: Con("Pair", p)),
        sub.map(lambda t: Forall(bound, t)),
    )


@given(_type_exprs(3))
def test_parsing_inverts_printing(t):
    """Printing then parsing any closed type restores it up to alpha."""
    closed = Forall("A", t)
    ctx = CTX
    assert alpha_equal(parse_type(pretty_type(closed), ctx), closed)


# ------------------------------------------------------ reference printers


def _nm(name, rename):
    return rename.get(name, name) if rename else name


def _reference_pretty_type(ty, rename=None, prec=0):
    """Reference type printer: a ``match`` per node and a join per subtree."""
    parts = []
    opened = 0
    while True:
        match ty:
            case Arrow(dom=d, cod=c):
                if prec > 1:
                    parts.append("(")
                    opened += 1
                parts.append(_reference_pretty_type(d, rename, 2) + " -> ")
                ty, prec = c, 1
            case Forall(bound=x, body=b):
                if prec > 0:
                    parts.append("(")
                    opened += 1
                parts.append(f"forall {_nm(x, rename)}. ")
                ty, prec = b, 0
            case TVar(name=n):
                parts.append(_nm(n, rename))
                break
            case Con(con=c, args=()):
                parts.append(c)
                break
            case Con(con=c, args=args):
                body = c + " " + " ".join(_reference_pretty_type(a, rename, 3) for a in args)
                parts.append(f"({body})" if prec > 2 else body)
                break
            case _:
                raise TypeError(ty)
    return "".join(parts) + ")" * opened


def _reference_pretty_term(t, rename=None, prec=0):
    """Reference term printer, written like ``_reference_pretty_type``."""
    parts = []
    opened = 0
    while True:
        match t:
            case Lam(bound=x, ann=ann, body=b):
                if prec > 0:
                    parts.append("(")
                    opened += 1
                if ann is None:
                    parts.append(f"\\{x}. ")
                else:
                    parts.append(f"\\{x} : " + _reference_pretty_type(ann, rename, 1) + ". ")
                t, prec = b, 0
            case TLam(bound=x, body=b):
                if prec > 0:
                    parts.append("(")
                    opened += 1
                parts.append(f"/\\{_nm(x, rename)}. ")
                t, prec = b, 0
            case App() | TApp():
                args = []
                while True:
                    match t:
                        case App(fun=f, arg=a):
                            args.append(_reference_pretty_term(a, rename, 2))
                        case TApp(fun=f, targ=s):
                            args.append("[" + _reference_pretty_type(s, rename, 0) + "]")
                        case _:
                            break
                    t = f
                args.append(_reference_pretty_term(t, rename, 1))
                args.reverse()
                body = " ".join(args)
                parts.append(f"({body})" if prec > 1 else body)
                break
            case Var(name=n):
                parts.append(n)
                break
            case _:
                raise TypeError(t)
    return "".join(parts) + ")" * opened


# Names shared by type variables, binders of both levels and term
# variables, so that a renaming reaches each kind of name.
_NAMES = st.sampled_from(["X", "Y", "x", "f"])
_RENAMES = st.none() | st.dictionaries(_NAMES, st.sampled_from(["A", "B'", "X"]), min_size=1)
_TYPES = st.recursive(
    st.one_of(_NAMES.map(TVar), st.sampled_from([Con("Nat"), Con("B")])),
    lambda sub: st.one_of(
        st.builds(Arrow, sub, sub),
        st.builds(Forall, _NAMES, sub),
        st.builds(lambda a: Con("List", (a,)), sub),
        st.builds(lambda a, b: Con("Pair", (a, b)), sub, sub),
    ),
    max_leaves=10,
)
_TERMS = st.recursive(
    _NAMES.map(Var),
    lambda sub: st.one_of(
        st.builds(App, sub, sub),
        st.builds(TApp, sub, _TYPES),
        st.builds(Lam, _NAMES, st.none() | _TYPES, sub),
        st.builds(TLam, _NAMES, sub),
    ),
    max_leaves=10,
)
_X, _Y, _NAT = TVar("X"), TVar("Y"), Con("Nat")


@settings(max_examples=300)
@given(_TYPES, _RENAMES, st.integers(0, 3))
@example(Arrow(Forall("X", Arrow(_X, _X)), _NAT), {"X": "A"}, 0)
@example(Con("List", (Forall("X", _X),)), None, 3)
@example(Con("Pair", (Arrow(_X, _NAT), Arrow(_NAT, _Y))), {"Y": "B'"}, 2)
@example(Arrow(Arrow(_X, _Y), Forall("Y", Con("Pair", (_X, _Y)))), None, 1)
def test_the_type_printer_agrees_with_the_reference_printer(t, rename, prec):
    assert pretty_type(t, rename, prec) == _reference_pretty_type(t, rename, prec)


@settings(max_examples=300)
@given(_TERMS, _RENAMES, st.integers(0, 3))
@example(App(Lam("x", _X, Var("x")), TLam("X", Var("f"))), {"X": "A", "x": "B'"}, 0)
@example(App(Var("f"), TApp(TLam("X", Lam("x", None, Var("x"))), Forall("Y", _Y))), None, 2)
@example(TApp(App(Var("f"), TApp(Var("f"), Arrow(_X, _NAT))), _X), {"X": "A"}, 1)
@example(Lam("x", Arrow(Forall("X", _X), _NAT), App(Var("f"), Lam("f", None, Var("x")))), None, 3)
def test_the_term_printer_agrees_with_the_reference_printer(t, rename, prec):
    assert pretty_term(t, rename, prec) == _reference_pretty_term(t, rename, prec)


def test_a_renaming_reaches_type_variables_and_type_lambda_binders_only():
    t = Lam("x", _X, TLam("X", TApp(Var("x"), Forall("X", _X))))
    assert pretty_term(t, {"x": "y", "X": "A"}) == "\\x : A. /\\A. x [forall A. A]"


# ------------------------------------------------------------------ scopes


def test_a_forall_may_reuse_a_lambda_bound_name_but_not_a_declared_one():
    # A forall binder is checked against constructors, declared names and
    # type variables, not against the names lambdas bind.
    (goal,) = parse_program(r"synth \x. \y : forall x. x -> x. y")
    assert goal.term.body.ann == Forall("x", Arrow(TVar("x"), TVar("x")))
    with pytest.raises(ParseError) as info:
        parse_program(P + "assume x : Nat\n" + r"synth \y : forall x. x -> x. y")
    assert (info.value.message, info.value.line, info.value.col) == ("'x' shadows an existing binding", 4, 19)


@pytest.mark.parametrize(
    "src",
    [
        r"synth (\x. x) (\x. x)",
        r"synth (/\X. \y : X. y) (/\X. \y : X. y)",
        r"synth \x. (\y. y) (\y : forall y. y. x)",
        "assume f : (forall X. X -> X) -> (forall X. X)",
    ],
)
def test_binders_leave_scope_when_their_run_closes(src):
    # Each name can be bound again once the run that bound it has closed.
    parse_program(P + src)


@pytest.mark.parametrize(
    "src, name, col",
    [
        ("assume f : (forall X. X) -> X", "X", 29),
        (r"synth (/\X. z) [X]", "X", 17),
        (r"synth (\x : Nat. /\X. x) [X]", "X", 27),
    ],
)
def test_a_closed_binder_is_out_of_scope(src, name, col):
    with pytest.raises(ParseError) as info:
        parse_program(P + src)
    assert (info.value.message, info.value.line, info.value.col) == (f"unbound type variable {name!r}", 3, col)
