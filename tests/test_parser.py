"""Tests for the surface syntax parser and the pretty-printers."""

from __future__ import annotations

import dataclasses
import gc
import re
import sys
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from spinel.infer import Check, Diagnostic, Synthesize, infer
from spinel.parser import (
    Assume,
    ConDecl,
    ParseError,
    _KEYWORDS,
    _runs,
    _term_into,
    _type_into,
    parse_program,
    parse_term,
    parse_type,
    pretty_term,
    pretty_type,
    tokenize,
)
from spinel.syntax import (
    App,
    Arrow,
    Con,
    Forall,
    Lam,
    Span,
    TApp,
    TLam,
    TVar,
    Var,
    alpha_equal,
    alpha_equal_term,
    subst_type_args,
)

from conftest import CTX, STANDARD_DECLS, erasure_source, erasures, reachable, tm, traceback_frames, ty
from pinned import PINNED_PARSE, parse_digest


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


def test_an_application_then_a_lambda_inside_a_binder_chain():
    # The binder chain's body is a spine that ends in a trailing lambda.
    got = tm(r"\x : Nat. rapp x \y. suc y")
    want = Lam("x", Con("Nat"), App(App(Var("rapp"), Var("x")), Lam("y", None, App(Var("suc"), Var("y")))))
    assert alpha_equal_term(got, want)
    assert got.body.span == Span(1, 11, 1, 27)
    elaborated = infer(CTX, Check(ty("Nat -> Nat")), got).elaboration
    assert pretty_term(elaborated) == r"\x : Nat. rapp [Nat] [Nat] x (\y : Nat. suc y)"


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
        parse_program("check suc z")


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
                if word in _KEYWORDS:
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
        "0", "42", "٣", "²", "é", "$", *sorted(_KEYWORDS),
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
        runs = list(_runs(src.split("\n")))
        assert list(_runs(line + "\n" for line in src.split("\n"))) == runs  # a file's lines keep their ends
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
    src = erasure_source(6, first=2000)
    parse_program(src)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decls = parse_program(src)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(decls) == len(STANDARD_DECLS) + 2000
    tree = kept - before
    assert peak - kept <= 0.25 * tree, (peak - kept) / tree


@pytest.mark.parametrize(
    "entry, bad, message",
    [(parse_program, "synth )", "expected a term, found ')'"), (tokenize, "synth $", "unexpected character '$'")],
    ids=["parse_program", "tokenize"],
)
def test_a_kept_parse_error_pins_no_parsed_declaration(entry, bad, message):
    # A few thousand goals and a bad last line.  The error kept from
    # parse_program holds its message and position and a traceback of this
    # frame and the entry's, not the declarations parsed before it: 4.7 MB
    # of them while the error kept the frame that collected them, in a
    # cycle.  The one kept from tokenize holds no token lexed before it.
    # What it pins is what dropping it and collecting frees, measured by
    # tracemalloc, which counts deterministically.
    src = erasure_source(6) + bad + "\n"
    tracemalloc.start()
    try:
        try:
            entry(src)
        except ParseError as exc:
            error = exc
        frames, where = traceback_frames(error), (error.message, error.line, error.col)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del error
        gc.collect()
        pinned = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert where == (message, src.count("\n"), 7)
    assert frames == ["test_a_kept_parse_error_pins_no_parsed_declaration", entry.__name__]
    assert pinned <= 4096, pinned


@pytest.mark.parametrize(
    "entry, args, message",
    [
        (parse_program, ("synth z\nsynth $\n",), "2:7: unexpected character '$'"),
        (parse_type, ("Nat -> (Nat", CTX), "1:12: expected ')'"),
        (parse_term, ("pair (z (z", CTX), "1:11: expected ')'"),
        (parse_program, ("type T " + "9" * 5000,), "1:8: arity is too large"),
        (tokenize, ("synth z\nsynth $\n",), "2:7: unexpected character '$'"),
    ],
    ids=["program", "type", "term", "arity", "tokenize"],
)
def test_a_parse_error_holds_no_parser_state(entry, args, message):
    # Raised from the parser's recursive frames, or from a conversion the
    # parser tried first, the error leaves each entry with a traceback of
    # this frame and the entry's, and no context: no parser, token list or
    # parsed tree is reachable from it but the inputs.
    try:
        entry(*args)
    except ParseError as exc:
        error = exc
    assert str(error) == message and error.__context__ is None
    assert traceback_frames(error) == ["test_a_parse_error_holds_no_parser_state", entry.__name__]
    inputs = reachable([args])
    held = {type(obj) for key, obj in reachable([error]).items() if key not in inputs}
    assert held <= {ParseError, types.TracebackType, types.FrameType, dict, tuple, str, int, type(None)}, held


@pytest.mark.parametrize(
    "entry, src, what, shallow, parsed",
    [
        (parse_type, "(" * 5000 + "Nat" + ")" * 5000, "type", "(Nat)", Con("Nat")),
        (parse_term, "suc (" * 3000 + "z" + ")" * 3000, "term", "suc (z)", App(Var("suc"), Var("z"))),
    ],
    ids=["type", "term"],
)
def test_a_parse_entry_reports_input_nested_too_deeply_at_its_first_token(entry, src, what, shallow, parsed):
    # As parse_program does for a declaration: a ParseError at 1:1 with no
    # context, whose traceback holds this frame and the entry's; the next
    # parse starts afresh.
    try:
        entry(src, CTX)
    except ParseError as exc:
        error = exc
    assert (error.message, error.line, error.col) == (f"{what} is nested too deeply", 1, 1)
    assert error.__context__ is None
    assert traceback_frames(error) == ["test_a_parse_entry_reports_input_nested_too_deeply_at_its_first_token",
                                       entry.__name__]
    assert entry(shallow, CTX) == parsed


def test_every_copy_of_an_identifier_is_one_string():
    nat, suc, goal = parse_program("type Nat\nassume suc : Nat -> Nat\nsynth suc suc\n")
    assert nat.name is suc.ty.dom.con is suc.ty.cod.con
    assert suc.name is goal.term.fun.name is goal.term.arg.name


def test_the_parse_of_the_erasure_corpus_is_pinned():
    # Every node, field and span that `parse_program` builds, and every
    # token `tokenize` reads, held byte for byte: a change that means to
    # make the front end faster, not different, leaves the digest as it is.
    assert parse_digest(erasure_source(7)) == PINNED_PARSE


# ------------------------------------------------------------ spans

# A program with a node of every class, each parsed node's span read
# as it was when the parser stored a ``Span`` itself, in walk order.
SPANNED = """type Nat
type Pair 2
assume z : Nat
assume f : forall X. (X -> Nat) -> Pair X Nat
check (/\\X. \\x : X. f [X] x) : forall Y. Y -> Pair Y Nat
synth f (\\y : Nat. y)
"""
SPANNED_GOLDEN = [
    ("ConDecl", (1, 1, 1, 9)), ("ConDecl", (2, 1, 2, 12)), ("Assume", (3, 1, 3, 15)), ("Con", (3, 12, 3, 15)),
    ("Assume", (4, 1, 4, 46)), ("Forall", (4, 12, 4, 46)), ("Arrow", (4, 22, 4, 46)), ("Arrow", (4, 23, 4, 31)),
    ("TVar", (4, 23, 4, 24)), ("Con", (4, 28, 4, 31)), ("Con", (4, 36, 4, 46)), ("TVar", (4, 41, 4, 42)),
    ("Con", (4, 43, 4, 46)), ("Goal", (5, 1, 5, 57)), ("TLam", (5, 8, 5, 28)), ("Lam", (5, 13, 5, 28)),
    ("TVar", (5, 18, 5, 19)), ("App", (5, 21, 5, 28)), ("TApp", (5, 21, 5, 26)), ("Var", (5, 21, 5, 22)),
    ("TVar", (5, 24, 5, 25)), ("Var", (5, 27, 5, 28)), ("Forall", (5, 32, 5, 57)), ("Arrow", (5, 42, 5, 57)),
    ("TVar", (5, 42, 5, 43)), ("Con", (5, 47, 5, 57)), ("TVar", (5, 52, 5, 53)), ("Con", (5, 54, 5, 57)),
    ("Goal", (6, 1, 6, 22)), ("App", (6, 7, 6, 22)), ("Var", (6, 7, 6, 8)), ("Lam", (6, 10, 6, 21)),
    ("Con", (6, 15, 6, 18)), ("Var", (6, 20, 6, 21)),
]


def _nodes(x):
    """Every node of ``x``, a node or a tuple of them, parents first."""
    if type(x) is tuple:
        for item in x:
            yield from _nodes(item)
    elif hasattr(x, "__match_args__"):
        yield x
        for name in x.__match_args__[:-1]:
            yield from _nodes(getattr(x, name))


def test_every_parsed_node_reads_its_span_as_a_span():
    # The parser stores a plain tuple; each read makes a new, equal Span.
    nodes = list(_nodes(parse_program(SPANNED)))
    assert {type(node).__name__ for node in nodes} == {
        "ConDecl", "Assume", "Goal", "TVar", "Arrow", "Forall", "Con", "Var", "Lam", "TLam", "App", "TApp"
    }
    assert [(type(node).__name__, node.span) for node in nodes] == SPANNED_GOLDEN
    for node in nodes:
        first, second = node.span, node.span
        assert type(first) is Span and first == second and first is not second


def test_a_parsed_span_takes_no_part_in_comparing_and_stays_frozen():
    *_, goal = parse_program("\n".join(STANDARD_DECLS) + "\nsynth pair [Nat] z z")
    line = len(STANDARD_DECLS) + 1
    again = parse_term("pair  [Nat]  z  z", CTX)
    assert goal.term.span != again.span and goal.term == again
    assert hash(goal.term) == hash(again) and repr(goal.term) == repr(again) and "span" not in repr(again)
    # A declaration's span is a compared field, shown as the Span it reads as.
    assert repr(goal).endswith(f"span={Span(line, 1, line, 21)!r})") and goal.span == (line, 1, line, 21)
    for node in (goal, goal.term, goal.term.fun.fun.targ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.span = Span(1, 1, 1, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.span
        assert type(node.span) is Span


def test_the_engine_copies_a_span_into_the_nodes_it_rebuilds():
    ctx = CTX.with_term("f", ty("forall X. (X -> Nat) -> Pair X Nat"))
    lam = parse_term(r"/\X. \x. \y : X. y", ctx)
    elab = infer(ctx, Check(ty("forall X. Nat -> X -> X")), lam).elaboration
    assert (elab.body.ann, elab.body.body) == (Con("Nat"), lam.body.body)
    assert [type(n.span) for n in (elab, elab.body)] == [Span, Span]
    assert (elab.span, elab.body.span) == (lam.span, lam.body.span) == ((1, 1, 1, 19), (1, 6, 1, 19))
    app = parse_term(r"f (\y : Nat. y)", ctx)
    elab = infer(ctx, Synthesize(), app).elaboration
    assert pretty_term(elab) == r"f [Nat] (\y : Nat. y)" and elab.arg is app.arg
    assert type(elab.span) is Span and elab.span == app.span == (1, 1, 1, 16)
    spine = parse_term("f [X] (g [X])", ctx.with_type_var("X").with_term("g", ty("forall X. X -> Nat")))
    out = subst_type_args({"X": Con("Nat")}, spine)
    assert pretty_term(out) == "f [Nat] (g [X])" and out.arg is spine.arg
    assert [type(n.span) for n in (out, out.fun)] == [Span, Span]
    assert (out.span, out.fun.span) == (spine.span, spine.fun.span) == ((1, 1, 1, 14), (1, 1, 1, 6))


def test_every_rebuilt_node_of_an_accepted_parsed_goal_holds_a_plain_tuple():
    # The engine copies the stored span, so an accepted goal's elaboration
    # makes no Span: checking \x. x against Nat -> Nat rebuilt its Lam with
    # a Span, as did every rebuilt binder, type application and spine link.
    goals = [(r"\x. x", ty("Nat -> Nat"))] + [(pretty_term(e), t) for e, t in erasures(5)]
    rebuilt = 0
    for text, expected in goals:
        term = tm(text)
        parsed = {id(node) for node in _nodes(term)}
        for mode in (Check(expected), Synthesize()):
            try:
                elab = infer(CTX, mode, term).elaboration
            except Diagnostic:
                continue
            for node in _nodes(elab):
                if id(node) not in parsed and getattr(node, "_span", None) is not None:
                    assert type(node._span) is tuple, (text, node)
                    rebuilt += 1
    assert rebuilt > 400, rebuilt  # 418


def _spans_alive():
    return sum(type(obj) is Span for obj in gc.get_objects())


def test_parsing_the_erasure_corpus_makes_no_span():
    # A count, not a time: with the collector paused, every Span made is in
    # gc.get_objects().  Parsing CI's size-7 erasure file makes none (the
    # parser that stored Spans made 122,949); reading one node's span makes one.
    src = erasure_source(7)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _spans_alive()
        decls = parse_program(src)
        parsed = _spans_alive()
        span = decls[-1].term.span
        read = _spans_alive()
    finally:
        if enabled:
            gc.enable()
    assert (parsed - before, read - before, type(span)) == (0, 1, Span)


def test_parse_program_rejects_stray_tokens():
    with pytest.raises(ParseError, match="expected a declaration"):
        parse_program("typo Nat")


def test_parse_assume_and_con_decl():
    decls = "type Nat\ntype B\ntype Pair 2\n"
    *_, tree, w = parse_program(decls + "type Tree 2\nassume w : Pair Nat B\n")
    assert isinstance(w, Assume) and w.name == "w"
    assert alpha_equal(w.ty, ty("Pair Nat B"))
    assert isinstance(tree, ConDecl) and (tree.name, tree.arity) == ("Tree", 2)
    with pytest.raises(ParseError, match="duplicate"):
        parse_program(P + "assume z : Nat\n")


@pytest.mark.parametrize(
    "src, col, found", [("type Tree 2 3", 13, "'3'"), ("assume w : Nat B", 16, "'B'"), ("synth z : Nat", 9, "':'")]
)
def test_a_stray_token_after_a_declaration_is_a_parse_error(src, col, found):
    with pytest.raises(ParseError, match=f"^3:{col}: expected a declaration, found {found}$"):
        parse_program(P + src)


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


_X0, _X1 = TVar("?X0"), TVar("?X1")


@pytest.mark.parametrize(
    "t, rename, printed",
    [
        (Arrow(_X0, Con("Nat")), {"?X0": "?X"}, "?X -> Nat"),
        (Con("Pair", (_X0, _X1)), {"?X0": "?X", "?X1": "?Y"}, "Pair ?X ?Y"),
        (Con("Pair", (Con("Nat"), Arrow(Con("B"), _X0))), {"?X0": "?X"}, "Pair Nat (B -> ?X)"),
        (Forall("X", Arrow(TVar("X"), Con("Pair", (TVar("X"), Con("Nat"))))), {"X": "X1"}, "forall X1. X1 -> Pair X1 Nat"),
        (Arrow(Arrow(_X0, Con("Nat")), Con("Pair", (_X1, _X0))), {"?X0": "?X"}, "(?X -> Nat) -> Pair ?X1 ?X"),
        (Con("Pair", (Con("List", (_X0,)), _X1)), {"?X0": "?X", "?X1": "?Y"}, "Pair (List ?X) ?Y"),
    ],
)
def test_a_leaf_in_an_arrow_domain_or_a_constructor_argument_is_renamed(t, rename, printed):
    # The printer writes these leaves without a call of its own, and still
    # through the renaming; a name the map leaves out is printed as it is.
    assert pretty_type(t, rename) == printed


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


ALTERNATING = ("assume g : ", "".join(f"forall X{i}. X{i} -> " for i in range(CHAIN)) + "Nat")


@pytest.mark.parametrize(
    "kind",
    [
        *CHAINS,
        pytest.param("alternating", marks=pytest.mark.xfail(strict=True, reason=(
            "pretty_type puts parentheses around a forall in an arrow codomain (CHANGES.md's FOUND "
            "line on pretty_type, ROADMAP Direction 14), so the printed chain is not its source"))),
    ],
)
def test_long_chains_parse_print_and_reparse(kind):
    # Every link of a chain is a loop iteration, not a Python frame, so
    # a chain longer than the recursion limit parses and prints.
    assert CHAIN > sys.getrecursionlimit()
    keyword, text = CHAINS.get(kind, ALTERNATING)
    tree = _chain_tree(keyword + text)
    printed = pretty_type(tree) if keyword.startswith("assume") else pretty_term(tree)
    assert printed == text
    assert _chain_tree(keyword + printed) == tree


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


def _reference_pretty_term(t, prec=0):
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
                    parts.append(f"\\{x} : " + _reference_pretty_type(ann, None, 1) + ". ")
                t, prec = b, 0
            case TLam(bound=x, body=b):
                if prec > 0:
                    parts.append("(")
                    opened += 1
                parts.append(f"/\\{x}. ")
                t, prec = b, 0
            case App() | TApp():
                args = []
                while True:
                    match t:
                        case App(fun=f, arg=a):
                            args.append(_reference_pretty_term(a, 2))
                        case TApp(fun=f, targ=s):
                            args.append("[" + _reference_pretty_type(s, None, 0) + "]")
                        case _:
                            break
                    t = f
                args.append(_reference_pretty_term(t, 1))
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


def _printed(into, tree, *args):
    """The text the printer's ``into`` walk writes for ``tree`` with ``args``."""
    out = []
    into(out, tree, *args)
    return "".join(out)


# Names shared by type variables, binders of both levels and term
# variables, so that a type's renaming reaches each kind of name.
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
    assert _printed(_type_into, t, rename, prec) == _reference_pretty_type(t, rename, prec)
    assert pretty_type(t, rename) == _reference_pretty_type(t, rename)


@settings(max_examples=300)
@given(_TERMS, st.integers(0, 3))
@example(App(Lam("x", _X, Var("x")), TLam("X", Var("f"))), 0)
@example(App(Var("f"), TApp(TLam("X", Lam("x", None, Var("x"))), Forall("Y", _Y))), 2)
@example(TApp(App(Var("f"), TApp(Var("f"), Arrow(_X, _NAT))), _X), 1)
@example(Lam("x", Arrow(Forall("X", _X), _NAT), App(Var("f"), Lam("f", None, Var("x")))), 3)
def test_the_term_printer_agrees_with_the_reference_printer(t, prec):
    assert _printed(_term_into, t, prec) == _reference_pretty_term(t, prec)
    assert pretty_term(t) == _reference_pretty_term(t)


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
