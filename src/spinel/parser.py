"""Surface syntax: lexer, parser, and pretty-printers.

Programs are sequences of declarations: ``type`` introduces a
constructor (with an optional arity, default 0), ``assume`` binds a
name to a type, ``check t : T`` and ``synth t`` pose goals.  Terms use
backslash lambdas with optional annotations, ``/\\`` for type lambdas,
and ``t [T]`` for type application; ``--`` starts a line comment.

The parser is scope-aware: unbound type variables, binder shadowing,
and constructor arity violations are rejected here with positions, so
everything downstream works with well-scoped trees.  One lexer loop,
``_runs``, reads every source: one pattern match per token, blanks
included, and it hands the parser one declaration's tokens at a time,
so the tokens of at most one declaration are alive at once, and every
copy of an identifier in the trees is one shared string.  A type or
term with no chain builds no link list.  The printers append each
piece of text to one list and join it once per call.
"""

from __future__ import annotations

import re
import string

from .syntax import (
    App,
    Arrow,
    Con,
    Context,
    Forall,
    Lam,
    Span,
    TApp,
    TLam,
    TVar,
    Term,
    TypeExpr,
    Var,
    _node,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------- lexing

# A token is a plain tuple (kind, text, line, col), with 1-based line
# and column.  Each line is one ``findall`` of ``_TOKEN_RE``, whose
# items are (blanks, token) pairs: the run of blanks before a token,
# then the token, so that a token's column is the running sum of the
# lengths before it and a blank costs no loop iteration.  A token is an
# identifier, ``/\``, ``->``, a ``--`` comment, ASCII digits, or any
# other single character but a blank; blanks that end a line pair with
# no token and are never read.
_Token = tuple[str, str, int, int]

_TOKEN_RE = re.compile(r"([ \t\r]*)([A-Za-z_][A-Za-z0-9_']*|/\\|->|--.*|[0-9]+|[^ \t\r])")

KEYWORDS = frozenset({"type", "assume", "check", "synth", "forall"})

# The kind of each token text that is always the same: punctuation and keywords.
_FIXED = {
    "/\\": "tylam",
    "->": "arrow",
    "\\": "lam",
    ".": "dot",
    ":": "colon",
    "(": "lparen",
    ")": "rparen",
    "[": "lbrack",
    "]": "rbrack",
    **{word: word for word in KEYWORDS},
}
_DECLARES = frozenset({"type", "assume", "check", "synth"})
_IDENT_START = frozenset(string.ascii_letters + "_")
_DIGITS = frozenset(string.digits)


def tokenize(src: str) -> list[_Token]:
    """Split source text into ``(kind, text, line, col)`` tuples, one per token.

    A keyword's kind is the keyword itself.  The tokens are those of
    ``_runs``, the one lexer, each run's without its last token: the
    next run's keyword, or "eof".
    """
    tokens: list[_Token] = []
    for run in _runs(src):
        tokens += run
        tokens.pop()
    return tokens


def _runs(src: str):
    """Yield the tokens of ``src`` one run at a time, each as a list.

    A run starts at a ``type``, ``assume``, ``check`` or ``synth``
    keyword (the first run at the first token) and ends before the
    next one.  Its last token is the next run's keyword, or the "eof"
    token, so a parse of the run sees the same next token as a parse of
    the whole file.

    A punctuation or keyword token takes its kind from ``_FIXED``, and
    any other is classified by its first character: an identifier, an
    integer (ASCII digits only), a comment (skipped with the rest of its
    line), or a character no token can start with, which is a ParseError
    at its position.  Every copy of an identifier is one string, shared
    through one dict per call, so the trees parsed from the tokens hold
    each name once.
    """
    # Per line, not one findall over the whole source: that held every
    # token of the file at once, raising the corpus benchmark's peak RSS
    # by 11%, and lexed no faster.
    shared = {}.setdefault
    fixed = _FIXED.get
    findall = _TOKEN_RE.findall
    run: list[_Token] = []
    for line, text in enumerate(src.split("\n"), 1):
        col = 1
        for blanks, piece in findall(text):
            col += len(blanks)
            kind = fixed(piece)
            if kind is None:
                lead = piece[0]
                if lead in _IDENT_START:
                    kind = "ident"
                    piece = shared(piece, piece)
                elif lead in _DIGITS:
                    kind = "int"
                elif piece[:2] == "--":
                    break
                else:
                    raise ParseError(f"unexpected character {piece!r}", line, col)
            elif kind in _DECLARES and run:
                run.append((kind, piece, line, col))  # the run's last token
                yield run
                run = []
            run.append((kind, piece, line, col))
            col += len(piece)
    run.append(_eof(run))
    yield run


def _eof(tokens: list[_Token]) -> _Token:
    """The "eof" token after ``tokens``: just past the last one, or at 1:1."""
    if not tokens:
        return ("eof", "", 1, 1)
    _, text, line, col = tokens[-1]
    return ("eof", "", line, col + len(text))


# --------------------------------------------------------------- parsing


@_node
class ConDecl:
    name: str
    arity: int
    span: Span


@_node
class Assume:
    name: str
    ty: TypeExpr
    span: Span


@_node
class Goal:
    term: Term
    expected: TypeExpr | None
    span: Span


Decl = ConDecl | Assume | Goal


_span = tuple.__new__  # _span(Span, fields) costs half of Span(*fields)


def _expected(tok: _Token, what: str) -> ParseError:
    if tok[0] == "eof":
        return ParseError(f"expected {what}", tok[2], tok[3])
    return ParseError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])


class _Parser:
    """Recursive descent over a token list; chains of links are loops.

    The list ends with the token after the text it covers: "eof", or,
    for one run of a source file, the next run's keyword, which no rule
    consumes.  ``parse_program`` hands the one parser each run in turn.
    Only parentheses, brackets and constructor arguments recurse, so a
    chain of any length parses at any recursion limit.

    ``scope`` holds the declared names: a copy of those it is given,
    which each ``assume`` adds to.  Two more mutable sets hold the
    binders open at the current token: ``tyvars`` the type variables,
    ``bound`` the names of lambdas and type lambdas.  Each ``type_`` or
    ``term`` run adds its binders as it reads them and removes them when
    it closes; no binder shadows a name, so that restores the scope
    exactly.
    """

    __slots__ = ("tokens", "pos", "signature", "scope", "tyvars", "bound")

    def __init__(self, tokens: list[_Token], signature: dict[str, int], scope: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature
        self.scope = set(scope)
        self.tyvars: set[str] = set()
        self.bound: set[str] = set()

    # --- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise _expected(tok, what)
        self.pos += 1
        return tok

    def finish(self, what: str) -> None:
        _, _, line, col = tok = self.tokens[self.pos]
        if tok[0] != "eof":
            raise ParseError(f"trailing input after {what}", line, col)

    def span_from(self, start: _Token) -> Span:
        _, text, line, col = self.tokens[self.pos - 1]
        return _span(Span, (start[2], start[3], line, col + len(text)))

    def close(self, links: list[tuple], last):
        """Build a run's nodes bottom-up around its ``last`` tree.

        A link is (its first token, its node class, the node's fields
        before the body): one field, or a lambda's two.  Every node
        spans to the run's last token.
        """
        _, text, line, end_col = self.tokens[self.pos - 1]
        end_col += len(text)
        for link in reversed(links):
            start = link[0]
            span = _span(Span, (start[2], start[3], line, end_col))
            if len(link) == 3:
                last = link[1](link[2], last, span)
            else:
                last = link[1](link[2], link[3], last, span)
        return last

    def fresh_binder(self, tok: _Token, term_level: bool) -> str:
        """The binder ``tok`` names, checked against the constructors, the
        declared names and the type variables in scope; a lambda's or
        type lambda's also against the names ``bound`` holds.  A
        ``forall`` may reuse a lambda-bound name."""
        name = tok[1]
        if name in self.signature:
            raise ParseError(f"{name!r} is already a constructor", tok[2], tok[3])
        if name in self.scope or name in self.tyvars or (term_level and name in self.bound):
            raise ParseError(f"{name!r} shadows an existing binding", tok[2], tok[3])
        return name

    # --- types

    def type_(self) -> TypeExpr:
        """A run of ``forall X.`` and ``T ->`` links, then the last type.

        The nodes are built bottom-up once the run ends; each spans from
        its own first token to the last token of the whole run.  Each
        ``forall`` binder is in scope until the run ends.  A run with no
        link, the common case, returns its one type at once.
        """
        toks = self.tokens
        start = toks[self.pos]
        if start[0] == "forall":
            links: list[tuple] = []
        else:
            ty = self.ty_app()
            if toks[self.pos][0] != "arrow":
                return ty
            self.pos += 1
            links = [(start, Arrow, ty)]
        opened: list[str] = []
        while True:
            start = toks[self.pos]
            if start[0] == "forall":
                self.pos += 1
                name = self.fresh_binder(self.expect("ident", "a type variable"), False)
                self.expect("dot", "'.'")
                self.tyvars.add(name)
                opened.append(name)
                links.append((start, Forall, name))
                continue
            ty = self.ty_app()
            if toks[self.pos][0] != "arrow":
                break
            self.pos += 1
            links.append((start, Arrow, ty))
        if opened:
            self.tyvars.difference_update(opened)
        return self.close(links, ty)

    def ty_app(self) -> TypeExpr:
        tok = self.tokens[self.pos]
        if tok[0] == "ident" and tok[1] not in self.tyvars and self.signature.get(tok[1], 0) > 0:
            self.pos += 1
            arity = self.signature[tok[1]]
            args = tuple(self.ty_atom() for _ in range(arity))
            return Con(tok[1], args, span=self.span_from(tok))
        return self.ty_atom()

    def ty_atom(self) -> TypeExpr:
        kind, name, line, col = tok = self.tokens[self.pos]
        if kind == "ident":
            self.pos += 1
            span = _span(Span, (line, col, line, col + len(name)))
            if name in self.tyvars:
                return TVar(name, span=span)
            arity = self.signature.get(name)
            if arity == 0:
                return Con(name, span=span)
            if arity is not None:
                raise ParseError(f"constructor {name!r} expects {arity} argument(s)", line, col)
            raise ParseError(f"unbound type variable {name!r}", line, col)
        if kind == "lparen":
            self.pos += 1
            ty = self.type_()
            self.expect("rparen", "')'")
            return ty
        raise _expected(tok, "a type")

    # --- terms

    def term(self) -> Term:
        """A run of ``\\x.``, ``\\x : T.`` and ``/\\X.`` links, then an application.

        An application followed by a lambda takes that lambda, and with
        it the rest of the term, as its last argument: one more link.
        The nodes are built bottom-up once the run ends, like types'.
        Each binder is in scope until the run ends.  A run with no link,
        an application that no lambda follows, returns it at once.
        """
        toks = self.tokens
        tok = toks[self.pos]
        if tok[0] in ("lam", "tylam"):
            links: list[tuple] = []
        else:
            t = self.app()
            if toks[self.pos][0] not in ("lam", "tylam"):
                return t
            links = [(tok, App, t)]
        opened: list[str] = []
        while True:
            tok = toks[self.pos]
            kind = tok[0]
            if kind == "lam":
                self.pos += 1
                name = self.fresh_binder(self.expect("ident", "a variable"), True)
                ann = None
                if toks[self.pos][0] == "colon":
                    self.pos += 1
                    ann = self.type_()
                self.expect("dot", "'.'")
                self.bound.add(name)
                opened.append(name)
                links.append((tok, Lam, name, ann))
            elif kind == "tylam":
                self.pos += 1
                name = self.fresh_binder(self.expect("ident", "a type variable"), True)
                self.expect("dot", "'.'")
                self.bound.add(name)
                self.tyvars.add(name)
                opened.append(name)
                links.append((tok, TLam, name))
            else:
                t = self.app()
                if toks[self.pos][0] not in ("lam", "tylam"):
                    break
                links.append((tok, App, t))
        if opened:
            # a lambda's name was never a type variable, so removing it is harmless
            self.bound.difference_update(opened)
            self.tyvars.difference_update(opened)
        return self.close(links, t)

    def app(self) -> Term:
        """An atom applied to atoms and ``[T]`` type arguments, left to right."""
        toks = self.tokens
        start = toks[self.pos]
        t = self.atom()
        while True:
            kind = toks[self.pos][0]
            if kind == "ident" or kind == "lparen":
                arg = self.atom()
                t = App(t, arg, span=self.span_from(start))
            elif kind == "lbrack":
                self.pos += 1
                targ = self.type_()
                self.expect("rbrack", "']'")
                t = TApp(t, targ, span=self.span_from(start))
            else:
                return t

    def atom(self) -> Term:
        kind, name, line, col = tok = self.tokens[self.pos]
        if kind == "ident":
            self.pos += 1
            return Var(name, span=_span(Span, (line, col, line, col + len(name))))
        if kind == "lparen":
            self.pos += 1
            t = self.term()
            self.expect("rparen", "')'")
            return t
        raise _expected(tok, "a term")


def _declaration(parser: _Parser, tok: _Token) -> Decl:
    """The rest of the declaration that starts with keyword ``tok``."""
    match tok[0]:
        case "type":
            _, name, line, col = parser.expect("ident", "a constructor name")
            if name in parser.signature or name in parser.scope:
                raise ParseError(f"duplicate declaration of {name!r}", line, col)
            arity = 0
            if parser.peek()[0] == "int":
                arity = int(parser.advance()[1])
            parser.signature[name] = arity
            return ConDecl(name, arity, parser.span_from(tok))
        case "assume":
            _, name, line, col = parser.expect("ident", "a name")
            if name in parser.signature or name in parser.scope:
                raise ParseError(f"duplicate declaration of {name!r}", line, col)
            parser.expect("colon", "':'")
            ty = parser.type_()
            parser.scope.add(name)
            return Assume(name, ty, parser.span_from(tok))
        case "check":
            term = parser.term()
            parser.expect("colon", "':'")
            ty = parser.type_()
            return Goal(term, ty, parser.span_from(tok))
        case "synth":
            term = parser.term()
            return Goal(term, None, parser.span_from(tok))
    raise ParseError(f"expected a declaration, found {tok[1]!r}", tok[2], tok[3])


def parse_program(src: str) -> tuple[Decl, ...]:
    """Parse a whole source file into its declarations, in order.

    The source is lexed and parsed one run of ``_runs`` at a time.  The
    lexer's error comes first, as if the whole file were lexed before
    any of it is parsed: after a ParseError, the rest of the source is
    lexed, and an unexpected character there is the error raised.

    Chains of any length parse: arrows, ``forall``s, lambdas, type
    lambdas and applications are loops.  Only parentheses, brackets and
    constructor arguments nest by recursion, and a declaration nested
    deeper than the recursion limit allows is a ParseError at its first
    token, not a RecursionError.
    """
    parser = _Parser([], {}, frozenset())
    decls: list[Decl] = []
    runs = _runs(src)
    try:
        for run in runs:
            parser.tokens, parser.pos = run, 0
            last = len(run) - 1
            while parser.pos < last:
                tok = parser.advance()
                try:
                    decls.append(_declaration(parser, tok))
                except RecursionError:
                    raise ParseError("declaration is nested too deeply", tok[2], tok[3]) from None
    except ParseError:
        for _ in runs:
            pass
        raise
    return tuple(decls)


def _in_scope(src: str, ctx: Context) -> _Parser:
    """A parser over every token of ``src`` and "eof", in the scope of ``ctx``."""
    tokens = tokenize(src)
    tokens.append(_eof(tokens))
    return _Parser(tokens, dict(ctx.signature), ctx.names)


def parse_type(src: str, ctx: Context) -> TypeExpr:
    """Parse a single type in the scope of a context."""
    parser = _in_scope(src, ctx)
    parser.tyvars.update(ctx.dtv)
    ty = parser.type_()
    parser.finish("type")
    return ty


def parse_term(src: str, ctx: Context) -> Term:
    """Parse a single term in the scope of a context."""
    parser = _in_scope(src, ctx)
    parser.tyvars.update(ctx.dtv)
    term = parser.term()
    parser.finish("term")
    return term


def parse_declaration(keyword: str, src: str, ctx: Context) -> Decl:
    """Parse one declaration in the scope of a context, its keyword given apart.

    ``parse_declaration("assume", "f : Nat -> Nat", ctx)`` reads what
    ``assume f : Nat -> Nat`` declares in a source file: like a source
    file's top level, ``ctx`` has no type variables in scope.  Positions
    are those within ``src``.
    """
    parser = _in_scope(src, ctx)
    decl = _declaration(parser, (keyword, keyword, 1, 1))
    parser.finish("declaration")
    return decl


# ------------------------------------------------------- pretty-printing

_Rename = dict[str, str] | None


def pretty_type(ty: TypeExpr, rename: _Rename = None, prec: int = 0) -> str:
    """Render a type; precedence levels are forall(0) < arrow(1) < app(2).

    ``rename`` maps type variables and binders to the names shown.  The
    text is written into one list by ``_type_into`` and joined once.
    """
    out: list[str] = []
    _type_into(out, ty, rename, prec)
    return "".join(out)


def pretty_term(t: Term, rename: _Rename = None, prec: int = 0) -> str:
    """Render a term; lambdas bind loosest, application tightest.

    ``rename`` applies to type variables and type-lambda binders only.
    The text is written into one list by ``_term_into`` and joined once.
    """
    out: list[str] = []
    _term_into(out, t, rename, prec)
    return "".join(out)


def _type_into(out: list[str], ty: TypeExpr, rename: _Rename, prec: int) -> None:
    """Append the text of ``ty`` at precedence ``prec`` to ``out``.

    A chain of arrows and ``forall``s is one loop: each link that needs
    parentheses opens one, and all of them close where the chain ends.
    """
    append = out.append
    opened = 0
    while True:
        kind = type(ty)
        if kind is Arrow:
            if prec > 1:
                append("(")
                opened += 1
            _type_into(out, ty.dom, rename, 2)
            append(" -> ")
            ty, prec = ty.cod, 1
        elif kind is Forall:
            if prec > 0:
                append("(")
                opened += 1
            x = ty.bound
            append(f"forall {rename.get(x, x) if rename else x}. ")
            ty, prec = ty.body, 0
        elif kind is TVar:
            x = ty.name
            append(rename.get(x, x) if rename else x)
            break
        elif kind is Con:
            if ty.args and prec > 2:
                append("(")
                opened += 1
            append(ty.con)
            for arg in ty.args:
                append(" ")
                _type_into(out, arg, rename, 3)
            break
        else:
            raise TypeError(ty)
    if opened:
        append(")" * opened)


def _term_into(out: list[str], t: Term, rename: _Rename, prec: int) -> None:
    """Append the text of ``t`` at precedence ``prec`` to ``out``.

    A chain of lambdas and type lambdas is one loop, like a type's
    arrows, and so is an application's spine, walked down to its head
    and then written from the head out.
    """
    append = out.append
    opened = 0
    while True:
        kind = type(t)
        if kind is Lam or kind is TLam:
            if prec > 0:
                append("(")
                opened += 1
            x = t.bound
            if kind is TLam:
                append("/\\" + (rename.get(x, x) if rename else x))
            elif t.ann is None:
                append("\\" + x)
            else:
                append(f"\\{x} : ")
                _type_into(out, t.ann, rename, 1)
            append(". ")
            t, prec = t.body, 0
        elif kind is App or kind is TApp:
            spine = []
            while kind is App or kind is TApp:
                spine.append(t)
                t = t.fun
                kind = type(t)
            if prec > 1:
                append("(")
                opened += 1
            _term_into(out, t, rename, 1)
            for node in reversed(spine):
                if type(node) is App:
                    append(" ")
                    _term_into(out, node.arg, rename, 2)
                else:
                    append(" [")
                    _type_into(out, node.targ, rename, 0)
                    append("]")
            break
        elif kind is Var:
            append(t.name)
            break
        else:
            raise TypeError(t)
    if opened:
        append(")" * opened)
