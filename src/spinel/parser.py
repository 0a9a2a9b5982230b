"""Surface syntax: lexer, parser, and pretty-printers.

Programs are sequences of declarations: ``type`` introduces a
constructor (with an optional arity, default 0), ``assume`` binds a
name to a type, ``check t : T`` and ``synth t`` pose goals.  Terms use
backslash lambdas with optional annotations, ``/\\`` for type lambdas,
and ``t [T]`` for type application; ``--`` starts a line comment.

The parser is scope-aware: unbound type variables, binder shadowing,
and constructor arity violations are rejected here with positions, so
everything downstream works with well-scoped trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------- lexing


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def end_col(self) -> int:
        return self.col + len(self.text)


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>--[^\n]*)
      | (?P<nl>\n)
      | (?P<tylam>/\\)
      | (?P<arrow>->)
      | (?P<lam>\\)
      | (?P<dot>\.)
      | (?P<colon>:)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<lbrack>\[)
      | (?P<rbrack>\])
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)

KEYWORDS = frozenset({"type", "assume", "check", "synth", "forall"})


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "ident" and text in KEYWORDS:
                kind = text
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    return tokens


# --------------------------------------------------------------- parsing


@dataclass(frozen=True)
class ConDecl:
    name: str
    arity: int
    span: Span


@dataclass(frozen=True)
class Assume:
    name: str
    ty: TypeExpr
    span: Span


@dataclass(frozen=True)
class Goal:
    term: Term
    expected: TypeExpr | None
    span: Span


Decl = ConDecl | Assume | Goal


_ATOM_STARTERS = frozenset({"ident", "lparen"})


class _Parser:
    def __init__(self, tokens: list[Token], signature: dict[str, int], scope: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature
        self.scope = scope

    # --- token plumbing

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.eof_error("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.eof_error(f"expected {what}")
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def eof_error(self, message: str) -> ParseError:
        if self.tokens:
            last = self.tokens[-1]
            return ParseError(message, last.line, last.end_col)
        return ParseError(message, 1, 1)

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return self.eof_error(message)
        return ParseError(message, tok.line, tok.col)

    def span_from(self, start: Token) -> Span:
        last = self.tokens[self.pos - 1]
        return Span(start.line, start.col, last.line, last.end_col)

    def fresh_binder(self, tok: Token, tyvars: frozenset[str]) -> None:
        name = tok.text
        if name in self.signature:
            raise ParseError(f"{name!r} is already a constructor", tok.line, tok.col)
        if name in self.scope or name in tyvars:
            raise ParseError(f"{name!r} shadows an existing binding", tok.line, tok.col)

    # --- types

    def type_(self, tyvars: frozenset[str]) -> TypeExpr:
        start = self.peek()
        if start is not None and start.kind == "forall":
            self.advance()
            name = self.expect("ident", "a type variable")
            self.fresh_binder(name, tyvars)
            self.expect("dot", "'.'")
            body = self.type_(tyvars | {name.text})
            return Forall(name.text, body, span=self.span_from(start))
        return self.arrow(tyvars)

    def arrow(self, tyvars: frozenset[str]) -> TypeExpr:
        start = self.peek()
        left = self.ty_app(tyvars)
        if self.at("arrow"):
            self.advance()
            right = self.type_(tyvars)
            return Arrow(left, right, span=self.span_from(start))
        return left

    def ty_app(self, tyvars: frozenset[str]) -> TypeExpr:
        tok = self.peek()
        if (
            tok is not None
            and tok.kind == "ident"
            and tok.text not in tyvars
            and self.signature.get(tok.text, 0) > 0
        ):
            self.advance()
            arity = self.signature[tok.text]
            args = tuple(self.ty_atom(tyvars) for _ in range(arity))
            return Con(tok.text, args, span=self.span_from(tok))
        return self.ty_atom(tyvars)

    def ty_atom(self, tyvars: frozenset[str]) -> TypeExpr:
        tok = self.peek()
        if tok is None:
            raise self.eof_error("expected a type")
        if tok.kind == "lparen":
            self.advance()
            ty = self.type_(tyvars)
            self.expect("rparen", "')'")
            return ty
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            span = Span(tok.line, tok.col, tok.line, tok.end_col)
            if name in tyvars:
                return TVar(name, span=span)
            arity = self.signature.get(name)
            if arity == 0:
                return Con(name, span=span)
            if arity is not None:
                raise ParseError(
                    f"constructor {name!r} expects {arity} argument(s)", tok.line, tok.col
                )
            raise ParseError(f"unbound type variable {name!r}", tok.line, tok.col)
        raise ParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)

    # --- terms

    def term(self, bound: frozenset[str], tyvars: frozenset[str]) -> Term:
        tok = self.peek()
        if tok is not None and tok.kind == "lam":
            self.advance()
            name = self.expect("ident", "a variable")
            self.fresh_binder(name, tyvars | bound)
            ann = None
            if self.at("colon"):
                self.advance()
                ann = self.type_(tyvars)
            self.expect("dot", "'.'")
            body = self.term(bound | {name.text}, tyvars)
            return Lam(name.text, ann, body, span=self.span_from(tok))
        if tok is not None and tok.kind == "tylam":
            self.advance()
            name = self.expect("ident", "a type variable")
            self.fresh_binder(name, tyvars | bound)
            self.expect("dot", "'.'")
            body = self.term(bound | {name.text}, tyvars | {name.text})
            return TLam(name.text, body, span=self.span_from(tok))
        return self.app(bound, tyvars)

    def app(self, bound: frozenset[str], tyvars: frozenset[str]) -> Term:
        start = self.peek()
        t = self.atom(bound, tyvars)
        while True:
            tok = self.peek()
            if tok is None:
                return t
            if tok.kind == "lbrack":
                self.advance()
                targ = self.type_(tyvars)
                self.expect("rbrack", "']'")
                t = TApp(t, targ, span=self.span_from(start))
            elif tok.kind in _ATOM_STARTERS or tok.kind in ("lam", "tylam"):
                arg = (
                    self.term(bound, tyvars)
                    if tok.kind in ("lam", "tylam")
                    else self.atom(bound, tyvars)
                )
                t = App(t, arg, span=self.span_from(start))
            else:
                return t

    def atom(self, bound: frozenset[str], tyvars: frozenset[str]) -> Term:
        tok = self.peek()
        if tok is None:
            raise self.eof_error("expected a term")
        if tok.kind == "lparen":
            self.advance()
            t = self.term(bound, tyvars)
            self.expect("rparen", "')'")
            return t
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text, span=Span(tok.line, tok.col, tok.line, tok.end_col))
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)


def _declaration(parser: _Parser, tok: Token) -> Decl:
    """The rest of the declaration that starts with keyword ``tok``."""
    match tok.kind:
        case "type":
            name = parser.expect("ident", "a constructor name")
            if name.text in parser.signature or name.text in parser.scope:
                raise ParseError(f"duplicate declaration of {name.text!r}", name.line, name.col)
            arity = 0
            if parser.at("int"):
                arity = int(parser.advance().text)
            parser.signature[name.text] = arity
            return ConDecl(name.text, arity, parser.span_from(tok))
        case "assume":
            name = parser.expect("ident", "a name")
            if name.text in parser.signature or name.text in parser.scope:
                raise ParseError(f"duplicate declaration of {name.text!r}", name.line, name.col)
            parser.expect("colon", "':'")
            ty = parser.type_(frozenset())
            parser.scope = parser.scope | {name.text}
            return Assume(name.text, ty, parser.span_from(tok))
        case "check":
            term = parser.term(parser.scope, frozenset())
            parser.expect("colon", "':'")
            ty = parser.type_(frozenset())
            return Goal(term, ty, parser.span_from(tok))
        case "synth":
            term = parser.term(parser.scope, frozenset())
            return Goal(term, None, parser.span_from(tok))
    raise ParseError(f"expected a declaration, found {tok.text!r}", tok.line, tok.col)


def parse_program(src: str) -> tuple[Decl, ...]:
    """Parse a whole source file into its declarations, in order.

    A declaration nested deeper than the parser's recursion allows is a
    ParseError at its first token, not a RecursionError.
    """
    parser = _Parser(tokenize(src), {}, frozenset())
    decls: list[Decl] = []
    while parser.peek() is not None:
        tok = parser.advance()
        try:
            decls.append(_declaration(parser, tok))
        except RecursionError:
            raise ParseError("declaration is nested too deeply", tok.line, tok.col) from None
    return tuple(decls)


def parse_type(src: str, ctx: Context) -> TypeExpr:
    """Parse a single type in the scope of a context."""
    parser = _Parser(tokenize(src), dict(ctx.signature), ctx.names)
    ty = parser.type_(ctx.dtv)
    if parser.peek() is not None:
        raise parser.error("trailing input after type")
    return ty


def parse_term(src: str, ctx: Context) -> Term:
    """Parse a single term in the scope of a context."""
    parser = _Parser(tokenize(src), dict(ctx.signature), ctx.names)
    bound = ctx.names - ctx.dtv
    term = parser.term(bound, ctx.dtv)
    if parser.peek() is not None:
        raise parser.error("trailing input after term")
    return term


def parse_declaration(keyword: str, src: str, ctx: Context) -> Decl:
    """Parse one declaration in the scope of a context, its keyword given apart.

    ``parse_declaration("assume", "f : Nat -> Nat", ctx)`` reads what
    ``assume f : Nat -> Nat`` declares in a source file: like a source
    file's top level, ``ctx`` has no type variables in scope.  Positions
    are those within ``src``.
    """
    parser = _Parser(tokenize(src), dict(ctx.signature), ctx.names)
    decl = _declaration(parser, Token(keyword, keyword, 1, 1))
    if parser.peek() is not None:
        raise parser.error("trailing input after declaration")
    return decl


# ------------------------------------------------------- pretty-printing

_Rename = dict[str, str] | None


def _nm(name: str, rename: _Rename) -> str:
    return rename.get(name, name) if rename else name


def pretty_type(ty: TypeExpr, rename: _Rename = None, prec: int = 0) -> str:
    """Render a type; precedence levels are forall(0) < arrow(1) < app(2)."""
    match ty:
        case TVar(name=n):
            return _nm(n, rename)
        case Con(con=c, args=()):
            return c
        case Con(con=c, args=args):
            body = c + " " + " ".join(pretty_type(a, rename, 3) for a in args)
            level = 2
        case Arrow(dom=d, cod=c):
            body = pretty_type(d, rename, 2) + " -> " + pretty_type(c, rename, 1)
            level = 1
        case Forall(bound=x, body=b):
            body = f"forall {_nm(x, rename)}. " + pretty_type(b, rename, 0)
            level = 0
        case _:
            raise TypeError(ty)
    return f"({body})" if level < prec else body


def pretty_term(t: Term, rename: _Rename = None, prec: int = 0) -> str:
    """Render a term; lambdas bind loosest, application tightest."""
    match t:
        case Var(name=n):
            return n
        case Lam(bound=x, ann=None, body=b):
            body = f"\\{x}. " + pretty_term(b, rename, 0)
            level = 0
        case Lam(bound=x, ann=ann, body=b):
            body = f"\\{x} : " + pretty_type(ann, rename, 1) + ". " + pretty_term(b, rename, 0)
            level = 0
        case TLam(bound=x, body=b):
            body = f"/\\{_nm(x, rename)}. " + pretty_term(b, rename, 0)
            level = 0
        case App(fun=f, arg=a):
            body = pretty_term(f, rename, 1) + " " + pretty_term(a, rename, 2)
            level = 1
        case TApp(fun=f, targ=s):
            body = pretty_term(f, rename, 1) + " [" + pretty_type(s, rename, 0) + "]"
            level = 1
        case _:
            raise TypeError(t)
    return f"({body})" if level < prec else body
