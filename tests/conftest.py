"""Shared test helpers: a standard context, parser-backed builders and a call counter."""

from __future__ import annotations

from spinel import parse_term, parse_type
from spinel.oracle import standard_context

CTX = standard_context()


def ty(src, ctx=None):
    """Parse a type in the standard context."""
    return parse_type(src, ctx if ctx is not None else CTX)


def tm(src, ctx=None):
    """Parse a term in the standard context."""
    return parse_term(src, ctx if ctx is not None else CTX)


def count_calls(monkeypatch, name, modules):
    """Count calls to the function ``name`` through each module binding it."""
    calls = [0]
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod in modules:
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)
    return calls
