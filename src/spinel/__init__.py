"""Spine-local type inference for System F.

The engine infers omitted lambda annotations and type arguments by
confining meta-variables to the application spine that minted them,
and elaborates accepted terms to fully annotated System F.

This module exports the entry points the README documents, the oracle's
two on first use; everything else is imported from its submodule
(``spinel.syntax``, ``spinel.oracle``, ...).
"""

from .infer import Check, Diagnostic, Synthesize, infer, spine_infer
from .internal import check_internal
from .matcher import match_proto
from .parser import parse_term, parse_type, pretty_term, pretty_type

__all__ = [
    "Check",
    "Diagnostic",
    "Synthesize",
    "check_internal",
    "infer",
    "match_proto",
    "parse_term",
    "parse_type",
    "pretty_term",
    "pretty_type",
    "search_spec",
    "spine_infer",
    "verify_spec",
]


def __getattr__(name):  # PEP 562: a run that replays nothing never loads the oracle
    if name in ("search_spec", "verify_spec"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), "search_spec", "verify_spec"]
