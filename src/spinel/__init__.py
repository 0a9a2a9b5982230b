"""Spine-local type inference for System F.

The engine infers omitted lambda annotations and type arguments by
confining meta-variables to the application spine that minted them,
and elaborates accepted terms to fully annotated System F.

This module exports the entry points the README documents; everything
else is imported from its submodule (``spinel.syntax``, ``spinel.oracle``,
...).
"""

from .infer import Check, Diagnostic, Synthesize, infer, spine_infer
from .internal import check_internal
from .matcher import match_proto
from .oracle import search_spec, verify_spec
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
