"""A fixed yardstick for how fast the machine runs Python right now.

The machine this benchmark was tuned on changes speed by up to 2x in
phases lasting seconds to minutes (other tenants contend for its cores
and caches), far more than the bounds in BENCHMARK.json.  Every timed
unit of work is therefore bracketed by this routine, and its times are
divided by how much slower than ``REFERENCE_S`` the routine ran.  The
routine does the kind of work the program does (frozen dataclasses,
pattern matching, dictionaries, recursion, tokenizing, printing, JSON)
but calls nothing in ``spinel``, so no change to the program moves it.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from dataclasses import dataclass
from time import perf_counter

# the routine's time on a 2-core x86-64 VM under Python 3.11.7, quiet phase
REFERENCE_S = 0.012

_SOURCE = "\n".join(
    f"def f{i}(x, y=({i}, 'a')):\n    return [x + y[0] for _ in range({i})] or {{'k': x}}\n"
    for i in range(12)
)
_TREE = ast.parse(_SOURCE)


@dataclass(frozen=True)
class _Node:
    key: int
    left: object
    right: object


def _build(depth: int, key: int):
    if depth == 0:
        return None
    return _Node(key, _build(depth - 1, 2 * key), _build(depth - 1, 2 * key + 1))


def _walk(node, env: dict) -> int:
    match node:
        case None:
            return 0
        case _Node(key=k, left=left, right=right):
            if k % 3 == 0:
                env = {**env, k & 7: k}
            return 1 + _walk(left, env) + _walk(right, env) + len(env)
    raise TypeError(node)


def _work() -> int:
    n = _walk(_build(10, 1), {})
    n += len(ast.unparse(_TREE))
    n += sum(1 for _ in tokenize.generate_tokens(io.StringIO(_SOURCE).readline))
    n += len(json.dumps([{"goal": i, "type": "Nat -> Nat", "args": [i] * 5} for i in range(200)]))
    return n


def slowness() -> float:
    """The routine's time now over its reference time."""
    start = perf_counter()
    _work()
    _work()
    return (perf_counter() - start) / REFERENCE_S
