"""Spans and call counts around the program's module boundaries.

The tracer wraps the public functions of every ``spinel`` module (and
the private ones another module imports, such as ``matcher._match``)
in every module namespace that binds them, so calls between modules go
through the wrappers too.  Nothing under ``src/`` changes.

Each wrapped function belongs to a layer.  A call opens a span only
where it crosses into another layer; a call inside the same layer, or
into a helper of the same module, only counts.  Spans are kept in memory
as flat (layer, parent, start, end) records and written out when the
tracer is removed; a layer's self time is its spans' durations minus the
part their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

MODULES = ("syntax", "parser", "matcher", "infer", "internal", "oracle", "cli")

# Functions whose layer is not simply their module's.  Everything else in
# a module is a helper: called from its own module it stays in the
# caller's layer, called from elsewhere it opens the module's layer.
LAYERS = {
    "parser.tokenize": "parser.tokenize",
    **{f"parser.{n}": "parser.parse" for n in (
        "parse_program", "parse_term", "parse_type", "parse_goal", "parse_assume", "parse_con_decl")},
    **{f"parser.{n}": "parser.pretty" for n in (
        "pretty_type", "pretty_term", "pretty_proto", "pretty_decorated")},
    **{f"syntax.Context.{n}": "syntax.context" for n in ("with_term", "with_type_var", "with_con")},
    "oracle.verify_spec": "oracle.verify",
    **{f"oracle.{n}": "oracle.search" for n in (
        "search_spec", "default_candidates", "passes_side_conditions", "canonical_triple_key")},
    "cli.render_diagnostic": "cli.render",
    "cli.diagnostic_json": "cli.render",
}
METHODS = {"syntax": {"Context": ("with_term", "with_type_var", "with_con"), "NameSupply": ("fresh_meta",)}}
BENCH_LAYER = "bench"


class Tracer:
    def __init__(self) -> None:
        self.mods = {m: importlib.import_module(f"spinel.{m}") for m in MODULES}
        self.mods["spinel"] = importlib.import_module("spinel")
        self.layers = [BENCH_LAYER]
        self.calls: Counter[str] = Counter()
        self.tokens = 0
        self.derivations = 0
        self.accepted = 0
        self.diagnostics = 0
        self.spans = array("q")  # layer, parent span, start ns, end ns
        self._stack = [(0, -1)]  # (layer id, span index)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------- install

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _targets(self) -> dict[int, tuple[str, object]]:
        """Every function to wrap, by identity, with its qualified name."""
        found: dict[int, tuple[str, object]] = {}
        imported = {
            id(v) for name, mod in self.mods.items() for v in vars(mod).values()
            if inspect.isfunction(v) and v.__module__ != mod.__name__
        }
        for m in MODULES:
            mod = self.mods[m]
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    if not name.startswith("_") or id(fn) in imported:
                        found[id(fn)] = (f"{m}.{name}", fn)
        return found

    def install(self) -> None:
        wrappers = {key: self._wrap(qual, fn) for key, (qual, fn) in self._targets().items()}
        for mod in self.mods.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, name, wrappers[id(value)])
        for m, classes in METHODS.items():
            for cls_name, names in classes.items():
                cls = getattr(self.mods[m], cls_name, None)
                for name in names:
                    if cls is not None and inspect.isfunction(vars(cls).get(name)):
                        self._set(cls, name, self._wrap(f"{m}.{cls_name}.{name}", vars(cls)[name]))

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self, out: Path | None = None) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
        if out is not None:
            out.parent.mkdir(parents=True, exist_ok=True)
            with open(out, "wb") as handle:
                self.spans.tofile(handle)
            out.with_suffix(".layers.json").write_text(json.dumps(self.layers))

    def _wrap(self, qual: str, fn):
        module = qual.split(".")[0]
        explicit = LAYERS.get(qual)
        own = self._layer_id(explicit or module)
        # layers under which a call stays in the caller's span
        if explicit:
            stay = {own}
        else:
            stay = {self._layer_id(layer) for layer in (module, *LAYERS.values())
                    if layer.split(".")[0] == module}
        calls, stack, spans = self.calls, self._stack, self.spans
        post = self._post(qual)

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if stack[-1][0] in stay:
                return fn(*args, **kwargs) if post is None else post(fn, args, kwargs)
            index = len(spans) >> 2
            spans.extend((own, stack[-1][1], perf_counter_ns(), 0))
            stack.append((own, index))
            try:
                return fn(*args, **kwargs) if post is None else post(fn, args, kwargs)
            finally:
                spans[4 * index + 3] = perf_counter_ns()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _post(self, qual: str):
        """Result-dependent counters for a few functions."""
        if qual == "parser.tokenize":
            def post(fn, args, kwargs):
                toks = fn(*args, **kwargs)
                self.tokens += len(toks)
                return toks
        elif qual == "oracle.search_spec":
            def post(fn, args, kwargs):
                triples = fn(*args, **kwargs)
                self.derivations += len(triples)
                return triples
        elif qual == "infer.infer":
            diagnostic = self.mods["infer"].Diagnostic

            def post(fn, args, kwargs):
                try:
                    out = fn(*args, **kwargs)
                except diagnostic:
                    self.diagnostics += 1
                    raise
                self.accepted += 1
                return out
        else:
            return None
        return post

    # ------------------------------------------------------- results

    def self_ms(self) -> dict[str, float]:
        """Self time per layer: span time minus time in child spans."""
        spans = self.spans
        n = len(spans) >> 2
        child = [0] * n
        total: Counter[str] = Counter()
        for i in range(n - 1, -1, -1):
            layer, parent, start, end = spans[4 * i : 4 * i + 4]
            dur = end - start
            total[self.layers[layer]] += dur - child[i]
            if parent >= 0:
                child[parent] += dur
        return {layer: total[layer] / 1e6 for layer in self.layers}
