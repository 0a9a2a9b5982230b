"""Command line interface: batch file runner and interactive loop.

``spinel run file`` type-checks every goal in a source file, printing
human-readable reports or NDJSON (one object per goal) with ``--json``.
It answers a block at a time, at most 256 goals that share one
context: it parses the block, infers every goal, renders every report
and writes them at once (in process, answering goal by goal ran 25-45%
slower), and holds one block's trees and one context, not the file's.
Each type in a diagnostic is printed once, straight into the text
lines or the NDJSON record that is written.  A declaration that does
not parse ends only itself, reported after the goals before it.  ``spinel repl``
offers the same engine interactively.  Exit codes, the largest over the
declarations: 0 a goal succeeds, 1 it fails with a diagnostic, 2 it
does not parse, 3 an internal invariant or a declarative replay fails,
or it hits the resource limit; 2 also if the input cannot be read, or
standard output is closed before the reports are written.

Chains of any length parse and print; only argument and parenthesis
nesting is bounded by Python's recursion limit there.  A declaration
nested too deeply to parse is a parse error at its first token, and a
goal nested or chained too deeply to type-check, print or replay
reports status ``resource-limit``; the goals after either still run.
The interactive loop reads each command as a line of a source file,
through the same reader, so it prints a ``parse error:`` line for the
first and an ``error:`` line for the second, and keeps going.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .infer import (
    Check,
    Diagnostic,
    DiagnosticKind,
    EngineInvariantError,
    InferOutcome,
    Synthesize,
    infer,
)
from .parser import (
    Assume,
    ConDecl,
    Goal,
    ParseError,
    _declarations,
    _Parser,
    pretty_term,
    pretty_type,
)
from .syntax import Context, TypeExpr

_HEADLINES = {
    DiagnosticKind.UNANNOTATED_LAMBDA: "cannot synthesize a type for an unannotated function",
    DiagnosticKind.UNSOLVED_META_VARIABLES: "cannot determine all type arguments",
    DiagnosticKind.APPLICAND_NOT_ARROW: "applicand is not a function",
    DiagnosticKind.APPLICAND_NOT_FORALL: "applicand is not polymorphic",
    DiagnosticKind.TYPE_MISMATCH: "type mismatch",
    DiagnosticKind.SOLUTION_CONFLICT: "conflicting requirements on a type argument",
    DiagnosticKind.EXPLICIT_ARG_CONFLICT: "explicit type argument conflicts with an inferred one",
    DiagnosticKind.UNBOUND_NAME: "unbound name",
}

_RED = "\x1b[31m"
_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"
_BLOCK = 256  # goals per block of ``spinel run``, all in one context; one block's trees at most are alive
_SYNTHESIZE = Synthesize()  # the mode of every synth goal
_json_str = json.encoder.encode_basestring_ascii  # a str as ``json.dumps`` writes it


def _use_color() -> bool:
    """``always`` or ``never``; any other value means auto."""
    env = os.environ.get("SPINEL_COLOR", "").lower()
    if env in ("always", "never"):
        return env == "always"
    return sys.stdout.isatty()


# ----------------------------------------------------- diagnostic output


# the labels of the expected and synthesized lines where they are not "expected type" and "synthesized type"
_KIND_LABELS = {
    DiagnosticKind.EXPLICIT_ARG_CONFLICT: ("inferred type argument", "explicit type argument"),
    DiagnosticKind.APPLICAND_NOT_ARROW: ("expected type", "applicand type"),
    DiagnosticKind.APPLICAND_NOT_FORALL: ("expected type", "applicand type"),
}
# the fields of a diagnostic's record that ``_shown`` gives, in record order
_SHOWN = ("expected", "resolved", "bindings", "synthesized", "unsolved", "contextual_match", "synthetic_match", "detail")


def _shown(d: Diagnostic, expected: str | None = None) -> tuple:
    """The value in ``diagnostic_json(d)`` of each field of ``_SHOWN``, or
    None where it has none, each type printed once with ``d.display``.
    ``expected`` is the text of ``d.expected`` if the caller has it already."""
    rn = d.display
    cm, sm = d.contextual_match, d.synthetic_match
    return (
        pretty_type(d.expected, rn) if expected is None and d.expected is not None else expected,
        None if d.resolved is None else pretty_type(d.resolved, rn),
        {rn.get(name, name): pretty_type(d.bindings[name], rn) for name in sorted(d.bindings)} if d.bindings else None,
        None if d.synthesized is None else pretty_type(d.synthesized, rn),
        [rn.get(m, m) for m in sorted(d.unsolved)] if d.unsolved else None,
        None if cm is None else {"partial": pretty_type(cm.partial, rn), "against": pretty_type(cm.against, rn)},
        None if sm is None else {"partial": pretty_type(sm.partial, rn), "against": pretty_type(sm.against, rn),
                                 "arg_index": sm.arg_index},
        d.detail,
    )


def _text(d: Diagnostic, shown: tuple, color: bool, indent: str) -> str:
    """The text report of ``d`` from its ``_shown`` values, each line after
    ``indent``; ``bindings`` show under ``expected``, ``unsolved`` under
    ``synthesized``, and ``resolved`` in NDJSON only."""
    expected, _, bindings, synthesized, unsolved, cm, sm, detail = shown
    span = d.span
    head = f"error: {_HEADLINES[d.kind]}" + ("" if span is None else f" at {span.line}:{span.col}")
    bold, reset = (_BOLD, _RESET) if color else ("", "")
    lines = [f"{indent}{_RED}{head}{_RESET}" if color else indent + head]
    expected_label, synthesized_label = _KIND_LABELS.get(d.kind, ("expected type", "synthesized type"))
    if expected is not None:
        lines.append(f"{indent}  {bold}{expected_label}:{reset} {expected}")
        if bindings:
            lines += [f"{indent}    {name} := {text}" for name, text in bindings.items()]
    if synthesized is not None:
        lines.append(f"{indent}  {bold}{synthesized_label}:{reset} {synthesized}")
        if unsolved:
            lines.append(f"{indent}  {bold}unsolved:{reset} {', '.join(unsolved)}")
    if cm is not None:
        lines.append(f"{indent}  {bold}contextual match:{reset} {cm['partial']} := {cm['against']}")
    if sm is not None:
        label = f"synthetic match (argument {sm['arg_index']})"
        lines.append(f"{indent}  {bold}{label}:{reset} {sm['partial']} := {sm['against']}")
    if detail is not None:
        lines.append(f"{indent}  {bold}note:{reset} {detail}")
    return "\n".join(lines)


def render_diagnostic(d: Diagnostic, color: bool = False) -> str:
    """The text form of ``diagnostic_json(d)``: a head line, then a labelled
    line per field; ``resolved`` is shown in NDJSON only."""
    return _text(d, _shown(d), color, "")


def diagnostic_json(d: Diagnostic) -> dict:
    """The one record of a diagnostic, its types rendered with its display
    names; ``unsolved`` lists the metas an unsolved-meta-variables
    diagnostic leaves open in the elaboration, in name order."""
    return _record(d, _shown(d))


def _record(d: Diagnostic, shown: tuple) -> dict:
    """``diagnostic_json(d)`` from its ``_shown`` values: the kind, message
    and span, then each shown field that is not None."""
    out: dict = {"kind": d.kind.value, "message": _HEADLINES[d.kind]}
    if d.span is not None:
        out["span"] = d.span._asdict()
    out.update((key, value) for key, value in zip(_SHOWN, shown) if value is not None)
    return out


# ------------------------------------------------------------ batch mode


def _spec_report(ctx: Context, expected: TypeExpr | None, term, out: InferOutcome) -> dict:
    """The goal's ``spec`` record: the triple its own run produced for its
    outermost application spine, replayed against the declarative rules.

    Any other goal reports ``skipped``; spines nested in a lambda body or
    an argument are not replayed.
    """
    if out.spine is None:
        return {"skipped": True}
    from .oracle import verify_spec  # only a replay loads the oracle
    triple = (out.spine.deco, out.spine.partial, out.spine.solution)
    verdict = verify_spec(ctx, expected, term, triple)
    record = {"accepted": verdict.accepted, "trace": list(verdict.trace)}
    if not verdict.accepted:
        record["reason"] = verdict.reason
    return record


def _spec_line(spec: dict) -> str:
    """The text ``spec:`` line of a ``spec`` record."""
    if "skipped" in spec:
        return "spec: skipped (not an application spine)"
    if spec["accepted"]:
        return "spec: accepted (" + " ".join(spec["trace"]) + ")"
    return f"spec: rejected: {spec['reason']}"


def _run_goal(ctx: Context, goal: Goal, count: int, out, trace, args, color: bool) -> tuple[int, str]:
    """One goal's exit code and report, NDJSON or text, from ``out``: what
    ``infer`` returned or raised, or None if the goal nests too deeply.

    Each part of the report is rendered once, and only into the form that
    is printed.  An NDJSON line is written with its keys as literal text,
    each string through ``_json_str`` and each int through ``str``, so it
    is byte for byte what ``json.dumps`` writes for the record; only the
    nested ``diagnostic``, ``trace`` and ``spec`` values go through
    ``json.dumps``.  A text report is its header line and then its lines.
    """
    term, expected = goal.term, goal.expected
    mode = "synth" if expected is None else "check"
    if out is None:
        message = f"goal at {goal.span.line}:{goal.span.col} is nested too deeply"
        if args.json:
            return 3, (f'{{"goal": {count}, "mode": "{mode}", "status": "resource-limit", '
                       f'"message": {_json_str(message)}}}')
        return 3, f"[{count}] {mode}\n    resource limit: {message}\n"
    term_text = pretty_term(term)
    expected_text = None if expected is None else pretty_type(expected)
    if args.json:
        head = f'{{"goal": {count}, "mode": "{mode}", "term": {_json_str(term_text)}'
        if expected_text is not None:
            head += f', "expected": {_json_str(expected_text)}'
    else:
        head = f"[{count}] {mode} {term_text}"
        if expected_text is not None:
            head += f" : {expected_text}"

    if isinstance(out, Diagnostic):
        # A goal's parsed type holds no reserved ``?`` name, so the display
        # names rename nothing in it: where the diagnostic expects the goal's
        # own type, its text is the head's.
        shown = _shown(out, expected_text if out.expected is expected else None)
        if args.json:
            return 1, f'{head}, "status": "error", "diagnostic": {json.dumps(_record(out, shown))}}}'
        return 1, f"{head}\n{_text(out, shown, color, '    ')}\n"
    if isinstance(out, EngineInvariantError):
        if args.json:
            return 3, f'{head}, "status": "internal-error", "message": {_json_str(str(out))}}}'
        return 3, f"{head}\n    internal error: {out}\n"

    type_text = pretty_type(out.ty)
    elaboration = None
    if args.elab:  # an elaboration that is its term's own tree has its text already
        elaboration = term_text if out.elaboration is term else pretty_term(out.elaboration)
    spec = _spec_report(ctx, expected, term, out) if args.spec_verify else None
    code = 3 if spec is not None and spec.get("accepted") is False else 0
    if args.json:
        line = f'{head}, "status": "ok", "type": {_json_str(type_text)}'
        if elaboration is not None:
            line += f', "elaboration": {_json_str(elaboration)}'
        if trace is not None:
            line += f', "trace": {json.dumps(trace)}'
        if spec is not None:
            line += f', "spec": {json.dumps(spec)}'
        return code, line + "}"
    lines = [head, f"    type: {type_text}"]
    if elaboration is not None:
        lines.append(f"    elaboration: {elaboration}")
    if trace is not None:
        lines.append("    trace: " + " ".join(trace))
    if spec is not None:
        lines.append("    " + _spec_line(spec))
    return code, "\n".join(lines) + "\n"


def _outcome(ctx: Context, goal: Goal, trace: list[str] | None = None):
    """What ``infer`` returns for ``goal`` in ``ctx``, the Diagnostic or
    EngineInvariantError it raises, or None if the goal nests too deeply."""
    try:
        return infer(ctx, _SYNTHESIZE if goal.expected is None else Check(goal.expected), goal.term, trace=trace)
    except (Diagnostic, EngineInvariantError) as exc:
        # Kept without its traceback, so that it pins no frame: not this
        # one, nor the engine's frames that an engine error keeps.
        return exc.with_traceback(None)
    except RecursionError:
        return None


def _answer(ctx: Context, goals: list[Goal], count: int, args, color: bool) -> int:
    """Answer a block of goals in ``ctx``, numbered from ``count + 1``: infer
    each, render each report, write them all at once; the largest exit code."""
    answered = []
    for goal in goals:
        trace = [] if args.trace else None
        answered.append((goal, _outcome(ctx, goal, trace), trace))
    results = []
    for count, (goal, out, trace) in enumerate(answered, count + 1):
        try:
            results.append(_run_goal(ctx, goal, count, out, trace, args, color))
        except RecursionError:  # too deep to print or to replay
            results.append(_run_goal(ctx, goal, count, None, trace, args, color))
    sys.stdout.write("".join(f"{report}\n" for _, report in results))
    return max((code for code, _ in results), default=0)


def _paused(command, *args) -> int:
    """``command(*args)`` with the cyclic collector paused, and the collector
    restored as found on every way out.  The trees that ``spinel run`` and
    ``spinel repl`` build are acyclic, so a cyclic collection would walk
    them and free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return command(*args)
    finally:
        if enabled:
            gc.enable()


def _run_file(args: argparse.Namespace) -> int:
    try:
        # a byte that is not UTF-8 reaches the lexer as a lone surrogate,
        # an unexpected character of its own declaration
        handle = open(args.file, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    color = _use_color() and not args.json
    code = count = 0
    ctx = Context.empty()
    assumed: list[Assume] = []  # the run of assumes since the last goal
    goals: list[Goal] = []  # the block: goals that share ``ctx``
    with handle:
        for decl in _declarations(handle, _Parser()):
            kind = type(decl)
            if kind is Goal:
                if assumed:  # the block is empty: the assume before it ended one
                    ctx, assumed = ctx._extend([a.name for a in assumed], [a.ty for a in assumed]), []
                goals.append(decl)
                if len(goals) < _BLOCK:
                    continue
            if goals:  # a full block, or one that any other declaration ends
                code = max(code, _answer(ctx, goals, count, args, color))
                count += len(goals)
                goals.clear()
            if kind is Assume:
                assumed.append(decl)
            elif kind is ConDecl:
                ctx = ctx.with_con(decl.name, decl.arity)
            elif kind is ParseError:
                code = max(code, 2)
                if args.json:
                    print(f'{{"status": "parse-error", "line": {decl.line}, "col": {decl.col}, '
                          f'"message": {_json_str(decl.message)}}}')
                else:
                    sys.stdout.flush()  # so that the reports before it come first
                    print(f"parse error: {decl}", file=sys.stderr)
        return max(code, _answer(ctx, goals, count, args, color))  # the file's last block


# ------------------------------------------------------------- interactive

_REPL_HELP = """commands:
  :type Name [arity]    declare a type constructor
  :assume name : T      bind a name to a type
  :check t : T          check a term against a type
  :synth t              synthesize a type for a term
  :quit                 leave"""


def repl() -> int:
    """The interactive loop, with the collector paused as ``spinel run`` has it."""
    return _paused(_session)


def _session() -> int:
    color = _use_color()
    print("spinel interactive loop; :quit to leave, :help for commands")
    ctx = Context.empty()
    parser = _Parser()  # the session's: it knows every name declared so far, as ``ctx`` does
    while True:
        try:
            line = input("spinel> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        words = line.split(None, 1)  # the command word ends at any whitespace, a tab too
        if not words:
            continue
        cmd = words[0]
        if cmd in (":quit", ":q"):
            return 0
        if cmd == ":help":
            print(_REPL_HELP)
        elif cmd in (":type", ":assume", ":check", ":synth"):
            # read as a line of a source file, its ``:`` a blank so that columns are as typed
            for decl in _declarations([line.replace(":", " ", 1)], parser):
                ctx = _command(ctx, decl, color)
        else:
            print(f"unknown command {cmd!r}; :help lists commands")


def _command(ctx: Context, decl, color: bool) -> Context:
    """Carry out one declaration the interactive loop read, or report the
    ParseError read in its place; the context it leaves."""
    kind = type(decl)
    try:
        if kind is ParseError:
            print(f"parse error: {decl}")
        elif kind is ConDecl:
            ctx = ctx.with_con(decl.name, decl.arity)
            print(f"type {decl.name}" + (f" {decl.arity}" if decl.arity else ""))
        elif kind is Assume:
            ctx = ctx.with_term(decl.name, decl.ty)
            print(f"{decl.name} : {pretty_type(decl.ty)}")
        elif (out := _outcome(ctx, decl)) is None:
            raise RecursionError  # reported as one raised while printing is
        elif isinstance(out, Diagnostic):
            print(render_diagnostic(out, color))
        elif isinstance(out, EngineInvariantError):
            print(f"internal error: {out}")
        else:
            print(f"{'type' if decl.expected is None else 'ok'}: {pretty_type(out.ty)}")
            print(f"elaboration: {pretty_term(out.elaboration)}")
    except RecursionError:  # too deep to answer or to print
        print("error: input is nested too deeply")
    return ctx


# ------------------------------------------------------------- entry point


# built once per process: building costs several times what one parse does
@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinel",
        description="Spine-local type inference for System F",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="type-check every goal in a file")
    run.add_argument("file", help="source file of declarations and goals")
    run.add_argument("--elab", action="store_true", help="print elaborated terms")
    run.add_argument("--json", action="store_true", help="emit one JSON object per goal")
    run.add_argument("--trace", action="store_true", help="print the rule trace of each goal that elaborates")
    run.add_argument(
        "--spec-verify",
        action="store_true",
        help="replay the goal's outermost application spine against the declarative "
        "rules; goals that are not an application report spec: skipped",
    )
    sub.add_parser("repl", help="interactive loop")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        code = _paused(_run_file, args) if args.command == "run" else repl()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output, as ``spinel run f | head -1``
        # does.  Point it at devnull, as the Python docs advise, so that the
        # interpreter's last flush finds no broken pipe, and exit as for an
        # unreadable file.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
