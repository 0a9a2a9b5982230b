"""Command line interface: batch file runner and interactive loop.

``spinel run file`` type-checks every goal in a source file, printing
human-readable reports or NDJSON (one object per goal) with ``--json``.
It answers a block of goals at a time, so its memory is bounded by a
block, not the file.  A declaration that does not parse ends only
itself, reported after the goals before it.  ``spinel repl`` offers
the same engine interactively.  Exit codes, the largest over the
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
from .syntax import Context, TermBind, TypeExpr

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
_BLOCK = 256  # goals per block of ``spinel run``: one block's trees at most are alive at once
_json_str = json.encoder.encode_basestring_ascii  # a str as ``json.dumps`` writes it


def _use_color() -> bool:
    """``always`` or ``never``; any other value means auto."""
    env = os.environ.get("SPINEL_COLOR", "").lower()
    if env in ("always", "never"):
        return env == "always"
    return sys.stdout.isatty()


# ----------------------------------------------------- diagnostic output


def _field_labels(kind: DiagnosticKind) -> tuple[str, str]:
    if kind is DiagnosticKind.EXPLICIT_ARG_CONFLICT:
        return "inferred type argument", "explicit type argument"
    if kind in (DiagnosticKind.APPLICAND_NOT_ARROW, DiagnosticKind.APPLICAND_NOT_FORALL):
        return "expected type", "applicand type"
    return "expected type", "synthesized type"


def render_diagnostic(d: Diagnostic, color: bool = False) -> str:
    """The text form of ``diagnostic_json(d)``, built from that record and
    labelled by ``_field_labels``; ``resolved`` is shown in NDJSON only."""
    record = diagnostic_json(d)
    span = record.get("span")
    where = f" at {span['line']}:{span['col']}" if span is not None else ""
    head = f"error: {record['message']}{where}"
    if color:
        head = f"{_RED}{head}{_RESET}"
    lines = [head]
    expected_label, synthesized_label = _field_labels(d.kind)

    def emit(label: str, text: str) -> None:
        shown = f"{_BOLD}{label}:{_RESET}" if color else f"{label}:"
        lines.append(f"  {shown} {text}")

    if "expected" in record:
        emit(expected_label, record["expected"])
        for name, ty in record.get("bindings", {}).items():
            lines.append(f"    {name} := {ty}")
    if "synthesized" in record:
        emit(synthesized_label, record["synthesized"])
        if "unsolved" in record:
            emit("unsolved", ", ".join(record["unsolved"]))
    if "contextual_match" in record:
        m = record["contextual_match"]
        emit("contextual match", f"{m['partial']} := {m['against']}")
    if "synthetic_match" in record:
        m = record["synthetic_match"]
        emit(f"synthetic match (argument {m['arg_index']})", f"{m['partial']} := {m['against']}")
    if "detail" in record:
        emit("note", record["detail"])
    return "\n".join(lines)


def diagnostic_json(d: Diagnostic) -> dict:
    """The one record of a diagnostic, its types rendered with its display
    names; ``unsolved`` lists the metas an unsolved-meta-variables
    diagnostic leaves open in the elaboration, in name order."""
    rn = d.display
    out: dict = {"kind": d.kind.value, "message": _HEADLINES[d.kind]}
    if d.span is not None:
        out["span"] = d.span.to_json()
    if d.expected is not None:
        out["expected"] = pretty_type(d.expected, rn)
    if d.resolved is not None:
        out["resolved"] = pretty_type(d.resolved, rn)
    if d.bindings:
        out["bindings"] = {
            rn.get(name, name): pretty_type(d.bindings[name], rn) for name in sorted(d.bindings)
        }
    if d.synthesized is not None:
        out["synthesized"] = pretty_type(d.synthesized, rn)
    if d.unsolved:
        out["unsolved"] = [rn.get(m, m) for m in sorted(d.unsolved)]
    if d.contextual_match is not None:
        out["contextual_match"] = {
            "partial": pretty_type(d.contextual_match.partial, rn),
            "against": pretty_type(d.contextual_match.against, rn),
        }
    if d.synthetic_match is not None:
        out["synthetic_match"] = {
            "partial": pretty_type(d.synthetic_match.partial, rn),
            "against": pretty_type(d.synthetic_match.against, rn),
            "arg_index": d.synthetic_match.arg_index,
        }
    if d.detail is not None:
        out["detail"] = d.detail
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
    if args.json:
        head = f'{{"goal": {count}, "mode": "{mode}", "term": {_json_str(term_text)}'
        if expected is not None:
            head += f', "expected": {_json_str(pretty_type(expected))}'
    else:
        head = f"[{count}] {mode} {term_text}"
        if expected is not None:
            head += f" : {pretty_type(expected)}"

    if isinstance(out, Diagnostic):
        if args.json:
            return 1, f'{head}, "status": "error", "diagnostic": {json.dumps(diagnostic_json(out))}}}'
        return 1, head + "".join(f"\n    {line}" for line in render_diagnostic(out, color).splitlines()) + "\n"
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


def _blocks(decls):
    """Yield the goals of ``decls``, each with its context, in blocks of at most ``_BLOCK``,
    each with the ParseError that ended it or None; a block is emptied once answered."""
    ctx = Context.empty()
    assumed: list[TermBind] = []  # the run of assumes since the last goal
    block: list[tuple[Context, Goal]] = []
    for decl in decls:
        kind = type(decl)
        if kind is Assume:
            assumed.append(TermBind(decl.name, decl.ty))
        elif kind is Goal:
            if assumed:
                ctx, assumed = ctx._extend(assumed), []
            block.append((ctx, decl))
            if len(block) == _BLOCK:
                yield block, None
                block.clear()
        elif kind is ConDecl:
            ctx = ctx.with_con(decl.name, decl.arity)
        else:  # a ParseError
            yield block, decl
            block.clear()
    yield block, None


def _answer(block: list[tuple[Context, Goal]], count: int, args, color: bool) -> int:
    """Answer a block of goals numbered from ``count + 1``: infer each, keeping no
    traceback, render each report, write them all at once; the largest exit code."""
    answered = []
    for ctx, goal in block:
        trace = [] if args.trace else None
        try:
            out = infer(ctx, Synthesize() if goal.expected is None else Check(goal.expected), goal.term, trace=trace)
        except (Diagnostic, EngineInvariantError) as exc:
            # Drops this frame, whose ``answered`` keeps the error, so that no cycle
            # forms; from an engine error, which keeps them, the engine's frames too.
            out = exc.with_traceback(None)
        except RecursionError:
            out = None
        answered.append((ctx, goal, out, trace))
    results = []
    for count, (ctx, goal, out, trace) in enumerate(answered, count + 1):
        try:
            results.append(_run_goal(ctx, goal, count, out, trace, args, color))
        except RecursionError:  # too deep to print or to replay
            results.append(_run_goal(ctx, goal, count, None, trace, args, color))
    sys.stdout.write("".join(f"{report}\n" for _, report in results))
    return max((code for code, _ in results), default=0)


def _run_file(args: argparse.Namespace) -> int:
    # The trees a run builds are acyclic, so a cyclic collection would walk
    # them and free nothing: pause the collector, and restore it as found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            # a byte that is not UTF-8 reaches the lexer as a lone surrogate,
            # an unexpected character of its own declaration
            handle = open(args.file, encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        color = _use_color() and not args.json
        code = count = 0
        with handle:
            for block, error in _blocks(_declarations(handle, _Parser())):
                code = max(code, _answer(block, count, args, color), 2 if error else 0)
                count += len(block)
                if error and args.json:
                    print(f'{{"status": "parse-error", "line": {error.line}, "col": {error.col}, '
                          f'"message": {_json_str(error.message)}}}')
                elif error:
                    sys.stdout.flush()  # so that the reports before it come first
                    print(f"parse error: {error}", file=sys.stderr)
        return code
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------------- interactive

_REPL_HELP = """commands:
  :type Name [arity]    declare a type constructor
  :assume name : T      bind a name to a type
  :check t : T          check a term against a type
  :synth t              synthesize a type for a term
  :quit                 leave"""


def repl() -> int:
    # A session's trees are acyclic, as a run's are: pause the collector as
    # ``_run_file`` does, and restore it as found on every way out.
    enabled = gc.isenabled()
    gc.disable()
    try:
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
    finally:
        if enabled:
            gc.enable()


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
        else:
            synth = decl.expected is None
            out = infer(ctx, Synthesize() if synth else Check(decl.expected), decl.term)
            print(f"{'type' if synth else 'ok'}: {pretty_type(out.ty)}")
            print(f"elaboration: {pretty_term(out.elaboration)}")
    except Diagnostic as d:
        print(render_diagnostic(d, color))
    except EngineInvariantError as exc:
        print(f"internal error: {exc}")
    except RecursionError:
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
    run.add_argument("--trace", action="store_true", help="print the rule trace per goal")
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
        code = _run_file(args) if args.command == "run" else repl()
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
