"""Command line interface: batch file runner and interactive loop.

``spinel run file`` type-checks every goal in a source file, printing
human-readable reports or NDJSON (one object per goal) with ``--json``.
``spinel repl`` offers the same engine interactively.  Exit codes: 0
all goals succeed, 1 some goal fails with a diagnostic, 2 the input
cannot be read or does not parse, or standard output was closed before
the report was written, 3 an internal invariant or a declarative replay
fails, or some goal hits the resource limit.

Chains of any length parse and print; only argument and parenthesis
nesting is bounded by Python's recursion limit there.  A declaration
nested too deeply to parse is a parse error at its first token (exit 2).
A goal nested or chained too deeply to type-check, print or replay
reports status ``resource-limit`` (exit 3), and the goals after it still
run.  The interactive loop prints an ``error:`` line for either and
keeps going.
"""

from __future__ import annotations

import argparse
import functools
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
from .oracle import verify_spec
from .parser import (
    Assume,
    ConDecl,
    Goal,
    ParseError,
    parse_declaration,
    parse_program,
    pretty_term,
    pretty_type,
)
from .syntax import Context, TermBind, TypeExpr, strip

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


def _use_color() -> bool:
    env = os.environ.get("SPINEL_COLOR", "").lower()
    if env in ("1", "always", "on", "yes"):
        return True
    if env in ("0", "never", "off", "no"):
        return False
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
    triple = (strip(out.spine.deco), out.spine.partial, out.spine.solution)
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


def _report(args, record: dict, lines) -> str:
    """The one report that is printed: ``record`` as NDJSON under
    ``--json``, otherwise a header line built from it and then ``lines``."""
    if args.json:
        return json.dumps(record)
    header = f"[{record['goal']}] {record['mode']}"
    if "term" in record:
        header += f" {record['term']}"
    if "expected" in record:
        header += f" : {record['expected']}"
    return "\n".join([header, *lines]) + "\n"


def _run_goal(ctx: Context, goal: Goal, count: int, args, color: bool) -> tuple[int, str]:
    """Run one goal: its exit code and its report, NDJSON or text.

    Each part of the report is rendered once, into ``record``; only the
    form that is printed is assembled from it, and a text line or a JSON
    field that the other form alone shows is not rendered at all.
    """
    term, expected = goal.term, goal.expected
    mode = Synthesize() if expected is None else Check(expected)
    trace: list[str] | None = [] if args.trace else None
    record: dict = {
        "goal": count,
        "mode": "synth" if expected is None else "check",
        "term": pretty_term(term),
    }
    if expected is not None:
        record["expected"] = pretty_type(expected)

    try:
        out = infer(ctx, mode, term, trace=trace)
    except Diagnostic as d:
        record["status"] = "error"
        if args.json:
            record["diagnostic"] = diagnostic_json(d)
            return 1, _report(args, record, ())
        return 1, _report(args, record, ("    " + line for line in render_diagnostic(d, color).splitlines()))
    except EngineInvariantError as exc:
        record.update(status="internal-error", message=str(exc))
        return 3, _report(args, record, [f"    internal error: {exc}"])

    code = 0
    record.update(status="ok", type=pretty_type(out.ty))
    if args.elab:
        record["elaboration"] = pretty_term(out.elaboration)
    if trace is not None:
        record["trace"] = trace
    if args.spec_verify:
        record["spec"] = _spec_report(ctx, expected, term, out)
        if record["spec"].get("accepted") is False:
            code = 3
    if args.json:
        return code, _report(args, record, ())
    lines = [f"    type: {record['type']}"]
    if args.elab:
        lines.append(f"    elaboration: {record['elaboration']}")
    if trace is not None:
        lines.append("    trace: " + " ".join(trace))
    if args.spec_verify:
        lines.append("    " + _spec_line(record["spec"]))
    return code, _report(args, record, lines)


def _resource_limit(goal: Goal, count: int, args) -> tuple[int, str]:
    """The report of a goal nested deeper than Python's recursion limit."""
    mode = "synth" if goal.expected is None else "check"
    message = f"goal at {goal.span.line}:{goal.span.col} is nested too deeply"
    record = {"goal": count, "mode": mode, "status": "resource-limit", "message": message}
    return 3, _report(args, record, [f"    resource limit: {message}"])


def run_file(args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            src = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        program = parse_program(src)
    except ParseError as exc:
        if args.json:
            print(json.dumps({"status": "parse-error", "line": exc.line, "col": exc.col, "message": exc.message}))
        else:
            print(f"parse error: {exc}", file=sys.stderr)
        return 2

    color = _use_color() and not args.json
    ctx = Context.empty()
    assumed: list[TermBind] = []  # the run of assumes since the last goal
    code = 0
    count = 0
    for decl in program:
        match decl:
            case ConDecl(name=name, arity=arity):
                ctx = ctx.with_con(name, arity)
                continue
            case Assume(name=name, ty=ty):
                assumed.append(TermBind(name, ty))
                continue
        if assumed:
            ctx, assumed = ctx._extend(assumed), []
        count += 1
        try:
            goal_code, report = _run_goal(ctx, decl, count, args, color)
        except RecursionError:
            goal_code, report = _resource_limit(decl, count, args)
        code = max(code, goal_code)
        print(report)
    return code


# ------------------------------------------------------------- interactive

_REPL_HELP = """commands:
  :type Name [arity]    declare a type constructor
  :assume name : T      bind a name to a type
  :check t : T          check a term against a type
  :synth t              synthesize a type for a term
  :quit                 leave"""


def repl() -> int:
    color = _use_color()
    print("spinel interactive loop; :quit to leave, :help for commands")
    ctx = Context.empty()
    while True:
        try:
            line = input("spinel> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        line = line.strip()
        if not line:
            continue
        cmd, _, rest = line.partition(" ")
        try:
            match cmd:
                case ":quit" | ":q":
                    return 0
                case ":help":
                    print(_REPL_HELP)
                case ":type" | ":assume" | ":check" | ":synth":
                    match parse_declaration(cmd[1:], rest, ctx):
                        case ConDecl(name=name, arity=arity):
                            ctx = ctx.with_con(name, arity)
                            print(f"type {name}" + (f" {arity}" if arity else ""))
                        case Assume(name=name, ty=ty):
                            ctx = ctx.with_term(name, ty)
                            print(f"{name} : {pretty_type(ty)}")
                        case Goal(term=term, expected=None):
                            out = infer(ctx, Synthesize(), term)
                            print(f"type: {pretty_type(out.ty)}")
                            print(f"elaboration: {pretty_term(out.elaboration)}")
                        case Goal(term=term, expected=expected):
                            out = infer(ctx, Check(expected), term)
                            print(f"ok: {pretty_type(out.ty)}")
                            print(f"elaboration: {pretty_term(out.elaboration)}")
                case _:
                    print(f"unknown command {cmd!r}; :help lists commands")
        except ParseError as exc:
            print(f"parse error: {exc}")
        except ValueError as exc:
            print(f"error: {exc}")
        except Diagnostic as d:
            print(render_diagnostic(d, color))
        except EngineInvariantError as exc:
            print(f"internal error: {exc}")
        except RecursionError:
            print("error: input is nested too deeply")


# ------------------------------------------------------------- entry point


def build_arg_parser() -> argparse.ArgumentParser:
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


# built once per process: building costs several times what one parse does
_arg_parser = functools.cache(build_arg_parser)


def main(argv: list[str] | None = None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        code = run_file(args) if args.command == "run" else repl()
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
