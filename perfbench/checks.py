"""Output correctness, judged outside the timed region.

Each goal's verdict is read back from what the program printed and
checked against references that do not come from the inference engine:
an accepted elaboration is re-parsed and re-typed by ``check_internal``
(the plain System F checker), fully annotated goals must be accepted
with their known type, scaling goals must reproduce the answer they
were built with, and the audit's replays and derivations must agree
with the algorithm.  Timed passes must then repeat the reference
verdict of every goal exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from spinel.infer import Diagnostic
from spinel.internal import InternalTypeError, check_internal
from spinel.oracle import standard_context
from spinel.parser import (
    Assume,
    ConDecl,
    ParseError,
    parse_program,
    parse_term,
    parse_type,
    pretty_term,
    pretty_type,
)
from spinel.syntax import Context, alpha_equal, alpha_equal_term, subst_type_args


@dataclass(frozen=True)
class Verdict:
    status: str  # ok, error, internal-error, parse-error, crash, missing
    type: str | None = None
    elab: str | None = None
    detail: str | None = None  # diagnostic headline or kind, without positions

    def core(self) -> tuple:
        """What every output format states: the outcome, type and elaboration."""
        return self.status, self.type, self.elab


MISSING = Verdict("missing")
_AT = re.compile(r" at \d+:\d+$")
_BLOCK = re.compile(r"^\[(\d+)\] ")


# ------------------------------------------------------ reading outputs


def from_ndjson(text: str, n: int) -> list[Verdict]:
    out = [MISSING] * n
    for line in text.splitlines():
        rec = json.loads(line)
        if "goal" not in rec:
            return [Verdict(rec.get("status", "crash"))] * n
        k = rec["goal"] - 1
        if rec["status"] == "ok":
            out[k] = Verdict("ok", rec["type"], rec.get("elaboration"))
        elif rec["status"] == "error":
            out[k] = Verdict("error", detail=rec["diagnostic"]["kind"])
        else:
            out[k] = Verdict(rec["status"], detail=rec.get("message"))
    return out


def from_text(text: str, n: int) -> list[Verdict]:
    out = [MISSING] * n
    k = None
    fields: dict[str, str] = {}

    def close() -> None:
        if k is None:
            return
        if "error" in fields:
            out[k] = Verdict("error", detail=_AT.sub("", fields["error"]))
        elif "internal error" in fields:
            out[k] = Verdict("internal-error", detail=fields["internal error"])
        elif "type" in fields:
            out[k] = Verdict("ok", fields["type"], fields.get("elaboration"))
        else:
            out[k] = Verdict("crash")

    for line in text.splitlines():
        m = _BLOCK.match(line)
        if m:
            close()
            k, fields = int(m.group(1)) - 1, {}
        elif line.startswith("    ") and not line.startswith("     "):
            key, _, value = line[4:].partition(": ")
            fields.setdefault(key, value)
    close()
    return out


def from_repl(piece: str) -> Verdict:
    """One goal's slice of interactive output."""
    lines = piece.splitlines()
    if not lines:
        return MISSING
    head, _, value = lines[0].partition(": ")
    if head in ("ok", "type") and len(lines) > 1 and lines[1].startswith("elaboration: "):
        return Verdict("ok", value, lines[1][len("elaboration: ") :])
    if head == "error":
        return Verdict("error", detail=_AT.sub("", value))
    if head == "parse error":
        return Verdict("parse-error", detail=value)
    if head == "internal error":
        return Verdict("internal-error", detail=value)
    return Verdict("crash", detail=lines[0])


# --------------------------------------------------- judging a verdict


def context_of(decls: list[str]) -> Context:
    """The context a list of source declarations builds."""
    if not decls:
        return standard_context()
    ctx = Context.empty()
    for decl in parse_program("\n".join(decls) + "\n"):
        if isinstance(decl, ConDecl):
            ctx = ctx.with_con(decl.name, decl.arity)
        elif isinstance(decl, Assume):
            ctx = ctx.with_term(decl.name, decl.ty)
    return ctx


def judge(goal, verdict: Verdict, ctx: Context) -> str | None:
    """None when the verdict is right for the goal, else why it is wrong."""
    if verdict.status == "error":
        return "a goal known to be well typed was rejected" if goal.must_accept else None
    if verdict.status != "ok":
        return f"outcome {verdict.status}: {verdict.detail}"
    if goal.must_reject:
        return "a fully annotated term was accepted at a type it does not have"
    try:
        reported = parse_type(verdict.type, ctx)
        elab = parse_term(verdict.elab, ctx)
        retyped = check_internal(ctx, elab)
    except (ParseError, InternalTypeError, ValueError) as exc:
        return f"elaboration does not re-check: {exc}"
    if not alpha_equal(retyped, reported):
        return "check_internal types the elaboration differently from the reported type"
    if goal.known_type is not None and not alpha_equal(reported, parse_type(goal.known_type, ctx)):
        return "reported type differs from the known type"
    if goal.known_elab is not None and not alpha_equal_term(elab, parse_term(goal.known_elab, ctx)):
        return "elaboration differs from the one known by construction"
    return None


# ------------------------------------------------------------- audit


@dataclass
class AuditRaw:
    """What one audited goal returned, kept for judging after the clock stops."""

    out: object = None  # InferOutcome, or the Diagnostic raised
    internal: object = None  # check_internal's type, or the exception raised
    verdict: object = None  # verify_spec's SpecVerdict, for accepted App goals
    hits: list | None = None  # search_spec triples that pass the side conditions
    crash: Exception | None = None  # anything other than a Diagnostic raised


def audit_verdict(raw: AuditRaw) -> Verdict:
    if raw.crash is not None:
        return Verdict("crash", detail=f"{type(raw.crash).__name__}: {raw.crash}")
    hits = "" if raw.hits is None else f" hits={len(raw.hits)}"
    if isinstance(raw.out, Diagnostic):
        return Verdict("error", detail=raw.out.kind.value + hits)
    spec = "" if raw.verdict is None else f"spec={raw.verdict.accepted}"
    return Verdict("ok", pretty_type(raw.out.ty), pretty_term(raw.out.elaboration), spec + hits)


def judge_audit(goal, raw: AuditRaw, ctx: Context) -> str | None:
    if raw.crash is not None:
        return f"audit raised {type(raw.crash).__name__}: {raw.crash}"
    if isinstance(raw.out, Diagnostic):
        if goal.must_accept:
            return "a goal known to be well typed was rejected"
        if raw.hits:
            return "search_spec found a derivation for a goal the algorithm rejects"
        return None
    if isinstance(raw.internal, Exception):
        return f"elaboration does not re-check: {raw.internal}"
    if not alpha_equal(raw.internal, raw.out.ty):
        return "check_internal types the elaboration differently from the inferred type"
    if goal.known_type is not None and not alpha_equal(raw.out.ty, parse_type(goal.known_type, ctx)):
        return "inferred type differs from the known type"
    if raw.verdict is not None and not raw.verdict.accepted:
        return f"verify_spec rejects the replay: {raw.verdict.reason}"
    for _, partial, sol in raw.hits or ():
        if not alpha_equal_term(subst_type_args(sol.types(), partial), raw.out.elaboration):
            return "a search_spec derivation disagrees with the elaboration"
    return None
