"""Seeded workload generators.

Every workload is a list of goals.  The goal set itself is fixed (the
erasure corpus is enumerated deterministically, the scaling ladders are
built by construction); the seed only drives goal order, chunking and
the wrong-type choice of ``rejects``.  The program under test receives
the generated source text (CLI workloads) or terms (``audit``), never
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from spinel.oracle import enumerate_erasures, enumerate_internal_terms, standard_context
from spinel.parser import pretty_term, pretty_type
from spinel.syntax import Context, TermBind, alpha_equal

CORPUS_SIZE = 7
CHUNK_GOALS = 400

# Ladder sizes per scaling family.  Each family costs a comparable share
# of a pass at the seed; every size here completes at the seed.
LADDERS = {
    "depth": (20, 40, 80, 160),
    "context": (50, 100, 200, 400),
    "spine": (6, 12, 24, 48),
    "quantifiers": (15, 30, 60, 120),
}
CONTEXT_BINDERS = 8

# Shapes that crash the seed with a RecursionError.  They run in
# isolation (a crash in run_file kills every later goal of its file) and
# stay out of the timing, because a crash is faster than real work and a
# robustness fix must not read as a slowdown.
PROBES = (("spine", 400), ("suc", 200))


@dataclass
class Goal:
    """One goal: its source text, and whatever answer is known for it."""

    gid: int
    mode: str  # "check" or "synth"
    term: str
    expected: str | None = None
    known_type: str | None = None  # the type any acceptance must report
    known_elab: str | None = None  # the elaboration, when known by construction
    must_accept: bool = False  # fully annotated, or known by construction
    must_reject: bool = False  # a fully annotated term checked against a wrong type
    term_obj: object = None  # audit only: the term itself
    expected_obj: object = None

    def line(self) -> str:
        if self.mode == "check":
            return f"check {self.term} : {self.expected}"
        return f"synth {self.term}"

    def repl_line(self) -> str:
        if self.mode == "check":
            return f":check {self.term} : {self.expected}"
        return f":synth {self.term}"


@dataclass
class Chunk:
    """A unit of work: one source file of declarations plus goals."""

    decls: list[str]
    goals: list[Goal]
    path: Path | None = None
    family: str | None = None
    size: int | None = None

    def source(self) -> str:
        return "\n".join(self.decls + [g.line() for g in self.goals]) + "\n"

    def repl_lines(self) -> list[str]:
        return [":" + d for d in self.decls] + [g.repl_line() for g in self.goals]


@dataclass
class Workload:
    name: str
    seed: int
    goals: list[Goal]
    # The timed window cycles through rounds.  A round has the workload's
    # mix: a random 400-goal chunk, or for scaling the whole ladder.
    rounds: list[list[Chunk]]
    passes: list[Chunk]  # the files of one whole pass: reference and traced runs
    setup_decls: list[str]
    flags: list[str] = field(default_factory=list)
    probes: list[Chunk] = field(default_factory=list)
    setup_path: Path | None = None

    def write(self, out: Path) -> None:
        units = [c for r in self.rounds for c in r]
        write_chunks(out, self.name, self.passes + units + self.probes)
        self.setup_path = out / f"{self.name}-setup.spn"
        self.setup_path.write_text("\n".join(self.setup_decls) + "\n", encoding="utf-8")


def write_chunks(out: Path, stem: str, chunks: list[Chunk]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for i, chunk in enumerate(chunks):
        if chunk.path is None:
            chunk.path = out / f"{stem}-{i}.spn"
            chunk.path.write_text(chunk.source(), encoding="utf-8")


def standard_decls(ctx: Context) -> list[str]:
    """The standard context written as source declarations."""
    out = [f"type {c} {a}" if a else f"type {c}" for c, a in ctx.signature.items()]
    for entry in ctx.entries:
        if isinstance(entry, TermBind):
            out.append(f"assume {entry.name} : {pretty_type(entry.ty)}")
    return out


def erasure_corpus(ctx: Context) -> list[tuple[object, object, bool]]:
    """(erasure, known type, fully annotated) for every distinct erasure."""
    internals = enumerate_internal_terms(ctx, CORPUS_SIZE)
    annotated = {pretty_term(t) for t, _ in internals}
    seen: set[str] = set()
    out = []
    for internal, ty in internals:
        for erased in enumerate_erasures(internal):
            key = pretty_term(erased)
            if key not in seen:
                seen.add(key)
                out.append((erased, ty, key in annotated))
    return out


def corpus_goals(ctx: Context) -> list[Goal]:
    goals = []
    for erased, ty, annotated in erasure_corpus(ctx):
        text, tytext = pretty_term(erased), pretty_type(ty)
        for mode in ("check", "synth"):
            goals.append(
                Goal(
                    len(goals),
                    mode,
                    text,
                    expected=tytext if mode == "check" else None,
                    known_type=tytext if mode == "check" or annotated else None,
                    must_accept=annotated,
                    term_obj=erased,
                    expected_obj=ty if mode == "check" else None,
                )
            )
    return goals


def rejects_goals(ctx: Context, rng: random.Random) -> list[Goal]:
    corpus = erasure_corpus(ctx)
    pool: dict[str, object] = {}
    for _, ty, _ in corpus:
        pool.setdefault(pretty_type(ty), ty)
    pool_items = sorted(pool.items())
    goals = []
    for erased, ty, annotated in corpus:
        while True:
            wrong_text, wrong = rng.choice(pool_items)
            if not alpha_equal(wrong, ty):
                break
        goals.append(
            Goal(
                len(goals),
                "check",
                pretty_term(erased),
                expected=wrong_text,
                known_type=wrong_text,
                must_reject=annotated,
            )
        )
    return goals


# --------------------------------------------------------------- scaling


def _nats(n: int) -> str:
    return " -> ".join(["Nat"] * n)


def _spine_args(n: int) -> tuple[str, str]:
    args = " ".join("z" if i % 2 else "tt" for i in range(1, n + 1))
    targs = " ".join("[Nat]" if i % 2 else "[B]" for i in range(1, n + 1))
    return args, targs


def scaling_rung(family: str, n: int) -> tuple[list[str], list[tuple]]:
    """Declarations and (mode, term, expected, known type, known elaboration)."""
    decls = [
        "type Nat",
        "type B",
        "type Pair 2",
        "assume z : Nat",
        "assume tt : B",
        "assume suc : Nat -> Nat",
        "assume pair : forall X. forall Y. X -> Y -> Pair X Y",
    ]
    goals = []
    if family == "depth":
        xs = [f"x{i}" for i in range(1, n + 1)]
        ty = _nats(n + 1)
        bare = "".join(f"\\{x}. " for x in xs)
        ann = "".join(f"\\{x} : Nat. " for x in xs)
        goals.append(("check", bare + "x1", ty, ty, ann + "x1"))
        goals.append(("synth", ann + xs[-1], None, ty, ann + xs[-1]))
        goals.append(("check", ann + "x1", ty, ty, ann + "x1"))
    elif family == "context":
        decls += [f"assume c{i} : Nat" for i in range(1, n + 1)]
        ys = [f"y{i}" for i in range(1, CONTEXT_BINDERS + 1)]
        ty = _nats(CONTEXT_BINDERS + 1)
        ann = "".join(f"\\{y} : Nat. " for y in ys)
        body = f"c{n}"
        goals.append(("check", "".join(f"\\{y}. " for y in ys) + body, ty, ty, ann + body))
        goals.append(("synth", ann + body, None, ty, ann + body))
        pty = "Nat -> Pair Nat Nat"
        goals.append(("check", f"\\y. pair y c{n}", pty, pty, f"\\y : Nat. pair [Nat] [Nat] y c{n}"))
    elif family in ("spine", "suc"):
        if family == "spine":
            xs = [f"X{i}" for i in range(1, n + 1)]
            decls.append("assume g : " + "".join(f"forall {x}. " for x in xs) + " -> ".join(xs + ["Nat"]))
            args, targs = _spine_args(n)
            elab = f"g {targs} {args}"
            goals.append(("synth", f"g {args}", None, "Nat", elab))
            goals.append(("check", f"g {args}", "Nat", "Nat", elab))
            goals.append(("check", f"g [Nat] {args}", "Nat", "Nat", elab))
        else:
            term = "suc (" * (n - 1) + "suc z" + ")" * (n - 1)
            goals.append(("synth", term, None, "Nat", term))
    elif family == "quantifiers":
        xs = [f"X{i}" for i in range(1, n + 1)]
        lams = "".join(f"/\\{x}. " for x in xs)
        ty = "".join(f"forall {x}. " for x in xs) + f"X{n} -> X{n}"
        expected = "".join(f"forall Y{i}. " for i in range(1, n + 1)) + f"Y{n} -> Y{n}"
        elab = lams + f"\\x : X{n}. x"
        goals.append(("check", lams + "\\x. x", expected, ty, elab))
        goals.append(("synth", elab, None, ty, elab))
        goals.append(("check", elab, expected, ty, elab))
    else:
        raise ValueError(family)
    return decls, goals


def _rung_chunk(family: str, n: int, start: int, limit: int | None = None) -> Chunk:
    decls, specs = scaling_rung(family, n)
    goals = [
        Goal(start + i, mode, term, expected=exp, known_type=kt, known_elab=ke, must_accept=True)
        for i, (mode, term, exp, kt, ke) in enumerate(specs[:limit])
    ]
    return Chunk(decls, goals, family=family, size=n)


def scaling_chunks() -> list[Chunk]:
    chunks, start = [], 0
    for family, sizes in LADDERS.items():
        for n in sizes:
            chunks.append(_rung_chunk(family, n, start))
            start += len(chunks[-1].goals)
    return chunks


# ---------------------------------------------------------------- build


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    ctx = standard_context()
    decls = standard_decls(ctx)
    if name == "scaling":
        chunks = scaling_chunks()
        goals = [g for c in chunks for g in c.goals]
        rng.shuffle(chunks)
        for c in chunks:
            rng.shuffle(c.goals)
        # set-up loads the largest context and the longest spine head
        setup = _merge_decls(
            [scaling_rung("context", LADDERS["context"][-1])[0], scaling_rung("spine", LADDERS["spine"][-1])[0]]
        )
        probes = [_rung_chunk(family, n, len(goals) + i, 1) for i, (family, n) in enumerate(PROBES)]
        return Workload(name, seed, goals, [chunks], chunks, setup, ["--json", "--elab"], probes)
    if name == "rejects":
        goals = rejects_goals(ctx, rng)
        flags = ["--elab"]
    elif name in ("corpus", "audit"):
        goals = corpus_goals(ctx)
        flags = ["--json", "--elab"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    order = goals[:]
    rng.shuffle(order)
    rounds = [[Chunk(decls, order[i : i + CHUNK_GOALS])] for i in range(0, len(order), CHUNK_GOALS)]
    return Workload(name, seed, goals, rounds, [Chunk(decls, order)], decls, flags)


def _merge_decls(lists: list[list[str]]) -> list[str]:
    out: list[str] = []
    for decls in lists:
        out += [d for d in decls if d not in out]
    return out
