"""Tests for the batch runner, JSON output, and the interactive loop."""

from __future__ import annotations

import gc
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import spinel
from conftest import (
    CTX,
    STANDARD_DECLS,
    count_calls,
    erasure_source,
    interleaved_source,
    long_source,
    quantifier_chain,
    recursion_headroom,
    tm,
    ty,
)
import spinel.infer as infer_mod
from spinel.cli import _BLOCK, main, repl
from spinel.infer import EngineInvariantError, Synthesize, infer
from spinel.oracle import SpecVerdict, verify_spec
from spinel.parser import parse_program
from spinel.syntax import alpha_equal
from pinned import (
    PINNED_NEXT_OUTPUT,
    PINNED_OUTPUT,
    PINNED_PARSE,
    PINNED_REPL_OUTPUT,
    parse_digest,
    repl_output,
    run_output,
)

GOOD = """\
type Nat
type B
type Pair 2
assume z : Nat
assume suc : Nat -> Nat
assume pair : forall X. forall Y. X -> Y -> Pair X Y

check pair (\\x. x) z : Pair (Nat -> Nat) Nat
synth suc (suc z)
"""

BAD = GOOD + "\ncheck suc z : B\n"


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.spn"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.spn"
    path.write_text(BAD)
    return str(path)


def run_lines(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


# ------------------------------------------------------------ batch runs


def test_run_reports_every_goal(good_file, capsys):
    code, out, err = run_lines(capsys, "run", good_file)
    assert code == 0
    assert err == ""
    assert "[1] check pair (\\x. x) z : Pair (Nat -> Nat) Nat" in out
    assert "[2] synth suc (suc z)" in out
    assert "    type: Pair (Nat -> Nat) Nat" in out
    assert "    type: Nat" in out


def test_run_elab_prints_the_annotated_term(good_file, capsys):
    code, out, _ = run_lines(capsys, "run", good_file, "--elab")
    assert code == 0
    assert "    elaboration: pair [Nat -> Nat] [Nat] (\\x : Nat. x) z" in out


def test_run_trace_prints_the_rule_trace(good_file, capsys):
    code, out, _ = run_lines(capsys, "run", good_file, "--trace")
    assert code == 0
    traces = [line for line in out if line.startswith("    trace:")]
    assert len(traces) == 2
    assert "app-check" in traces[0]
    assert "peel" in traces[0]
    assert "app-synth" in traces[1]


def test_run_json_emits_one_record_per_goal(good_file, capsys):
    code, out, _ = run_lines(capsys, "run", good_file, "--json", "--elab")
    assert code == 0
    records = [json.loads(line) for line in out]
    assert [r["goal"] for r in records] == [1, 2]
    assert records[0]["mode"] == "check"
    assert records[0]["expected"] == "Pair (Nat -> Nat) Nat"
    assert records[0]["status"] == "ok"
    assert records[0]["elaboration"] == "pair [Nat -> Nat] [Nat] (\\x : Nat. x) z"
    assert records[1]["mode"] == "synth"
    assert records[1]["type"] == "Nat"
    assert "expected" not in records[1]


def test_successive_main_calls_each_print_their_own_format(good_file, capsys):
    # ``main`` builds its argument parser once per process; each call's
    # flags still hold for that call alone.
    _, json_out, _ = run_lines(capsys, "run", good_file, "--json")
    _, text_out, _ = run_lines(capsys, "run", good_file)
    assert [json.loads(line)["goal"] for line in json_out] == [1, 2]
    assert text_out[0] == "[1] check pair (\\x. x) z : Pair (Nat -> Nat) Nat"
    assert not any(line.startswith("{") for line in text_out)


def test_run_failing_goal_exits_one(bad_file, capsys):
    code, out, _ = run_lines(capsys, "run", bad_file)
    assert code == 1
    assert any("error: type mismatch" in line for line in out)
    assert any("expected type: B" in line for line in out)
    assert any("synthesized type: Nat" in line for line in out)


def test_run_failing_goal_json_diagnostic(bad_file, capsys):
    code, out, _ = run_lines(capsys, "run", bad_file, "--json")
    assert code == 1
    last = json.loads(out[-1])
    assert last["status"] == "error"
    diag = last["diagnostic"]
    assert diag["kind"] == "type-mismatch"
    assert diag["message"] == "type mismatch"
    assert diag["expected"] == "B"
    assert diag["synthesized"] == "Nat"
    assert diag["span"]["line"] == 11


def test_run_keeps_going_after_a_failure(bad_file, tmp_path, capsys):
    path = tmp_path / "more.spn"
    path.write_text(BAD + "synth z\n")
    code, out, _ = run_lines(capsys, "run", str(path), "--json")
    assert code == 1
    statuses = [json.loads(line)["status"] for line in out]
    assert statuses == ["ok", "ok", "error", "ok"]


def test_run_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.spn"
    path.write_text("check \\x. : Nat\n")
    code, out, err = run_lines(capsys, "run", str(path))
    assert code == 2
    assert "parse error:" in err


def test_run_parse_error_json(tmp_path, capsys):
    path = tmp_path / "broken.spn"
    path.write_text("type Nat\ncheck : Nat\n")
    code, out, _ = run_lines(capsys, "run", str(path), "--json")
    assert code == 2
    record = json.loads(out[0])
    assert record["status"] == "parse-error"
    assert record["line"] == 2


def test_run_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_lines(capsys, "run", str(tmp_path / "nope.spn"))
    assert code == 2
    assert "error:" in err


def test_run_skips_a_byte_that_is_not_utf8_with_its_comment(tmp_path):
    path = tmp_path / "latin1.spn"
    path.write_bytes(b"type Nat\nsynth z -- caf\xe9\n")
    proc = run_child(path, "--json")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert [json.loads(line)["diagnostic"]["detail"] for line in proc.stdout.splitlines()] == ["unbound name 'z'"]


def test_a_byte_that_is_not_utf8_ends_only_its_declaration(tmp_path):
    # Read far past the first 8 KiB the file decodes at a time: every goal
    # around the byte answers, and the byte is an unexpected character at
    # its own line and column.
    path = tmp_path / "latin1.spn"
    path.write_bytes(b"type Nat\nassume z : Nat\n" + b"synth z\n" * 3000 + b"synth z \xe9\nsynth z\n")
    proc = run_child(path, "--json")
    assert (proc.returncode, proc.stderr) == (2, "")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    error = {"status": "parse-error", "line": 3003, "col": 9, "message": "unexpected character '\\udce9'"}
    ok = {"mode": "synth", "term": "z", "status": "ok", "type": "Nat"}
    assert records == [{"goal": n, **ok} for n in range(1, 3001)] + [error, {"goal": 3001, **ok}]
    proc = run_child(path)
    assert proc.returncode == 2
    assert proc.stderr == "parse error: 3003:9: unexpected character '\\udce9'\n"
    assert proc.stdout.count("    type: Nat\n") == 3001


def test_an_arity_with_too_many_digits_is_a_parse_error_at_its_count(tmp_path):
    # int() reads at most 4,300 digits; the declaration, not the run, ends.
    path = tmp_path / "arity.spn"
    path.write_text(f"type Big {'9' * 5000}\ntype Nat\nassume z : Nat\nsynth z\n")
    proc = run_child(path, "--json")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        {"status": "parse-error", "line": 1, "col": 10, "message": "arity is too large"},
        {"goal": 1, "mode": "synth", "term": "z", "status": "ok", "type": "Nat"},
    ]
    proc = run_child(path)
    assert (proc.returncode, proc.stderr) == (2, "parse error: 1:10: arity is too large\n")
    assert proc.stdout == "[1] synth z\n    type: Nat\n\n"


def test_spec_verify_accepts_solved_spines(good_file, capsys):
    code, out, _ = run_lines(capsys, "run", good_file, "--spec-verify")
    assert code == 0
    spec_lines = [line.strip() for line in out if "spec:" in line]
    assert spec_lines[0].startswith("spec: accepted (")
    assert "PHead" in spec_lines[0]


def test_spec_verify_json_payload(good_file, capsys):
    code, out, _ = run_lines(capsys, "run", good_file, "--json", "--spec-verify")
    assert code == 0
    records = [json.loads(line) for line in out]
    assert records[0]["spec"]["accepted"] is True
    assert records[0]["spec"]["trace"][0] == "PHead"
    assert records[1]["spec"]["accepted"] is True


def test_spec_verify_skips_non_spines(tmp_path, capsys):
    # Only a goal that is itself an application is replayed: an atom and
    # a lambda whose body holds a spine both report `skipped`.
    path = tmp_path / "atom.spn"
    path.write_text(
        "type Nat\nassume z : Nat\nassume ident : forall X. X -> X\n"
        "synth z\ncheck \\x. ident x : Nat -> Nat\n"
    )
    code, out, _ = run_lines(capsys, "run", str(path), "--json", "--spec-verify")
    assert code == 0
    records = [json.loads(line) for line in out]
    assert [r["status"] for r in records] == ["ok", "ok"]
    assert [r["spec"] for r in records] == [{"skipped": True}, {"skipped": True}]


def test_spec_verify_rejection_exits_three(good_file, capsys, monkeypatch):
    # the replay reads `verify_spec` from the oracle each time it runs
    monkeypatch.setattr(
        "spinel.oracle.verify_spec", lambda *a: SpecVerdict(False, ("PHead",), "forced")
    )
    code, out, _ = run_lines(capsys, "run", good_file, "--spec-verify")
    assert code == 3
    assert any("spec: rejected: forced" in line for line in out)


def test_spec_verify_replays_the_spine_the_goal_already_ran(tmp_path, capsys, monkeypatch):
    # The replay reads the triple the goal's own run produced, so the flag
    # runs no spine a second time.  (The replay's own rules infer each
    # argument; these arguments hold no spine.)
    path = tmp_path / "spines.spn"
    path.write_text(
        "type Nat\ntype Pair 2\nassume z : Nat\nassume suc : Nat -> Nat\n"
        "assume ident : forall X. X -> X\nassume pair : forall X. forall Y. X -> Y -> Pair X Y\n"
        "check pair (\\x. x) z : Pair (Nat -> Nat) Nat\nsynth ident suc z\n"
        "check \\x. pair x x : Nat -> Pair Nat Nat\nsynth z\n"
    )
    calls = count_calls(monkeypatch, "_spine", [infer_mod])
    assert main(["run", str(path)]) == 0
    plain = calls[0]
    assert main(["run", str(path), "--spec-verify"]) == 0
    assert capsys.readouterr().out.count("spec: accepted") == 2
    assert calls[0] - plain == plain == 3


def test_color_env_switch(bad_file, capsys, monkeypatch):
    monkeypatch.setenv("SPINEL_COLOR", "always")
    _, out, _ = run_lines(capsys, "run", bad_file)
    assert any("\x1b[31m" in line for line in out)
    monkeypatch.setenv("SPINEL_COLOR", "never")
    _, out, _ = run_lines(capsys, "run", bad_file)
    assert not any("\x1b[" in line for line in out)


@pytest.mark.parametrize("value", ["yes", "1", "on", "auto"])
def test_color_values_other_than_always_and_never_mean_auto(bad_file, monkeypatch, value):
    # Only `always` and `never` are read; anything else colors a terminal
    # only, so a pipe gets plain text.
    monkeypatch.setenv("SPINEL_COLOR", value)
    proc = run_child(bad_file)
    assert proc.returncode == 1
    assert "    error: type mismatch at " in proc.stdout
    assert "\x1b[" not in proc.stdout


# ---------------------------------------------------- golden diagnostics

# One goal per way a spine fails: a contextual solution that its argument
# contradicts, a failed synthetic match, a synthetic instantiation that
# cannot reveal the arrows the spine needs, an explicit type argument that
# contradicts a contextual one or hides those arrows, and a head that is
# not a function or not polymorphic.
GOLDEN = """\
type Nat
type B
type Pair 2
assume z : Nat
assume tt : B
assume suc : Nat -> Nat
assume ident : forall X. X -> X
assume pair : forall X. forall Y. X -> Y -> Pair X Y
assume rapp : forall X. forall Y. X -> (X -> Y) -> Y
assume f : forall X. Pair X X -> Nat

check pair (\\x : B. x) z : Pair (Nat -> Nat) Nat
check pair tt z : Pair Nat Nat
synth rapp z tt
synth f (pair z tt)
synth rapp z suc tt
check pair [Nat] tt z : Pair B Nat
synth ident [Nat] suc z
synth suc z z
synth suc [Nat] z
"""

GOLDEN_TEXT = """\
[1] check pair (\\x : B. x) z : Pair (Nat -> Nat) Nat
    error: type mismatch at 12:13
      expected type: ?X
        ?X := Nat -> Nat
      synthesized type: B -> B
      contextual match: Pair ?X ?Y := Pair (Nat -> Nat) Nat

[2] check pair tt z : Pair Nat Nat
    error: type mismatch at 13:12
      expected type: ?X
        ?X := Nat
      synthesized type: B
      contextual match: Pair ?X ?Y := Pair Nat Nat

[3] synth rapp z tt
    error: type mismatch at 14:14
      expected type: Nat -> ?Y
      synthesized type: B
      synthetic match (argument 2): Nat -> ?Y := B

[4] synth f (pair z tt)
    error: type mismatch at 15:10
      expected type: Pair ?X ?X
      synthesized type: Pair Nat B
      synthetic match (argument 1): Pair ?X ?X := Pair Nat B

[5] synth rapp z suc tt
    error: conflicting requirements on a type argument at 16:14
      expected type: Nat -> ?Y
        ?Y := Nat
      synthesized type: Nat -> Nat
      synthetic match (argument 2): Nat -> ?Y := Nat -> Nat
      note: the synthesized instantiation cannot reveal the arrows this spine needs

[6] check pair [Nat] tt z : Pair B Nat
    error: explicit type argument conflicts with an inferred one at 17:7
      inferred type argument: B
      explicit type argument: Nat
      contextual match: Pair ?X ?Y := Pair B Nat

[7] synth ident [Nat] suc z
    error: conflicting requirements on a type argument at 18:7
      synthesized type: Nat
      note: explicit type argument cannot reveal the arrows this spine needs

[8] synth suc z z
    error: applicand is not a function at 19:7
      applicand type: Nat -> Nat

[9] synth suc [Nat] z
    error: applicand is not polymorphic at 20:7
      applicand type: Nat -> Nat

"""


def span(line, col, end_col):
    return {"line": line, "col": col, "end_line": line, "end_col": end_col}


GOLDEN_JSON = [
    {
        "kind": "type-mismatch",
        "message": "type mismatch",
        "span": span(12, 13, 22),
        "expected": "?X",
        "resolved": "Nat -> Nat",
        "bindings": {"?X": "Nat -> Nat"},
        "synthesized": "B -> B",
        "contextual_match": {"partial": "Pair ?X ?Y", "against": "Pair (Nat -> Nat) Nat"},
    },
    {
        "kind": "type-mismatch",
        "message": "type mismatch",
        "span": span(13, 12, 14),
        "expected": "?X",
        "resolved": "Nat",
        "bindings": {"?X": "Nat"},
        "synthesized": "B",
        "contextual_match": {"partial": "Pair ?X ?Y", "against": "Pair Nat Nat"},
    },
    {
        "kind": "type-mismatch",
        "message": "type mismatch",
        "span": span(14, 14, 16),
        "expected": "Nat -> ?Y",
        "synthesized": "B",
        "synthetic_match": {"partial": "Nat -> ?Y", "against": "B", "arg_index": 2},
    },
    {
        "kind": "type-mismatch",
        "message": "type mismatch",
        "span": span(15, 10, 19),
        "expected": "Pair ?X ?X",
        "synthesized": "Pair Nat B",
        "synthetic_match": {"partial": "Pair ?X ?X", "against": "Pair Nat B", "arg_index": 1},
    },
    {
        "kind": "solution-conflict",
        "message": "conflicting requirements on a type argument",
        "span": span(16, 14, 17),
        "expected": "Nat -> ?Y",
        "bindings": {"?Y": "Nat"},
        "synthesized": "Nat -> Nat",
        "synthetic_match": {"partial": "Nat -> ?Y", "against": "Nat -> Nat", "arg_index": 2},
        "detail": "the synthesized instantiation cannot reveal the arrows this spine needs",
    },
    {
        "kind": "explicit-arg-conflict",
        "message": "explicit type argument conflicts with an inferred one",
        "span": span(17, 7, 17),
        "expected": "B",
        "synthesized": "Nat",
        "contextual_match": {"partial": "Pair ?X ?Y", "against": "Pair B Nat"},
    },
    {
        "kind": "solution-conflict",
        "message": "conflicting requirements on a type argument",
        "span": span(18, 7, 18),
        "synthesized": "Nat",
        "detail": "explicit type argument cannot reveal the arrows this spine needs",
    },
    {
        "kind": "applicand-not-arrow",
        "message": "applicand is not a function",
        "span": span(19, 7, 10),
        "synthesized": "Nat -> Nat",
    },
    {
        "kind": "applicand-not-forall",
        "message": "applicand is not polymorphic",
        "span": span(20, 7, 16),
        "synthesized": "Nat -> Nat",
    },
]


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.spn"
    path.write_text(GOLDEN)
    return str(path)


def test_golden_diagnostics_text(golden_file, capsys, monkeypatch):
    monkeypatch.setenv("SPINEL_COLOR", "never")
    code = main(["run", golden_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == GOLDEN_TEXT


def test_golden_diagnostics_json(golden_file, capsys):
    code, out, err = run_lines(capsys, "run", golden_file, "--json")
    assert code == 1
    assert err == ""
    records = [json.loads(line) for line in out]
    assert [r["goal"] for r in records] == list(range(1, 10))
    assert all(r["status"] == "error" for r in records)
    for record, diagnostic in zip(records, GOLDEN_JSON):
        assert record["diagnostic"] == diagnostic


# Diagnostics whose display names stand in arrow domains and constructor
# arguments, leaves the type printer writes in place: in an expected type,
# a synthetic match, and the contextual matches of README's goal 3 and of
# a spine inside a lambda.
DISPLAY_NAMES_GOLDEN = """\
type Nat
type B
type Pair 2
assume z : Nat
assume tt : B
assume pair : forall X. forall Y. X -> Y -> Pair X Y
assume app : forall X. forall Y. (X -> Y) -> X -> Y
assume twice : forall X. forall Y. (X -> Pair Y X) -> Pair X Y
check app (\\x : B. x) z : Nat
check twice (\\x : Nat. pair tt tt) : Pair Nat B
check pair (\\x : B. x) z : Pair (Nat -> Nat) Nat
"""

DISPLAY_NAMES_GOLDEN_TEXT = """\
[1] check app (\\x : B. x) z : Nat
    error: type mismatch at 9:12
      expected type: ?X -> Nat
      synthesized type: B -> B
      synthetic match (argument 1): ?X -> Nat := B -> B

[2] check twice (\\x : Nat. pair tt tt) : Pair Nat B
    error: type mismatch at 10:32
      expected type: ?Y
        ?Y := Nat
      synthesized type: B
      contextual match: Pair ?X ?Y := Pair B Nat

[3] check pair (\\x : B. x) z : Pair (Nat -> Nat) Nat
    error: type mismatch at 11:13
      expected type: ?X
        ?X := Nat -> Nat
      synthesized type: B -> B
      contextual match: Pair ?X ?Y := Pair (Nat -> Nat) Nat

"""


def test_golden_display_names_in_arrow_domains_and_constructor_arguments(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINEL_COLOR", "never")
    path = tmp_path / "display.spn"
    path.write_text(DISPLAY_NAMES_GOLDEN)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().out == DISPLAY_NAMES_GOLDEN_TEXT


# ----------------------------------------------------- golden binder chains

# Type-lambda and lambda chains checked against quantifier and arrow
# chains: a long one, a mixed one, binders whose names cross the expected
# ones, a capture case, chains that run out of quantifiers or meet a wrong
# annotation, synthesized chains, and spines and type applications that
# mix explicit type arguments with inferred ones.
BINDER_GOLDEN = r"""type Nat
type B
type Pair 2
assume z : Nat
assume tt : B
assume pair : forall X. forall Y. X -> Y -> Pair X Y
assume h : forall X. X -> forall Y. Y -> Pair X Y
assume bot : forall X. X

check /\A. /\C. /\D. /\E. /\F. /\G. \x. x : forall X1. forall X2. forall X3. forall X4. forall X5. forall X6. X6 -> X6
check /\X. \x. /\Y. \y. x : forall A. A -> forall C. C -> A
check /\Y. /\X. \x. \y. x : forall X. forall Y. Y -> X -> Y
check /\X. /\Z. \y. \w. w : forall Y. forall X. Y -> X -> X
check /\X. /\Y. \x : Y. x : forall A. A -> A
check /\X. \x : Nat. x : forall A. A -> A
synth /\X. \x : X. /\Y. \y : Y. x
synth /\X. \x. x
synth h z [B] tt
synth pair [Nat] z tt
synth h tt [B] z
check h z [B] tt : Pair Nat B
synth bot [forall Y. Y -> Y] [Nat] z
synth bot [forall Y. forall Z. Y -> Z -> Y] [Nat] [B]
"""

BINDER_GOLDEN_TEXT = r"""[1] check /\A. /\C. /\D. /\E. /\F. /\G. \x. x : forall X1. forall X2. forall X3. forall X4. forall X5. forall X6. X6 -> X6
    type: forall A. forall C. forall D. forall E. forall F. forall G. G -> G
    elaboration: /\A. /\C. /\D. /\E. /\F. /\G. \x : G. x
    trace: tylam tylam tylam tylam tylam tylam lam-bare var

[2] check /\X. \x. /\Y. \y. x : forall A. A -> (forall C. C -> A)
    type: forall X. X -> (forall Y. Y -> X)
    elaboration: /\X. \x : X. /\Y. \y : Y. x
    trace: tylam lam-bare tylam lam-bare var

[3] check /\Y. /\X. \x. \y. x : forall X. forall Y. Y -> X -> Y
    type: forall Y. forall X. X -> Y -> X
    elaboration: /\Y. /\X. \x : X. \y : Y. x
    trace: tylam tylam lam-bare lam-bare var

[4] check /\X. /\Z. \y. \w. w : forall Y. forall X. Y -> X -> X
    type: forall X. forall Z. X -> Z -> Z
    elaboration: /\X. /\Z. \y : X. \w : Z. w
    trace: tylam tylam lam-bare lam-bare var

[5] check /\X. /\Y. \x : Y. x : forall A. A -> A
    error: type mismatch at 14:12
      expected type: X -> X
      synthesized type: forall Y. Y -> Y

[6] check /\X. \x : Nat. x : forall A. A -> A
    error: type mismatch at 15:12
      expected type: X -> X
      synthesized type: Nat -> Nat

[7] synth /\X. \x : X. /\Y. \y : Y. x
    type: forall X. X -> (forall Y. Y -> X)
    elaboration: /\X. \x : X. /\Y. \y : Y. x
    trace: tylam lam tylam lam var

[8] synth /\X. \x. x
    error: cannot synthesize a type for an unannotated function at 17:12
      note: no contextual type here, so binder 'x' needs an annotation

[9] synth h z [B] tt
    type: Pair Nat B
    elaboration: h [Nat] z [B] tt
    trace: app-synth spine-arg spine-tyarg spine-arg spine-head var peel arg-synth var arg-check var

[10] synth pair [Nat] z tt
    type: Pair Nat B
    elaboration: pair [Nat] [B] z tt
    trace: app-synth spine-arg spine-arg spine-tyarg spine-head var peel arg-check var arg-synth var

[11] synth h tt [B] z
    error: type mismatch at 20:16
      expected type: B
      synthesized type: Nat

[12] check h z [B] tt : Pair Nat B
    type: Pair Nat B
    elaboration: h [Nat] z [B] tt
    trace: app-check spine-arg spine-tyarg spine-arg spine-head var peel arg-check var arg-check var

[13] synth bot [forall Y. Y -> Y] [Nat] z
    type: Nat
    elaboration: bot [forall Y. Y -> Y] [Nat] z
    trace: app-synth spine-arg spine-tyarg spine-tyarg spine-head var arg-check var

[14] synth bot [forall Y. forall Z. Y -> Z -> Y] [Nat] [B]
    type: Nat -> B -> Nat
    elaboration: bot [forall Y. forall Z. Y -> Z -> Y] [Nat] [B]
    trace: tyapp tyapp tyapp var

"""

BINDER_GOLDEN_NDJSON = r"""{"goal": 1, "mode": "check", "term": "/\\A. /\\C. /\\D. /\\E. /\\F. /\\G. \\x. x", "expected": "forall X1. forall X2. forall X3. forall X4. forall X5. forall X6. X6 -> X6", "status": "ok", "type": "forall A. forall C. forall D. forall E. forall F. forall G. G -> G", "elaboration": "/\\A. /\\C. /\\D. /\\E. /\\F. /\\G. \\x : G. x", "trace": ["tylam", "tylam", "tylam", "tylam", "tylam", "tylam", "lam-bare", "var"]}
{"goal": 2, "mode": "check", "term": "/\\X. \\x. /\\Y. \\y. x", "expected": "forall A. A -> (forall C. C -> A)", "status": "ok", "type": "forall X. X -> (forall Y. Y -> X)", "elaboration": "/\\X. \\x : X. /\\Y. \\y : Y. x", "trace": ["tylam", "lam-bare", "tylam", "lam-bare", "var"]}
{"goal": 3, "mode": "check", "term": "/\\Y. /\\X. \\x. \\y. x", "expected": "forall X. forall Y. Y -> X -> Y", "status": "ok", "type": "forall Y. forall X. X -> Y -> X", "elaboration": "/\\Y. /\\X. \\x : X. \\y : Y. x", "trace": ["tylam", "tylam", "lam-bare", "lam-bare", "var"]}
{"goal": 4, "mode": "check", "term": "/\\X. /\\Z. \\y. \\w. w", "expected": "forall Y. forall X. Y -> X -> X", "status": "ok", "type": "forall X. forall Z. X -> Z -> Z", "elaboration": "/\\X. /\\Z. \\y : X. \\w : Z. w", "trace": ["tylam", "tylam", "lam-bare", "lam-bare", "var"]}
{"goal": 5, "mode": "check", "term": "/\\X. /\\Y. \\x : Y. x", "expected": "forall A. A -> A", "status": "error", "diagnostic": {"kind": "type-mismatch", "message": "type mismatch", "span": {"line": 14, "col": 12, "end_line": 14, "end_col": 26}, "expected": "X -> X", "synthesized": "forall Y. Y -> Y"}}
{"goal": 6, "mode": "check", "term": "/\\X. \\x : Nat. x", "expected": "forall A. A -> A", "status": "error", "diagnostic": {"kind": "type-mismatch", "message": "type mismatch", "span": {"line": 15, "col": 12, "end_line": 15, "end_col": 23}, "expected": "X -> X", "synthesized": "Nat -> Nat"}}
{"goal": 7, "mode": "synth", "term": "/\\X. \\x : X. /\\Y. \\y : Y. x", "status": "ok", "type": "forall X. X -> (forall Y. Y -> X)", "elaboration": "/\\X. \\x : X. /\\Y. \\y : Y. x", "trace": ["tylam", "lam", "tylam", "lam", "var"]}
{"goal": 8, "mode": "synth", "term": "/\\X. \\x. x", "status": "error", "diagnostic": {"kind": "unannotated-lambda", "message": "cannot synthesize a type for an unannotated function", "span": {"line": 17, "col": 12, "end_line": 17, "end_col": 17}, "detail": "no contextual type here, so binder 'x' needs an annotation"}}
{"goal": 9, "mode": "synth", "term": "h z [B] tt", "status": "ok", "type": "Pair Nat B", "elaboration": "h [Nat] z [B] tt", "trace": ["app-synth", "spine-arg", "spine-tyarg", "spine-arg", "spine-head", "var", "peel", "arg-synth", "var", "arg-check", "var"]}
{"goal": 10, "mode": "synth", "term": "pair [Nat] z tt", "status": "ok", "type": "Pair Nat B", "elaboration": "pair [Nat] [B] z tt", "trace": ["app-synth", "spine-arg", "spine-arg", "spine-tyarg", "spine-head", "var", "peel", "arg-check", "var", "arg-synth", "var"]}
{"goal": 11, "mode": "synth", "term": "h tt [B] z", "status": "error", "diagnostic": {"kind": "type-mismatch", "message": "type mismatch", "span": {"line": 20, "col": 16, "end_line": 20, "end_col": 17}, "expected": "B", "synthesized": "Nat"}}
{"goal": 12, "mode": "check", "term": "h z [B] tt", "expected": "Pair Nat B", "status": "ok", "type": "Pair Nat B", "elaboration": "h [Nat] z [B] tt", "trace": ["app-check", "spine-arg", "spine-tyarg", "spine-arg", "spine-head", "var", "peel", "arg-check", "var", "arg-check", "var"]}
{"goal": 13, "mode": "synth", "term": "bot [forall Y. Y -> Y] [Nat] z", "status": "ok", "type": "Nat", "elaboration": "bot [forall Y. Y -> Y] [Nat] z", "trace": ["app-synth", "spine-arg", "spine-tyarg", "spine-tyarg", "spine-head", "var", "arg-check", "var"]}
{"goal": 14, "mode": "synth", "term": "bot [forall Y. forall Z. Y -> Z -> Y] [Nat] [B]", "status": "ok", "type": "Nat -> B -> Nat", "elaboration": "bot [forall Y. forall Z. Y -> Z -> Y] [Nat] [B]", "trace": ["tyapp", "tyapp", "tyapp", "var"]}
"""


@pytest.fixture
def binder_file(tmp_path):
    path = tmp_path / "binders.spn"
    path.write_text(BINDER_GOLDEN)
    return str(path)


def test_golden_binder_chains_text(binder_file, capsys, monkeypatch):
    monkeypatch.setenv("SPINEL_COLOR", "never")
    code = main(["run", binder_file, "--elab", "--trace"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == BINDER_GOLDEN_TEXT


def test_golden_binder_chains_ndjson(binder_file, capsys):
    code = main(["run", binder_file, "--json", "--elab", "--trace"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == BINDER_GOLDEN_NDJSON


def readme_blocks():
    """The fenced code blocks of README.md, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("```")[1::2]


def test_readme_demo_prints_what_the_readme_shows(tmp_path, capsys, monkeypatch):
    # README's demo source, the `--elab` output it shows for the accepted
    # goals, and the diagnostics it shows for the rejected ones.
    blocks = readme_blocks()
    demo = next(b for b in blocks if "-- a small demo signature" in b)
    shown = [b.strip("\n") for b in blocks if b.lstrip("\n").startswith("[")]
    path = tmp_path / "demo.spn"
    path.write_text(demo.lstrip("\n"))
    monkeypatch.setenv("SPINEL_COLOR", "never")
    assert main(["run", str(path), "--elab"]) == 1
    printed = capsys.readouterr().out.rstrip("\n")
    assert len(shown) == 2
    assert [b for b in shown if b not in printed] == []
    # The README explains diagnostics with the first golden goal's report.
    golden_first = GOLDEN_TEXT.split("\n\n")[0].split("\n", 1)[1]
    assert golden_first in printed


# ------------------------------------------ golden quantifier names, unsolved

# Quantifiers a spine never reached, shown in an applicand type under
# their source binders (primed where that name is free below them), and
# the metas an unsolved-meta-variables diagnostic leaves open, in text
# and as the NDJSON ``unsolved`` list.
NAMES_GOLDEN = r"""type Nat
type B
type Sum 2
assume z : Nat
assume tt : B
assume g2 : forall X. Nat -> forall Y. Y -> Y
assume g3 : forall X. Nat -> forall Y. Y -> X
assume h : forall X. X -> forall Y. Y -> Y
assume k : forall F. F -> Nat -> F
assume right : forall X. forall Y. Y -> Sum X Y
assume both : forall X. forall Y. Nat -> Sum X Y

synth g2 [Nat] [B] z tt
synth k h [B] z tt
synth /\Y. g3 [Y] [B] z tt
synth right z
synth both z
"""

NAMES_GOLDEN_TEXT = r"""[1] synth g2 [Nat] [B] z tt
    error: applicand is not polymorphic at 13:7
      applicand type: Nat -> (forall Y. Y -> Y)

[2] synth k h [B] z tt
    error: applicand is not polymorphic at 14:7
      applicand type: Nat -> (forall X. X -> (forall Y. Y -> Y))

[3] synth /\Y. g3 [Y] [B] z tt
    error: applicand is not polymorphic at 15:12
      applicand type: Nat -> (forall Y'. Y' -> Y)

[4] synth right z
    error: cannot determine all type arguments at 16:7
      synthesized type: Sum ?X Nat
      unsolved: ?X

[5] synth both z
    error: cannot determine all type arguments at 17:7
      synthesized type: Sum ?X ?Y
      unsolved: ?X, ?Y

"""

NAMES_GOLDEN_NDJSON = r"""{"goal": 1, "mode": "synth", "term": "g2 [Nat] [B] z tt", "status": "error", "diagnostic": {"kind": "applicand-not-forall", "message": "applicand is not polymorphic", "span": {"line": 13, "col": 7, "end_line": 13, "end_col": 19}, "synthesized": "Nat -> (forall Y. Y -> Y)"}}
{"goal": 2, "mode": "synth", "term": "k h [B] z tt", "status": "error", "diagnostic": {"kind": "applicand-not-forall", "message": "applicand is not polymorphic", "span": {"line": 14, "col": 7, "end_line": 14, "end_col": 14}, "synthesized": "Nat -> (forall X. X -> (forall Y. Y -> Y))"}}
{"goal": 3, "mode": "synth", "term": "/\\Y. g3 [Y] [B] z tt", "status": "error", "diagnostic": {"kind": "applicand-not-forall", "message": "applicand is not polymorphic", "span": {"line": 15, "col": 12, "end_line": 15, "end_col": 22}, "synthesized": "Nat -> (forall Y'. Y' -> Y)"}}
{"goal": 4, "mode": "synth", "term": "right z", "status": "error", "diagnostic": {"kind": "unsolved-meta-variables", "message": "cannot determine all type arguments", "span": {"line": 16, "col": 7, "end_line": 16, "end_col": 14}, "synthesized": "Sum ?X Nat", "unsolved": ["?X"]}}
{"goal": 5, "mode": "synth", "term": "both z", "status": "error", "diagnostic": {"kind": "unsolved-meta-variables", "message": "cannot determine all type arguments", "span": {"line": 17, "col": 7, "end_line": 17, "end_col": 13}, "synthesized": "Sum ?X ?Y", "unsolved": ["?X", "?Y"]}}
"""


@pytest.fixture
def names_file(tmp_path):
    path = tmp_path / "names.spn"
    path.write_text(NAMES_GOLDEN)
    return str(path)


def test_golden_quantifier_names_and_unsolved_text(names_file, capsys, monkeypatch):
    monkeypatch.setenv("SPINEL_COLOR", "never")
    code = main(["run", names_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == NAMES_GOLDEN_TEXT


def test_golden_quantifier_names_and_unsolved_ndjson(names_file, capsys):
    code = main(["run", names_file, "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == NAMES_GOLDEN_NDJSON


# Metas an unsolved spine leaves only in its elaboration: `g2 z`
# elaborates to `g2 [?X] z` although its type no longer mentions ?X.
UNSOLVED_GOLDEN = r"""type Nat
type Sum 2
assume z : Nat
assume g2 : forall X. Nat -> forall Y. Y -> Y
assume const : forall X. Nat -> Nat
assume mix : forall X. forall Y. Nat -> Sum Y Y

synth g2 z
check g2 z : forall Y. Y -> Y
synth const z
check const z : Nat
synth mix z
"""

UNSOLVED_GOLDEN_TEXT = r"""[1] synth g2 z
    error: cannot determine all type arguments at 8:7
      synthesized type: forall Y. Y -> Y
      unsolved: ?X

[2] check g2 z : forall Y. Y -> Y
    error: cannot determine all type arguments at 9:7
      expected type: forall Y. Y -> Y
      synthesized type: forall Y. Y -> Y
      unsolved: ?X

[3] synth const z
    error: cannot determine all type arguments at 10:7
      synthesized type: Nat
      unsolved: ?X

[4] check const z : Nat
    error: cannot determine all type arguments at 11:7
      expected type: Nat
      synthesized type: Nat
      unsolved: ?X

[5] synth mix z
    error: cannot determine all type arguments at 12:7
      synthesized type: Sum ?Y ?Y
      unsolved: ?X, ?Y

"""

UNSOLVED_GOLDEN_NDJSON = r"""{"goal": 1, "mode": "synth", "term": "g2 z", "status": "error", "diagnostic": {"kind": "unsolved-meta-variables", "message": "cannot determine all type arguments", "span": {"line": 8, "col": 7, "end_line": 8, "end_col": 11}, "synthesized": "forall Y. Y -> Y", "unsolved": ["?X"]}}
{"goal": 2, "mode": "check", "term": "g2 z", "expected": "forall Y. Y -> Y", "status": "error", "diagnostic": {"kind": "unsolved-meta-variables", "message": "cannot determine all type arguments", "span": {"line": 9, "col": 7, "end_line": 9, "end_col": 11}, "expected": "forall Y. Y -> Y", "synthesized": "forall Y. Y -> Y", "unsolved": ["?X"]}}
{"goal": 3, "mode": "synth", "term": "const z", "status": "error", "diagnostic": {"kind": "unsolved-meta-variables", "message": "cannot determine all type arguments", "span": {"line": 10, "col": 7, "end_line": 10, "end_col": 14}, "synthesized": "Nat", "unsolved": ["?X"]}}
{"goal": 4, "mode": "check", "term": "const z", "expected": "Nat", "status": "error", "diagnostic": {"kind": "unsolved-meta-variables", "message": "cannot determine all type arguments", "span": {"line": 11, "col": 7, "end_line": 11, "end_col": 14}, "expected": "Nat", "synthesized": "Nat", "unsolved": ["?X"]}}
{"goal": 5, "mode": "synth", "term": "mix z", "status": "error", "diagnostic": {"kind": "unsolved-meta-variables", "message": "cannot determine all type arguments", "span": {"line": 12, "col": 7, "end_line": 12, "end_col": 12}, "synthesized": "Sum ?Y ?Y", "unsolved": ["?X", "?Y"]}}
"""


@pytest.mark.parametrize("flags, golden", [([], UNSOLVED_GOLDEN_TEXT), (["--json"], UNSOLVED_GOLDEN_NDJSON)],
                         ids=["text", "ndjson"])
def test_golden_unsolved_names_metas_only_in_the_elaboration(tmp_path, capsys, monkeypatch, flags, golden):
    monkeypatch.setenv("SPINEL_COLOR", "never")
    path = tmp_path / "unsolved.spn"
    path.write_text(UNSOLVED_GOLDEN)
    code = main(["run", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == golden


# ------------------------------------------------------- pinned output bytes


def test_erasure_corpus_output_bytes_are_pinned(monkeypatch):
    # Every accepted and rejected goal's type, elaboration, trace, diagnostic
    # and replay verdict, held byte for byte: a change that means to make the
    # program faster, not different, must leave both digests as they are.
    monkeypatch.delenv("SPINEL_COLOR", raising=False)
    # The size-6 erasure file, each erasure checked, synthesized and then
    # checked against a wrong type: 1,757 erasures.
    src = erasure_source(6, "check synth wrong")
    assert src.count("\n") - len(STANDARD_DECLS) == 3 * 1757
    for flags, pinned in PINNED_OUTPUT.items():
        assert run_output(src, flags) == pinned, flags


def test_wrong_types_drawn_across_the_pool_are_pinned(monkeypatch):
    # Each size-6 erasure checked against the next type of the sorted pool
    # after its own, cyclically: 451 wrong types up to alpha-equality, so
    # the diagnostics' printed types cover the pool, not one or two types.
    monkeypatch.delenv("SPINEL_COLOR", raising=False)
    src = erasure_source(6, "next")
    wrong = [ty(line.rpartition(" : ")[2]) for line in src.splitlines()[len(STANDARD_DECLS):]]
    distinct = []
    for t in wrong:
        if not any(alpha_equal(t, d) for d in distinct):
            distinct.append(t)
    assert (len(wrong), len(distinct)) == (1757, 451)
    assert run_output(src, ()) == PINNED_NEXT_OUTPUT


def test_erasure_corpus_repl_bytes_are_pinned(monkeypatch):
    # The interactive loop's reports of the same goals, held byte for byte.
    monkeypatch.delenv("SPINEL_COLOR", raising=False)
    assert repl_output(erasure_source(6, "check synth wrong")) == PINNED_REPL_OUTPUT


def test_the_pin_tool_checks_the_tests_pins():
    # tools/pins.py checks the pins on an interpreter without the test
    # dependencies; loaded here, not started, it lists each pin the tests
    # hold, at the tests' value, and computes it by the tests' run.
    spec = importlib.util.spec_from_file_location("pins_tool", Path(__file__).resolve().parents[1] / "tools" / "pins.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    checked = {name: (value, compute.func, compute.args) for name, value, compute in tool.pins()}
    src = erasure_source(6, "check synth wrong")
    assert checked == {
        **{f"spinel run {' '.join(flags)}": (pinned, run_output, (src, flags)) for flags, pinned in PINNED_OUTPUT.items()},
        "spinel run (next wrong types)": (PINNED_NEXT_OUTPUT, run_output, (erasure_source(6, "next"), ())),
        "spinel repl": (PINNED_REPL_OUTPUT, repl_output, (src,)),
        "parse": (PINNED_PARSE, parse_digest, (erasure_source(7),)),
    }


def _failing_infer(monkeypatch):
    """Make a goal whose term is the name ``broken`` end in an engine
    invariant error whose message holds a quote, a backslash and a
    non-ASCII character."""
    import spinel.cli as cli

    engine = cli.infer

    def infer_or_fail(ctx, mode, term, trace=None):
        if getattr(term, "name", None) == "broken":
            raise EngineInvariantError('a "broken" \\ invariant \u00e9')
        return engine(ctx, mode, term, trace=trace)

    monkeypatch.setattr(cli, "infer", infer_or_fail)


@pytest.mark.parametrize(
    "flags", [("--json",), ("--json", "--elab"), ("--json", "--elab", "--trace", "--spec-verify")]
)
def test_every_json_line_is_what_json_dumps_writes_for_its_record(tmp_path, capsys, monkeypatch, flags):
    # `--json` writes each record with its keys as literal text, not through
    # `json.dumps`, and is held to that function's bytes: ASCII only, ", "
    # and ": " separators, keys in record order.  The file has ok and error
    # records (with a trace and a replay under the last flags), a
    # resource-limit and an internal-error record, and parse errors whose
    # message holds a non-ASCII character and an undecodable byte.
    _failing_infer(monkeypatch)
    src = erasure_source(5, "check synth wrong") + (
        f"assume broken : Nat\nsynth broken\nsynth {deep_suc(300)}\nsynth z \u00e9\nsynth suc z\n"
    )
    path = tmp_path / "records.spn"
    path.write_bytes(src.encode() + b"synth \xff z\ncheck suc z : Nat\n")
    with recursion_headroom(1000):
        assert main(["run", str(path), *flags]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert all(line == json.dumps(json.loads(line)) for line in lines)
    records = [json.loads(line) for line in lines]
    assert {r["status"] for r in records} == {"ok", "error", "resource-limit", "internal-error", "parse-error"}
    messages = [r["message"] for r in records if r["status"] == "parse-error"]
    assert messages == ["unexpected character '\u00e9'", "unexpected character '\\udcff'"]
    assert [r["message"] for r in records if r["status"] == "internal-error"] == ['a "broken" \\ invariant \u00e9']
    if "--trace" in flags:
        assert all("trace" in r and "spec" in r for r in records if r["status"] == "ok")


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
def test_an_engine_invariant_error_is_reported_and_later_goals_run(tmp_path, capsys, monkeypatch, json_flag):
    _failing_infer(monkeypatch)
    path = tmp_path / "broken.spn"
    path.write_text(HEAD + "assume broken : Nat\ncheck broken : Nat\nsynth z\n")
    assert main(["run", str(path), *(["--json"] if json_flag else [])]) == 3
    out = capsys.readouterr().out
    message = 'a "broken" \\ invariant \u00e9'
    if json_flag:
        assert [json.loads(line) for line in out.splitlines()] == [
            {"goal": 1, "mode": "check", "term": "broken", "expected": "Nat", "status": "internal-error",
             "message": message},
            {"goal": 2, "mode": "synth", "term": "z", "status": "ok", "type": "Nat"},
        ]
    else:
        assert out == f"[1] check broken : Nat\n    internal error: {message}\n\n[2] synth z\n    type: Nat\n\n"


# ----------------------------------------------------------- deep input

HEAD = "type Nat\nassume z : Nat\nassume suc : Nat -> Nat\n"


def deep_suc(n):
    return "suc (" * n + "z" + ")" * n


def run_child(path, *flags):
    """`spinel run` in a fresh interpreter: its stack starts where a user's does."""
    env = dict(os.environ, PYTHONPATH=str(Path(spinel.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from spinel.cli import main; sys.exit(main())",
         "run", str(path), *flags],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
def test_too_deep_goal_is_a_resource_limit_and_later_goals_run(tmp_path, json_flag):
    path = tmp_path / "deep.spn"
    path.write_text(HEAD + f"synth {deep_suc(250)}\nsynth z\n")
    proc = run_child(path, *(["--json"] if json_flag else []))
    assert proc.returncode == 3
    assert proc.stderr == ""
    message = "goal at 4:1 is nested too deeply"
    if json_flag:
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert records[0] == {"goal": 1, "mode": "synth", "status": "resource-limit", "message": message}
        assert records[1]["status"] == "ok" and records[1]["type"] == "Nat"
    else:
        assert proc.stdout.splitlines() == [
            "[1] synth",
            f"    resource limit: {message}",
            "",
            "[2] synth z",
            "    type: Nat",
            "",
        ]


def test_too_deep_declaration_is_a_parse_error_at_its_first_token(tmp_path):
    # Chains parse by loops at any length; parentheses still nest by
    # recursion.  The error ends only its declaration: the goal after it runs.
    n = 2000
    path = tmp_path / "deep.spn"
    path.write_text(HEAD + f"assume g : {'(' * n}Nat{')' * n}\nsynth z\n")
    proc = run_child(path, "--json")
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        {"status": "parse-error", "line": 4, "col": 1, "message": "declaration is nested too deeply"},
        {"goal": 1, "mode": "synth", "term": "z", "status": "ok", "type": "Nat"},
    ]
    proc = run_child(path)
    assert proc.returncode == 2
    assert proc.stderr == "parse error: 4:1: declaration is nested too deeply\n"
    assert proc.stdout == "[1] synth z\n    type: Nat\n\n"


def test_a_declaration_400_deep_is_a_parse_error_and_the_goal_after_it_answers(tmp_path):
    path = tmp_path / "deep.spn"
    path.write_text(HEAD + f"synth {deep_suc(400)}\nsynth z\n")
    proc = run_child(path, "--json")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        {"status": "parse-error", "line": 4, "col": 1, "message": "declaration is nested too deeply"},
        {"goal": 1, "mode": "synth", "term": "z", "status": "ok", "type": "Nat"},
    ]


# Three bad declarations, each ending only itself: an unexpected character
# (which comes before the grammar error at its '(') at the start, a grammar
# error in the middle, whose name a later goal then finds unbound, and a
# declaration too deep to parse at the end.
RECOVERY = (
    "check ( $ : Nat\n" + HEAD + "synth suc z\nassume f : Nat -> -> Nat\nsynth f z\n"
    "check suc (suc z) : Nat\n" + f"synth {deep_suc(400)}\n"
)

RECOVERY_JSON = [
    {"status": "parse-error", "line": 1, "col": 9, "message": "unexpected character '$'"},
    {"goal": 1, "mode": "synth", "term": "suc z", "status": "ok", "type": "Nat"},
    {"status": "parse-error", "line": 6, "col": 19, "message": "expected a type, found '->'"},
    {"goal": 2, "mode": "synth", "term": "f z", "status": "error", "diagnostic": {
        "kind": "unbound-name", "message": "unbound name",
        "span": {"line": 7, "col": 7, "end_line": 7, "end_col": 8}, "detail": "unbound name 'f'",
    }},
    {"goal": 3, "mode": "check", "term": "suc (suc z)", "expected": "Nat", "status": "ok", "type": "Nat"},
    {"status": "parse-error", "line": 9, "col": 1, "message": "declaration is nested too deeply"},
]

# The text form, standard error merged into standard output in the order written.
RECOVERY_TEXT = """\
parse error: 1:9: unexpected character '$'
[1] synth suc z
    type: Nat

parse error: 6:19: expected a type, found '->'
[2] synth f z
    error: unbound name at 7:7
      note: unbound name 'f'

[3] check suc (suc z) : Nat
    type: Nat

parse error: 9:1: declaration is nested too deeply
"""


def test_golden_recovery_after_bad_declarations(tmp_path):
    path = tmp_path / "recovery.spn"
    path.write_text(RECOVERY)
    proc = run_child(path, "--json")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert [json.loads(line) for line in proc.stdout.splitlines()] == RECOVERY_JSON
    env = dict(os.environ, PYTHONPATH=str(Path(spinel.__file__).resolve().parents[1]), SPINEL_COLOR="never")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from spinel.cli import main; sys.exit(main())", "run", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, RECOVERY_TEXT)


def test_parse_errors_at_block_boundaries_keep_declaration_order(tmp_path, capsys):
    # Each grammar error comes right after a full block, so it ends an empty one.
    goals = [f"check {'suc ' * i}z : Nat" for i in range(2 * _BLOCK + 1)]
    lines = goals[:_BLOCK] + ["synth )"] + goals[_BLOCK:-1] + ["check : Nat"] + goals[-1:]
    path = tmp_path / "blocks.spn"
    path.write_text(HEAD + "\n".join(lines) + "\n")
    code, out, err = run_lines(capsys, "run", str(path), "--json")
    assert (code, err) == (2, "")
    records = [json.loads(line) for line in out]
    errors = [4 + _BLOCK, 4 + 2 * _BLOCK + 1]
    assert [r.get("goal", r.get("line")) for r in records] == [
        *range(1, _BLOCK + 1), errors[0], *range(_BLOCK + 1, 2 * _BLOCK + 1), errors[1], 2 * _BLOCK + 1
    ]
    assert [r["term"] for r in records if "goal" in r] == [g[len("check "):-len(" : Nat")] for g in goals]


def test_a_run_holds_one_block_of_trees_not_the_file(tmp_path, monkeypatch):
    # tracemalloc counts deterministically.  Reading the whole file, and
    # parsing it before answering, made the 10x file's peak 9.7x the 1x one.
    # Blocks of 16 goals make the size-4 erasure file 23 blocks long, so the
    # test is cheap; a first, untraced run makes what any run makes once.
    monkeypatch.setattr("spinel.cli._BLOCK", 16)
    peaks = []
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        for times in (1, 1, 10):
            src = erasure_source(4, times=times)
            assert src.count("\n") - len(STANDARD_DECLS) == 356 * times
            path = tmp_path / f"erasures-{times}.spn"
            path.write_text(src)
            tracemalloc.start()
            try:
                assert main(["run", str(path), "--json", "--elab"]) == 1
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1], peaks


def test_an_interleaved_file_holds_one_context_at_a_time(tmp_path, monkeypatch):
    # A block is the goals that share one context, so a file that alternates
    # assume and goal lines keeps one context alive, not one per goal of a
    # block: its peak is within 10% of the file with every assume first.
    # Blocks that paired each goal with its own context made it 9.4 times.
    # The first run makes what any run makes once; the second is kept.
    peaks = {}
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        for separated in (True, True, False):
            path = tmp_path / f"pairs-{separated}.spn"
            path.write_text(interleaved_source(1000, separated))
            tracemalloc.start()
            try:
                assert main(["run", str(path), "--json"]) == 0
                peaks[separated] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[False] <= 1.1 * peaks[True], peaks


def test_long_chain_declaration_is_checked_and_its_goals_end_in_an_outcome(tmp_path):
    # A 2,000-link quantifier and arrow chain parses and enters the
    # context; a goal using it answers or reports a resource limit, never
    # a traceback, and the goals after it still run.
    n = 2000
    path = tmp_path / "long.spn"
    path.write_text(HEAD + f"assume g : {quantifier_chain(n)}\nsynth g{' z' * n}\nsynth z\n")
    proc = run_child(path, "--json")
    assert proc.stderr == ""
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["goal"] for r in records] == [1, 2]
    assert records[0]["status"] in ("ok", "resource-limit")
    assert records[1]["status"] == "ok" and records[1]["type"] == "Nat"
    assert proc.returncode == (0 if records[0]["status"] == "ok" else 3)


def _long_spine_file(tmp_path, n):
    """``g : forall X1..Xn. X1 -> ... -> Xn -> Nat`` applied to n arguments,
    synthesized and checked, then one more goal."""
    args = " ".join("z" if i % 2 else "tt" for i in range(1, n + 1))
    path = tmp_path / "spine.spn"
    path.write_text(
        HEAD + f"type B\nassume tt : B\nassume g : {quantifier_chain(n)}\n"
        f"synth g {args}\ncheck g {args} : Nat\nsynth z\n"
    )
    targs = " ".join("[Nat]" if i % 2 else "[B]" for i in range(1, n + 1))
    return path, f"g {targs} {args}"


def test_long_polymorphic_spine_answers_and_later_goals_run(tmp_path):
    # The spine and its elaboration are walked by loops, so 1,000 inferred
    # type arguments answer at the default recursion limit.
    path, elaboration = _long_spine_file(tmp_path, 1000)
    proc = run_child(path, "--json", "--elab")
    assert proc.stderr == ""
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["goal"], r["status"], r["type"]) for r in records] == [
        (1, "ok", "Nat"), (2, "ok", "Nat"), (3, "ok", "Nat")
    ]
    assert records[0]["elaboration"] == records[1]["elaboration"] == elaboration


def test_long_spine_past_a_solved_stuck_leaf_answers_and_replays(tmp_path):
    # `suc` solves X, the leaf that owes the last arrow.  The spine
    # re-matches that leaf alone, not the 4,000 links before it, so the
    # goals answer at the default recursion limit and their replays are
    # accepted.
    n = 4000
    args = "suc" + " z" * (n + 1)
    path = tmp_path / "stuck.spn"
    path.write_text(
        HEAD + f"assume h : forall X. X -> {_nat_chain(n)} -> X\n"
        f"synth h {args}\ncheck h {args} : Nat\nsynth z\n"
    )
    proc = run_child(path, "--json", "--elab", "--spec-verify")
    assert proc.stderr == ""
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["goal"], r["status"], r["type"]) for r in records] == [
        (1, "ok", "Nat"), (2, "ok", "Nat"), (3, "ok", "Nat")
    ]
    assert records[0]["elaboration"] == records[1]["elaboration"] == f"h [Nat -> Nat] {args}"
    assert [r["spec"].get("accepted") for r in records[:2]] == [True, True]


def test_long_type_application_chain_answers_and_later_goals_run(tmp_path):
    # Substitution and canonical keys follow arrow chains by loops, so 2,000
    # explicit type arguments answer at the default recursion limit.
    n = 2000
    targs = " ".join("[Nat]" if i % 2 else "[B]" for i in range(1, n + 1))
    instance = " -> ".join("Nat" if i % 2 else "B" for i in range(1, n + 1)) + " -> Nat"
    path = tmp_path / "tyapps.spn"
    path.write_text(
        HEAD + f"type B\nassume g : {quantifier_chain(n)}\n"
        f"synth g {targs}\ncheck g {targs} : {instance}\nsynth z\n"
    )
    proc = run_child(path, "--json")
    assert proc.stderr == ""
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["goal"], r["status"], r["type"]) for r in records] == [
        (1, "ok", instance), (2, "ok", instance), (3, "ok", "Nat")
    ]


def test_long_polymorphic_spine_replay_is_accepted_and_later_goals_run(tmp_path):
    # The declarative replay compares partial elaborations by canonical
    # keys that follow the spine by a loop, so the replay of 1,000 inferred
    # type arguments is accepted at the default recursion limit.
    path, _ = _long_spine_file(tmp_path, 1000)
    proc = run_child(path, "--json", "--spec-verify")
    assert proc.stderr == ""
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["goal"], r["status"], r["type"]) for r in records] == [
        (1, "ok", "Nat"), (2, "ok", "Nat"), (3, "ok", "Nat")
    ]
    assert [r["spec"].get("accepted") for r in records[:2]] == [True, True]
    assert records[2]["spec"] == {"skipped": True}


def _nat_chain(n):
    return " -> ".join(["Nat"] * n)


def test_long_checked_spine_and_synthetic_match_answer_and_replay(tmp_path):
    # First-order matching and the replay's instantiation solver follow
    # arrow chains by loops, so a checked spine and a synthetic match
    # against 8,000-link chains answer at the default recursion limit, and
    # their replays are accepted.
    n = 8000
    chain = _nat_chain(n)
    dom = " -> ".join(["Nat"] * (n - 1) + ["X"])
    path = tmp_path / "chains.spn"
    path.write_text(
        HEAD + f"assume f : {chain}\nassume g : forall X. X -> {chain}\n"
        f"assume h : forall X. ({dom}) -> X\ncheck g z : {chain}\nsynth h f\nsynth z\n"
    )
    proc = run_child(path, "--json", "--spec-verify")
    assert proc.stderr == ""
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["goal"], r["status"], r["type"]) for r in records] == [
        (1, "ok", chain), (2, "ok", "Nat"), (3, "ok", "Nat")
    ]
    assert [r["spec"].get("accepted") for r in records[:2]] == [True, True]
    assert records[2]["spec"] == {"skipped": True}


def test_a_misplaced_type_argument_on_a_long_spine_is_diagnosed(tmp_path):
    # The diagnostic shows the rest of the spine's type, walked by a loop.
    n = 2000
    path = tmp_path / "misplaced.spn"
    path.write_text(HEAD + f"assume g : forall X. X -> {_nat_chain(n)}\nsynth g [Nat] [Nat]{' z' * n}\nsynth z\n")
    proc = run_child(path, "--json")
    assert proc.stderr == ""
    assert proc.returncode == 1
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["goal"], r["status"]) for r in records] == [(1, "error"), (2, "ok")]
    assert records[0]["diagnostic"]["kind"] == "applicand-not-forall"
    assert records[0]["diagnostic"]["synthesized"] == _nat_chain(n + 1)


@pytest.mark.parametrize("flags", [["--json", "--elab"], ["--elab"]], ids=["json", "text"])
def test_an_accepted_goal_renders_its_type_and_elaboration_once(tmp_path, capsys, monkeypatch, flags):
    import spinel.cli as cli

    infer = cli.infer
    outcomes, rendered = [], []

    def recorded_infer(ctx, mode, term, **kwargs):
        out = infer(ctx, mode, term, **kwargs)
        outcomes.append((getattr(mode, "expected", None), out))
        return out

    def counted(render):
        def wrapper(x, *rest):
            rendered.append(x)
            return render(x, *rest)
        return wrapper

    monkeypatch.setattr(cli, "infer", recorded_infer)
    monkeypatch.setattr(cli, "pretty_type", counted(cli.pretty_type))
    monkeypatch.setattr(cli, "pretty_term", counted(cli.pretty_term))
    path = tmp_path / "once.spn"
    path.write_text(GOOD + "synth pair z (\\x : Nat. suc x)\ncheck \\x. suc x : Nat -> Nat\n")
    assert main(["run", str(path), *flags]) == 0
    assert capsys.readouterr().err == ""
    assert len(outcomes) == 4
    for expected, out in outcomes:
        # a checked goal's type may be its expected type, which the header shows
        assert sum(x is out.ty for x in rendered) == 1 + (out.ty is expected)
        assert sum(x is out.elaboration for x in rendered) == 1


def test_a_fully_annotated_goal_renders_its_term_once(tmp_path, capsys, monkeypatch):
    # its elaboration is the term's own tree, so the term's text serves both
    import spinel.cli as cli

    render, rendered = cli.pretty_term, []

    def counted(t, *rest):
        rendered.append(t)
        return render(t, *rest)

    monkeypatch.setattr(cli, "pretty_term", counted)
    path = tmp_path / "annotated.spn"
    term = "\\x : Nat. pair [Nat] [Nat] x (suc x)"
    path.write_text(
        "type Nat\ntype Pair 2\nassume suc : Nat -> Nat\n"
        "assume pair : forall X. forall Y. X -> Y -> Pair X Y\n"
        f"check {term} : Nat -> Pair Nat Nat\n"
    )
    assert main(["run", str(path), "--json", "--elab"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(rendered) == 1
    assert record["term"] == record["elaboration"] == term


# ------------------------------------------------------------ interactive


def feed_repl(monkeypatch, capsys, lines):
    feed = iter(lines)

    def fake_input(_=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)
    monkeypatch.setenv("SPINEL_COLOR", "never")
    code = main(["repl"])
    return code, capsys.readouterr().out


def test_repl_session(monkeypatch, capsys):
    code, out = feed_repl(
        monkeypatch,
        capsys,
        [
            ":type Nat",
            ":assume z : Nat",
            ":assume f : forall X. X -> X",
            ":synth f z",
            ":check f z : Nat",
            ":quit",
        ],
    )
    assert code == 0
    assert "type: Nat" in out
    assert "elaboration: f [Nat] z" in out
    assert "ok: Nat" in out


def test_repl_reports_errors_and_keeps_going(monkeypatch, capsys):
    code, out = feed_repl(
        monkeypatch,
        capsys,
        [
            ":type Nat",
            ":type Nat",
            ":assume z : Nat",
            ":check z : Undeclared",
            ":frobnicate",
            "",
            ":help",
            ":q",
        ],
    )
    assert code == 0
    assert "parse error:" in out
    assert "unknown command ':frobnicate'" in out
    assert ":assume name : T" in out


def test_repl_diagnoses_bad_goals(monkeypatch, capsys):
    code, out = feed_repl(
        monkeypatch,
        capsys,
        [":type Nat", ":type B", ":assume z : Nat", ":check z : B", ":q"],
    )
    assert code == 0
    assert "error: type mismatch" in out


def test_repl_reports_too_deep_input_and_keeps_going(monkeypatch, capsys):
    # Too deep to parse is the reader's parse error at the declaration's
    # first token; parsed, but too deep to type-check, an ``error:`` line.
    with recursion_headroom(1000):
        code, out = feed_repl(
            monkeypatch,
            capsys,
            [":type Nat", ":assume z : Nat", ":assume suc : Nat -> Nat",
             f":synth {deep_suc(2000)}", f":synth {deep_suc(250)}", ":synth suc z", ":q"],
        )
    assert code == 0
    assert out.splitlines()[4:] == [
        "parse error: 1:2: declaration is nested too deeply",
        "error: input is nested too deeply",
        "type: Nat",
        "elaboration: suc z",
    ]


def test_repl_reports_an_arity_with_too_many_digits_as_a_parse_error(monkeypatch, capsys):
    code, out = feed_repl(monkeypatch, capsys, [f":type Big {'9' * 5000}", ":q"])
    assert code == 0
    assert out.splitlines()[-1] == "parse error: 1:11: arity is too large"


def test_repl_exits_on_end_of_input(monkeypatch, capsys):
    code, out = feed_repl(monkeypatch, capsys, [])
    assert code == 0


def test_repl_command_word_ends_at_a_tab(monkeypatch, capsys):
    code, out = feed_repl(
        monkeypatch, capsys,
        [":type\tNat", ":assume\tz : Nat", ":check\tz : Nat", ":synth\tz", " :synth\t\tz\t"],
    )
    assert code == 0
    assert out.splitlines()[1:] == ["type Nat", "z : Nat", "ok: Nat", "elaboration: z",
                                    "type: Nat", "elaboration: z", "type: Nat", "elaboration: z", ""]


REPL_PRELUDE = [":type Nat", ":type B", ":assume z : Nat", ":assume ident : forall X. X -> X"]

# A malformed command and the parse error the REPL prints for it.  A
# command is read as a line of a source file, its ``:`` a blank, so
# columns count in the command as typed.
REPL_PARSE_ERRORS = [
    (":type Nat", "1:7: duplicate declaration of 'Nat'"),
    (":type z", "1:7: duplicate declaration of 'z'"),
    (":type", "1:6: expected a constructor name"),
    (":assume z : B", "1:9: duplicate declaration of 'z'"),
    (":assume Nat : B", "1:9: duplicate declaration of 'Nat'"),
    (":assume w : Undeclared", "1:13: unbound type variable 'Undeclared'"),
    (":assume w Nat", "1:11: expected ':', found 'Nat'"),
    (":assume", "1:8: expected a name"),
    (":check \\z. z : Nat -> Nat", "1:9: 'z' shadows an existing binding"),
    (":check z : Undeclared", "1:12: unbound type variable 'Undeclared'"),
    (":check ident z", "1:15: expected ':'"),
    (":check", "1:7: expected a term"),
    (":synth \\z : Nat. z", "1:9: 'z' shadows an existing binding"),
    (":synth \\x : Undeclared. x", "1:13: unbound type variable 'Undeclared'"),
    (":synth ident [Undeclared] z", "1:15: unbound type variable 'Undeclared'"),
    (":synth", "1:7: expected a term"),
]


@pytest.mark.parametrize("line, error", REPL_PARSE_ERRORS, ids=[line for line, _ in REPL_PARSE_ERRORS])
def test_repl_parse_error_message_and_position(monkeypatch, capsys, line, error):
    code, out = feed_repl(monkeypatch, capsys, REPL_PRELUDE + [line, ":q"])
    assert code == 0
    assert out.splitlines()[-1] == f"parse error: {error}"


# A command with a token after its declaration, and what the REPL prints
# for it: as a line of a source file does, the declaration is carried
# out, and the stray token is a parse error of its own.
REPL_TRAILING_INPUT = [
    (":type Tree 2 3", ["type Tree 2", "parse error: 1:14: expected a declaration, found '3'"]),
    (":assume w : Nat B", ["w : Nat", "parse error: 1:17: expected a declaration, found 'B'"]),
    (":check z : Nat B", ["ok: Nat", "elaboration: z", "parse error: 1:16: expected a declaration, found 'B'"]),
    (":synth z : Nat", ["type: Nat", "elaboration: z", "parse error: 1:10: expected a declaration, found ':'"]),
]


@pytest.mark.parametrize("line, lines", REPL_TRAILING_INPUT, ids=[line for line, _ in REPL_TRAILING_INPUT])
def test_repl_trailing_input_position(monkeypatch, capsys, line, lines):
    code, out = feed_repl(monkeypatch, capsys, REPL_PRELUDE + [line, ":q"])
    assert code == 0
    assert out.splitlines()[1 + len(REPL_PRELUDE):] == lines


# ------------------------------------------------------------ entry point


def assert_runs_good_file(proc):
    assert proc.returncode == 0
    assert proc.stderr == ""
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["goal"] for r in records] == [1, 2]
    assert all(r["status"] == "ok" for r in records)


def test_console_script_smoke(good_file, tmp_path):
    # Run the `spinel` console script as the installer's wrapper would:
    # import the callable that pyproject.toml declares and exit with its
    # return value.  PYTHONPATH pins the child to this checkout, so neither
    # an install step nor a stale `spinel` on PATH is involved.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with (root / "pyproject.toml").open("rb") as f:
        project = tomllib.load(f)
    # The package finder must look where the package lives.
    where = project["tool"]["setuptools"]["packages"]["find"]["where"]
    assert any((root / w / "spinel" / "__init__.py").is_file() for w in where)
    entry = project["project"]["scripts"]["spinel"]
    module, _, attr = entry.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ, PYTHONPATH=str(Path(spinel.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "run", good_file, "--json"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=60,
    )
    assert_runs_good_file(proc)


@pytest.mark.skipif(
    shutil.which("spinel") is None,
    reason="no `spinel` executable on PATH (made by `pip install -e .`)",
)
def test_installed_console_script_smoke(good_file, tmp_path):
    # The executable that `pip install` generated, run as a user would.
    proc = subprocess.run(
        [shutil.which("spinel"), "run", good_file, "--json"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert_runs_good_file(proc)


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path, json_flag):
    # Far more output than a pipe holds, so the child is still writing
    # when the reader closes its end after one line, as `| head -1` does.
    path = tmp_path / "big.spn"
    path.write_text(HEAD + "synth suc z\n" * 20_000)
    env = dict(os.environ, PYTHONPATH=str(Path(spinel.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from spinel.cli import main; sys.exit(main())",
         "run", str(path), *(["--json"] if json_flag else [])],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert stderr == ""
    assert (json.loads(first)["goal"] == 1) if json_flag else (first == "[1] synth suc z\n")


# ------------------------------------------------------ the cyclic collector


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_spinel_run_starts_no_collection(tmp_path, monkeypatch, capsys, collector_state):
    # The trees a run builds are acyclic, so `spinel run` answers with the
    # collector paused.  With it running, this file starts hundreds of
    # collections, each walking live trees and freeing nothing.
    path = tmp_path / "erasures.spn"
    path.write_text(erasure_source(7))
    started, during = [], []
    enable = gc.enable

    def enable_after_the_run():
        # What the run started, not what the first allocation once the
        # collector is back on starts: the paused collector still counts them.
        during.append(list(started))
        enable()

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.enable()
    gc.collect()  # so that the argument parsing before the run starts none
    monkeypatch.setattr(gc, "enable", enable_after_the_run)
    gc.callbacks.append(hook)
    try:
        code = main(["run", str(path), "--json", "--elab"])
    finally:
        gc.callbacks.remove(hook)
    assert code == 1 and len(capsys.readouterr().out.splitlines()) == 11_492
    assert during == [[]]  # paused, and re-enabled once, when the run was over
    assert gc.isenabled()


def test_spinel_repl_starts_no_collection(monkeypatch, capsys, collector_state):
    # A session's trees are acyclic too, so `spinel repl` answers with the
    # collector paused.  With it running, this session of one 300-argument
    # spine starts about 20 collections, each walking live trees and
    # freeing nothing.
    feed = iter(":" + line for line in long_source("contextual", 300).splitlines())
    started, during = [], []

    def fake_input(_=""):
        line = next(feed, None)
        if line is None:
            during.extend(started)  # what the session started, not its end's clean-up
            raise EOFError
        return line

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    monkeypatch.setattr("builtins.input", fake_input)
    gc.enable()
    gc.collect()  # so that the argument parsing before the session starts none
    gc.callbacks.append(hook)
    try:
        code = main(["repl"])
    finally:
        gc.callbacks.remove(hook)
    assert code == 0 and f"\nok: {'Nat -> ' * 301}Nat\n" in capsys.readouterr().out
    assert during == []
    assert gc.isenabled()


class _ClosedStdout(io.TextIOBase):
    """A standard output whose reader is gone: every write is a broken
    pipe.  Its descriptor is a file the test owns, which ``main`` points at
    devnull."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


EXIT_PATHS = {
    "ok": (GOOD, 0),
    "diagnostic": (BAD, 1),
    "parse-error": ("synth )\n", 2),
    "unreadable": (None, 2),
    "resource-limit": (HEAD + f"synth {deep_suc(300)}\nsynth z\n", 3),
    "closed-stdout": (GOOD, 2),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("exit_path", EXIT_PATHS)
def test_spinel_run_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys, collector_state,
                                                         exit_path, enabled):
    source, expected_code = EXIT_PATHS[exit_path]
    path = tmp_path / "goals.spn"
    if source is not None:
        path.write_text(source)
    if exit_path == "closed-stdout":
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fd))
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        with recursion_headroom(1000):
            code = main(["run", str(path), "--json"])
    finally:
        if exit_path == "closed-stdout":
            os.close(fd)
    assert code == expected_code
    assert gc.isenabled() is enabled


def _interrupt(_=""):
    raise KeyboardInterrupt


# Each session answers one goal and then ends, before its last line if it has one.
REPL_EXITS = {
    "end-of-input": [*REPL_PRELUDE, ":synth z"],
    "quit": [*REPL_PRELUDE, ":synth z", ":quit", ":synth z"],
    "ctrl-c": [*REPL_PRELUDE, ":synth z", _interrupt, ":synth z"],
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("exit_path", REPL_EXITS)
def test_spinel_repl_leaves_the_collector_as_it_found_it(monkeypatch, capsys, collector_state, exit_path, enabled):
    feed = iter(REPL_EXITS[exit_path])

    def fake_input(_=""):
        line = next(feed, None)
        if line is None:
            raise EOFError
        return line() if callable(line) else line

    monkeypatch.setattr("builtins.input", fake_input)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    assert main(["repl"]) == 0
    assert capsys.readouterr().out.count("type: Nat") == 1
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_repl_called_directly_is_paused_and_leaves_the_collector_as_it_found_it(monkeypatch, capsys,
                                                                                 collector_state, enabled):
    # The benchmark times sessions through `repl()`, not `main`, and hands
    # it each line through a module attribute `input`.
    feed = iter([*REPL_PRELUDE, ":synth z"])
    paused = []

    def fake_input(_=""):
        paused.append(not gc.isenabled())
        line = next(feed, None)
        if line is None:
            raise EOFError
        return line

    monkeypatch.setattr(spinel.cli, "input", fake_input, raising=False)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    assert repl() == 0
    assert capsys.readouterr().out.count("type: Nat") == 1
    assert paused == [True] * 6
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_library_calls_leave_the_collector_alone(collector_state, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    parse_program(GOOD)
    assert gc.isenabled() is enabled
    term = tm("ident suc z")
    out = infer(CTX, Synthesize(), term)
    assert gc.isenabled() is enabled
    verdict = verify_spec(CTX, None, term, (out.spine.deco, out.spine.partial, out.spine.solution))
    assert verdict.accepted and gc.isenabled() is enabled
