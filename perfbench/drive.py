"""Running the program the ways a user does, and timing it.

Every call into ``spinel`` goes through a module attribute looked up at
call time, so the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns, sleep

from checks import AuditRaw

SUBPROCESS_TIMEOUT = 150


def _mod(name: str):
    return importlib.import_module(f"spinel.{name}")


# ---------------------------------------------------------- in process


def batch(chunk, flags: list[str]) -> tuple[str, float]:
    """``spinel run`` in process with stdout captured: (output, seconds).

    A crash ends the run early; the goals it left unprinted then read as
    missing and count as failed.
    """
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            _mod("cli").main(["run", str(chunk.path), *flags])
        except Exception as exc:  # noqa: BLE001 - a crash is an outcome to count
            _report_crash(exc)
    return buf.getvalue(), perf_counter() - start


def _report_crash(exc: Exception) -> None:
    print(f"crash: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)


def interactive(chunk) -> tuple[list[str], list[int]]:
    """Feed a chunk to ``spinel.cli.repl`` line by line.

    Returns each goal's output and its time in ns, measured from the
    ``input()`` call that handed the goal over to the next one.
    """
    cli = _mod("cli")
    lines = chunk.repl_lines()
    buf = io.StringIO()
    entered: list[tuple[int, int]] = []  # (ns, output offset) at each input() call
    returned: list[int] = []

    def fake_input(prompt: str = "") -> str:
        entered.append((perf_counter_ns(), buf.tell()))
        if len(returned) == len(lines):
            raise EOFError
        returned.append(perf_counter_ns())
        return lines[len(returned) - 1]

    cli.input = fake_input
    try:
        with contextlib.redirect_stdout(buf):
            cli.repl()
    except Exception as exc:  # noqa: BLE001 - a crash is an outcome to count
        _report_crash(exc)
    finally:
        del cli.input
    entered += [(perf_counter_ns(), buf.tell())] * (len(lines) + 1 - len(entered))
    returned += [entered[-1][0]] * (len(lines) - len(returned))
    text = buf.getvalue()
    goals = range(len(chunk.decls), len(lines))
    pieces = [text[entered[i][1] : entered[i + 1][1]] for i in goals]
    times = [entered[i + 1][0] - returned[i] for i in goals]
    return pieces, times


def audit_goal(ctx, goal) -> AuditRaw:
    """The library-only self-audit of one goal."""
    infer, syntax, oracle = _mod("infer"), _mod("syntax"), _mod("oracle")
    raw = AuditRaw()
    if goal.expected_obj is None:
        mode, proto = infer.Synthesize(), syntax.Unknown()
    else:
        mode, proto = infer.Check(goal.expected_obj), syntax.Exact(goal.expected_obj)
    term = goal.term_obj
    try:
        raw.out = infer.infer(ctx, mode, term)
    except infer.Diagnostic as d:
        raw.out = d
    else:
        try:
            raw.internal = _mod("internal").check_internal(ctx, raw.out.elaboration)
        except _mod("internal").InternalTypeError as exc:
            raw.internal = exc
    if isinstance(term, syntax.App):
        if not isinstance(raw.out, infer.Diagnostic):
            spine = infer.spine_infer(ctx, proto, term)
            triple = (syntax.strip(spine.deco), spine.partial, spine.solution)
            raw.verdict = oracle.verify_spec(ctx, goal.expected_obj, term, triple)
        raw.hits = [
            t for t in oracle.search_spec(ctx, goal.expected_obj, term)
            if oracle.passes_side_conditions(ctx, goal.expected_obj, t)
        ]
    return raw


def audit(ctx, goals) -> tuple[list[AuditRaw], list[int]]:
    raws, times = [], []
    for goal in goals:
        start = perf_counter_ns()
        try:
            raw = audit_goal(ctx, goal)
        except Exception as exc:  # noqa: BLE001 - a crash is an outcome to count
            raw = AuditRaw(crash=exc)
        times.append(perf_counter_ns() - start)
        raws.append(raw)
    return raws, times


# ---------------------------------------------------------- subprocesses


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["SPINEL_COLOR"] = "never"
    return env


def cli_argv(path: Path, flags: list[str]) -> list[str]:
    return [sys.executable, "-m", "spinel.cli", "run", str(path), *flags]


def run_child(argv: list[str], root: Path, out: Path) -> tuple[int, str, float]:
    """Run one fresh interpreter: (exit code, stdout, peak RSS in MB).

    The child is reaped with ``wait4`` so its own peak RSS is read, not
    the maximum over every child this process has waited for.
    """
    with open(out, "w", encoding="utf-8") as handle:
        proc = subprocess.Popen(
            argv, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
            stdout=handle, stderr=subprocess.DEVNULL,
        )
    deadline = perf_counter() + SUBPROCESS_TIMEOUT
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if perf_counter() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise TimeoutError(f"{argv} ran longer than {SUBPROCESS_TIMEOUT} s")
        sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.read_text(encoding="utf-8"), usage.ru_maxrss / 1024


def cold_start(argv: list[str], root: Path) -> float:
    """Seconds from launching a fresh interpreter to its exit.

    The wait blocks in ``waitpid``: a wait with a timeout would poll, and
    its polling interval (up to 50 ms) would quantize the measurement.
    """
    start = perf_counter()
    with subprocess.Popen(
        argv, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ) as proc:
        code = proc.wait()
    seconds = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up run {argv} exited with {code}")
    return seconds
