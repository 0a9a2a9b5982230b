"""The pinned bytes of the erasure corpus: what ``spinel run`` and ``spinel
repl`` print for the size-6 erasure files and how the size-7 one parses,
each as a digest, and the in-process runs that compute them.  The tests
and ``tools/pins.py``, which checks them with the standard library
alone, read the pins and the runs from here."""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from spinel.cli import main
from spinel.parser import parse_program, tokenize

# Exit code and SHA-256 of stdout of `spinel run` on the size-6 erasure
# file, each erasure checked, synthesized and then checked against a wrong
# type, under each set of flags.
PINNED_OUTPUT = {
    ("--json", "--elab", "--trace", "--spec-verify"):
        (1, "463a44e4968350e06b84f428cb4c20b7b3ba24c200a1ad83dc3e29c67b661286"),
    ("--elab", "--trace"):
        (1, "76df3ca367070c09b1d324ec234f729c80f5ec42825fa1bc3e1b7e4e5eb7aa70"),
    ("--json", "--elab"):
        (1, "bf64a1408c5d699e40114f75b2d1e4b8c694071a6631fe639633616dc280058d"),
}

# Exit code and SHA-256 of stdout of text `spinel run`, no flags, on the
# size-6 erasure file with each erasure checked against the next type of
# the sorted pool after its own that is not alpha-equal to it: 451 wrong
# types up to alpha-equality, where the file above draws 2.
PINNED_NEXT_OUTPUT = (1, "34f04182790d524fe2470ee06d422aa5e3a2396488a7e1a8ca79af2119cf54ff")

# Lines in, exit code, lines out and SHA-256 of stdout of `spinel repl` fed
# the same file, each line a command.
PINNED_REPL_OUTPUT = (5_283, 0, 11_895, "1bddd18a68a8770bb5c6aa187828265966f8fd5958028e854c9e56229f0f9baa")

# SHA-256 of the trees with their spans, then the tokens, of CI's size-7 erasure file.
PINNED_PARSE = "c4a0e96d483bd256bacf8cad78f70997cfe2b82945f779b6acf4831bbad9a20a"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_output(src: str, flags) -> tuple[int, str]:
    """The exit code and stdout digest of ``spinel run`` with ``flags`` on
    a file of ``src``, in process, its stdout a buffer: no terminal, so
    no color unless ``SPINEL_COLOR`` asks for it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "erasures.spn")
        path.write_text(src, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["run", str(path), *flags])
    return code, _sha256(out.getvalue())


def repl_output(src: str) -> tuple[int, int, int, str]:
    """Lines in, exit code, lines out and stdout digest of ``spinel repl``
    fed each line of ``src`` as a command, in process, as ``run_output``
    runs ``spinel run``."""
    lines = [":" + line for line in src.splitlines()]
    feed = iter(lines)

    def fake_input(_=""):
        line = next(feed, None)
        if line is None:
            raise EOFError
        return line

    saved, builtins.input = builtins.input, fake_input
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["repl"])
    finally:
        builtins.input = saved
    text = out.getvalue()
    return len(lines), code, len(text.splitlines()), _sha256(text)


def with_spans(x):
    """``x`` as nested tuples that hold every node's span, which ``repr``
    and ``==`` of the nodes leave out."""
    if hasattr(x, "__match_args__") and not isinstance(x, tuple):  # a node, not a Span
        return (type(x).__name__, *(with_spans(getattr(x, name)) for name in x.__match_args__))
    if type(x) is tuple:
        return tuple(with_spans(a) for a in x)
    return x


def parse_digest(src: str) -> str:
    """SHA-256 of the trees ``parse_program`` builds for ``src``, with their
    spans, then of the tokens ``tokenize`` reads."""
    digest = hashlib.sha256(repr(with_spans(parse_program(src))).encode())
    digest.update(repr(tokenize(src)).encode())
    return digest.hexdigest()
