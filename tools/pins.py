"""Check spinel's pinned output bytes on the interpreter that runs this script.

    python tools/pins.py

It needs the standard library only, so it runs before any test
dependency is installed.  It runs ``spinel.cli.main`` in process on the
size-6 erasure file from ``tests/conftest.py``, each erasure checked,
synthesized and then checked against a wrong type: ``spinel run`` under
each set of flags of ``PINNED_OUTPUT``, and ``spinel repl`` fed the
file's lines as commands.  It runs text ``spinel run`` on the size-6
file of ``next`` wrong types too, and digests the parse of the size-7
erasure file.  The pins and the runs are those of ``tests/pinned.py``,
which the tests read too.  It prints one line per pin and exits 1 if
any differs.
"""

from __future__ import annotations

import functools
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pins():
    """Each pin as (name, pinned value, the call that computes it)."""
    from conftest import erasure_source
    from pinned import (
        PINNED_NEXT_OUTPUT,
        PINNED_OUTPUT,
        PINNED_PARSE,
        PINNED_REPL_OUTPUT,
        parse_digest,
        repl_output,
        run_output,
    )

    src = erasure_source(6, "check synth wrong")
    for flags, pinned in PINNED_OUTPUT.items():
        yield f"spinel run {' '.join(flags)}", pinned, functools.partial(run_output, src, flags)
    yield "spinel run (next wrong types)", PINNED_NEXT_OUTPUT, functools.partial(run_output, erasure_source(6, "next"), ())
    yield "spinel repl", PINNED_REPL_OUTPUT, functools.partial(repl_output, src)
    yield "parse", PINNED_PARSE, functools.partial(parse_digest, erasure_source(7))


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    os.environ.pop("SPINEL_COLOR", None)  # the pinned output has no color
    print(f"Python {platform.python_version()} ({sys.executable})")
    mismatches = 0
    for name, pinned, compute in pins():
        try:
            got = compute()
        except Exception as exc:  # reported as the pin's value, so that every pin is checked
            got = f"{type(exc).__name__}: {exc}"
        if got == pinned:
            print(f"ok        {name}: {got}")
        else:
            mismatches += 1
            print(f"MISMATCH  {name}: {got}, pinned {pinned}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
