"""spinel's benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports ``spinel`` from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` it reports the per-layer
metrics from a separate traced pass.  Either way every goal's output is
checked (see ``checks.py``) outside the timed region, and the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs the four workloads in turn.  Workloads, metrics
and the layer predictions are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "rejects", "scaling", "audit")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="spinel benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spinel" / "__init__.py").is_file():
        print(f"error: no spinel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["SPINEL_COLOR"] = "never"
    import workloads
    from bench import Bench

    w = workloads.build(args.workload, args.seed)
    work = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        w.write(work)
        bench = Bench(w, work)
        if args.trace:
            metrics = bench.traced(HERE / "out" / f"spans-{args.workload}-{args.seed}.bin")
        else:
            metrics = bench.timed(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for gid, why in sorted(bench.bad.items())[:5]:
        print(f"wrong: goal {gid}: {why}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in bench.notes.items()))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter; each prints its
    own notes and JSON lines, headed by the workload's name."""
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run([sys.executable, __file__, *argv], cwd=ROOT).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
