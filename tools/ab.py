"""Compare the benchmark's end-to-end metrics between two source trees.

    python tools/ab.py PARENT CHANGE --workload rejects --seed 41 --seconds 5 --pairs 10

Each tree is a checkout of spinel, such as a ``git archive`` of the parent
commit and the working tree.  For each pair of runs it runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each tree, one run after the other, never two at once; the tree that goes
first alternates from pair to pair, and pair ``i`` uses seed ``S + i`` on
both sides.  It reads each run's last line, the JSON record ``run.py``
prints, and the metrics and bounds of the parent's ``BENCHMARK.json``.
It needs the standard library only, and writes nothing in either tree:
``run.py`` keeps its own scratch files under ``perfbench/out/`` and
removes them.

For each end-to-end metric it prints both medians, the change, the
change's wins over the pairs, the parent's interquartile range and
whether the change is within the metric's bound, then a verdict by the
rule of ``decide``.  Its last line is one JSON record of all of it.  It
exits 1 if a run fails or reads incorrect, or if a metric moves past its
bound, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # a gain or a loss must hold in at least this share of the pairs
MIN_PAIRS = 10  # and of at least this many pairs: fewer runs claim neither


def decide(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdict on one metric from its paired values, ``parent[i]`` and
    ``change[i]`` run side by side.

    A gain is claimed only if the change is better in at least ``WIN_SHARE``
    of the pairs, and of ``MIN_PAIRS``, and its median is better than the parent's by more than
    the parent's interquartile range; a loss by the same rule reversed.
    Anything else is noise, or unresolved where the parent's runs spread
    wider than ``bound`` and not every run of the change is better than
    every run of the parent.  ``within_bound`` says whether the change's
    median is worse than the parent's by at most ``bound``, a share of the
    parent's median.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med, p_med, p_med]
    iqr = quartiles[2] - quartiles[0]
    gain = sign * (c_med - p_med)  # positive when the change's median is the better one
    needed = WIN_SHARE * max(len(parent), MIN_PAIRS)
    apart = min(change) > max(parent) if sign > 0 else max(change) < min(parent)  # every change run better
    if wins >= needed and gain > iqr:
        verdict = "gain"
    elif losses >= needed and -gain > iqr:
        verdict = "loss"
    elif iqr > bound * abs(p_med) and not apart:
        verdict = "unresolved"
    else:
        verdict = "noise"
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change": (c_med - p_med) / p_med if p_med else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "within_bound": -gain <= bound * abs(p_med),
        "verdict": verdict,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The record ``perfbench/run.py`` prints for one untraced run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{tree}: run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def compare(parent: Path, change: Path, workload: str, seed: int, seconds: float, pairs: int) -> dict:
    """Run the pairs and decide each end-to-end metric; the JSON record."""
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(parent if side == "parent" else change, workload, seed + i, seconds))
            print(f"pair {i + 1}/{pairs} {side}: goals_per_s "
                  f"{runs[side][-1]['metrics']['goals_per_s']['value']:.1f}", file=sys.stderr, flush=True)
    metrics = {
        m["name"]: decide([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                          [r["metrics"][m["name"]]["value"] for r in runs["change"]], m["better"], m["bound"])
        for m in spec["end_to_end"]
    }
    return {
        "workload": workload,
        "seeds": [seed, seed + pairs - 1],
        "seconds": seconds,
        "pairs": pairs,
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "metrics": metrics,
    }


def table(record: dict) -> str:
    rows = [f"{'metric':<15}{'parent':>12}{'change':>12}{'delta':>9}{'wins':>7}{'parent IQR':>12}  bound  verdict"]
    for name, m in record["metrics"].items():
        rows.append(f"{name:<15}{m['parent_median']:>12.4g}{m['change_median']:>12.4g}{m['change']:>+9.1%}"
                    f"{m['wins']:>4}/{m['pairs']:<2}{m['parent_iqr']:>12.3g}  "
                    f"{'ok' if m['within_bound'] else 'PAST':<5}  {m['verdict']}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="A/B the benchmark's end-to-end metrics of two source trees")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=("corpus", "rejects", "scaling", "audit"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    record = compare(args.parent.resolve(), args.change.resolve(), args.workload, args.seed, args.seconds, args.pairs)
    print(table(record))
    print(json.dumps(record))
    return 0 if record["correct"] and all(m["within_bound"] for m in record["metrics"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
