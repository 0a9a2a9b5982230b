"""The measurements behind ``run.py``: reference pass, timed window,
set-up, and the traced pass with its per-layer metrics.

Imported only once ``src/`` is on the path, because every module here
imports ``spinel``.
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import drive
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TIMED_GOALS = 100  # p90 then has at least ten samples beyond it
SETUP_REPEATS = 11
LADDER_REPEATS = 3
PROBE_RECURSION_LIMIT = 20_000

# per-layer metric -> tracer layer whose self time it reports
SELF_MS = {
    "parser.tokenize_ms": "parser.tokenize",
    "parser.parse_ms": "parser.parse",
    "parser.pretty_ms": "parser.pretty",
    "syntax.context_ms": "syntax.context",
    "syntax.other_ms": "syntax",
    "matcher.match_ms": "matcher",
    "infer.infer_ms": "infer",
    "internal.check_ms": "internal",
    "oracle.verify_ms": "oracle.verify",
    "oracle.search_ms": "oracle.search",
    "cli.render_ms": "cli.render",
    "cli.other_ms": "cli",
}
# per-layer metric -> wrapped functions whose calls it adds up
CALLS = {
    "syntax.context_ext.calls": (
        "syntax.Context.with_term", "syntax.Context.with_type_var", "syntax.Context.with_con"),
    "syntax.is_well_formed.calls": ("syntax.is_well_formed",),
    "syntax.substitute.calls": ("syntax.substitute",),
    "syntax.subst_type_args.calls": ("syntax.subst_type_args",),
    "matcher.match.calls": ("matcher._match",),
    "matcher.first_order.calls": ("matcher.match_first_order",),
    "matcher.rename_deco.calls": ("matcher.rename_deco",),
    "matcher.subst_decorated.calls": ("matcher.subst_decorated",),
    "infer.metas_minted": ("syntax.NameSupply.fresh_meta",),
}
# the operations whose counts the scaling fits regress against n
FIT_COUNTS = ("syntax.is_well_formed", "syntax.substitute", "matcher.rename_deco", "syntax.subst_type_args")



class Bench:
    def __init__(self, w, work: Path):
        self.w, self.work = w, work
        self.audit = w.name == "audit"
        self.ref: dict[int, object] = {}
        self.bad: dict[int, str] = {}
        self.attempted = self.failed = 0
        self.notes: dict[str, object] = {"workload": w.name, "goals": len(w.goals)}
        self._ctxs: dict[tuple, object] = {}

    def ctx(self, chunk):
        key = tuple(chunk.decls)
        if key not in self._ctxs:
            self._ctxs[key] = checks.context_of(chunk.decls)
        return self._ctxs[key]

    # ------------------------------------------------------ checking

    def _verdicts(self, out: str, n: int):
        if "--json" in self.w.flags:
            return checks.from_ndjson(out, n)
        return checks.from_text(out, n)

    def _fail(self, goal, why: str) -> None:
        self.failed += 1
        self.bad.setdefault(goal.gid, why)

    def _compare(self, goal, verdict, loose: bool = False) -> None:
        """A timed verdict must repeat the reference one."""
        self.attempted += 1
        ref = self.ref[goal.gid]
        if loose:  # interactive output names diagnostics differently
            ref, verdict = ref.core(), verdict.core()
        if ref != verdict:
            self._fail(goal, f"verdict {verdict} differs from the reference {ref}")

    def reference(self) -> float:
        """Run the whole workload once in fresh interpreters and judge every
        goal; returns the peak RSS of those runs in MB."""
        if self.audit:
            ctx = self.ctx(self.w.passes[0])
            raws, _ = drive.audit(ctx, self.w.goals)
            for goal, raw in zip(self.w.goals, raws):
                self.ref[goal.gid] = checks.audit_verdict(raw)
                self._judge(goal, checks.judge_audit(goal, raw, ctx))
            argv = [sys.executable, str(HERE / "audit_child.py"), str(self.w.seed)]
            return drive.run_child(argv, ROOT, self.work / "child.out")[2]
        peak = 0.0
        for chunk in self.w.passes:
            _, out, rss = drive.run_child(drive.cli_argv(chunk.path, self.w.flags), ROOT, self.work / "child.out")
            peak = max(peak, rss)
            for goal, verdict in zip(chunk.goals, self._verdicts(out, len(chunk.goals))):
                self.ref[goal.gid] = verdict
                self._judge(goal, checks.judge(goal, verdict, self.ctx(chunk)))
        return peak

    def _judge(self, goal, why) -> None:
        self.attempted += 1
        if why is not None:
            self._fail(goal, why)

    def probes(self) -> int:
        """Failed depth probes, each run alone in a fresh interpreter."""
        failures = 0
        for chunk in self.w.probes:
            _, out, _ = drive.run_child(
                drive.cli_argv(chunk.path, self.w.flags), ROOT, self.work / "probe.out")
            (goal,) = chunk.goals
            verdict = self._verdicts(out, 1)[0]
            if verdict.status != "ok" or self._judge_deep(goal, verdict, chunk) is not None:
                failures += 1
        self.notes["probe_failures"] = f"{failures}/{len(self.w.probes)}"
        return failures

    def _judge_deep(self, goal, verdict, chunk) -> str | None:
        """Judge a probe's answer with room for the recursion its depth needs."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, PROBE_RECURSION_LIMIT))
        try:
            return checks.judge(goal, verdict, self.ctx(chunk))
        except RecursionError:
            return "the reference check ran out of recursion depth"
        finally:
            sys.setrecursionlimit(limit)

    # ------------------------------------------------------ end to end

    def timed(self, seconds: float) -> dict:
        peak_rss = self.reference()
        probe_failures = self.probes()
        rate, lat_ms = self.window(seconds)
        setup = self.setup()
        shared = len(self.w.goals) + len(self.w.probes)
        ok_share = 1 - (len(self.bad) + probe_failures) / shared
        q = statistics.quantiles(lat_ms, n=10)
        self.notes.update(timed_goals=len(lat_ms), p90_samples_beyond=len(lat_ms) - math.ceil(0.9 * len(lat_ms)))
        return {
            "goals_per_s": {"value": rate, "unit": "1/s"},
            "goal_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "goal_p90_ms": {"value": q[8], "unit": "ms"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "goals_ok_share": {"value": ok_share, "unit": "share"},
        }

    def window(self, seconds: float) -> tuple[float, list[float]]:
        """Cycle through the workload's rounds for ``seconds``.

        Returns the median over rounds of goals per second on the batch
        path, and every goal's time in ms on the interactive path.  Each
        unit of work is scaled to the reference machine speed measured just
        around it (see ``calibrate.py``).
        """
        slowness = calibrate.slowness
        rounds = self.w.rounds
        rates: list[float] = []
        lat: list[float] = []
        raw_spent = raw_goals = 0.0
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(lat) < MIN_TIMED_GOALS:
            spent_scaled = 0.0
            goals = 0
            for chunk in rounds[len(rates) % len(rounds)]:
                before = slowness()
                if self.audit:
                    raws, times = drive.audit(self.ctx(chunk), chunk.goals)
                    spent = sum(times) / 1e9
                    after = slowness()
                    for goal, raw in zip(chunk.goals, raws):
                        self._compare(goal, checks.audit_verdict(raw))
                    batch_speed = repl_speed = (before + after) / 2
                else:
                    out, spent = drive.batch(chunk, self.w.flags)
                    middle = slowness()
                    pieces, times = drive.interactive(chunk)
                    after = slowness()
                    for goal, verdict in zip(chunk.goals, self._verdicts(out, len(chunk.goals))):
                        self._compare(goal, verdict)
                    for goal, piece in zip(chunk.goals, pieces):
                        self._compare(goal, checks.from_repl(piece), loose=True)
                    batch_speed, repl_speed = (before + middle) / 2, (middle + after) / 2
                lat += [t / 1e6 / repl_speed for t in times]
                spent_scaled += spent / batch_speed
                goals += len(chunk.goals)
                raw_spent += spent
                raw_goals += len(chunk.goals)
            rates.append(goals / spent_scaled)
        self.notes.update(rounds=len(rates), raw_goals_per_s=round(raw_goals / raw_spent, 1))
        return statistics.median(rates), lat

    def setup(self) -> float:
        """Median cold start: a fresh interpreter imports spinel and loads the
        workload's declarations, up to the first goal (scaled like every
        other time)."""
        if self.audit:
            argv = [sys.executable, "-c", "import spinel.oracle; spinel.oracle.standard_context()"]
        else:
            argv = drive.cli_argv(self.w.setup_path, [])
        slowness = calibrate.slowness
        runs = []
        for _ in range(SETUP_REPEATS):
            before = slowness()
            seconds = drive.cold_start(argv, ROOT)
            runs.append((seconds, seconds / ((before + slowness()) / 2)))
        self.notes["raw_setup_s"] = round(statistics.median(r[0] for r in runs), 4)
        return statistics.median(r[1] for r in runs)

    # ------------------------------------------------------ per layer

    def full_pass(self) -> tuple[float, list]:
        """One pass over every goal: its seconds, and the outputs to check
        once the clock (and any tracer) has stopped."""
        if self.audit:
            raws, times = drive.audit(self.ctx(self.w.passes[0]), self.w.goals)
            return sum(times) / 1e9, list(zip(self.w.goals, raws))
        spent, outputs = 0.0, []
        for chunk in self.w.passes:
            out, seconds = drive.batch(chunk, self.w.flags)
            spent += seconds
            outputs.append((chunk, out))
        return spent, outputs

    def check_pass(self, outputs: list) -> None:
        if self.audit:
            for goal, raw in outputs:
                self._compare(goal, checks.audit_verdict(raw))
            return
        for chunk, out in outputs:
            for goal, verdict in zip(chunk.goals, self._verdicts(out, len(chunk.goals))):
                self._compare(goal, verdict)

    def traced(self, spans_out: Path) -> dict:
        self.reference()
        plain, outputs = self.full_pass()
        self.check_pass(outputs)
        tracer = Tracer()
        tracer.install()
        try:
            traced, outputs = self.full_pass()
        finally:
            tracer.remove(spans_out)
        self.check_pass(outputs)
        self_ms = tracer.self_ms()
        metrics = {name: {"value": self_ms.get(layer, 0.0), "unit": "ms"} for name, layer in SELF_MS.items()}
        for name, quals in CALLS.items():
            metrics[name] = {"value": sum(tracer.calls[q] for q in quals), "unit": "count"}
        metrics["parser.tokens"] = {"value": tracer.tokens, "unit": "count"}
        metrics["infer.accepted"] = {"value": tracer.accepted, "unit": "count"}
        metrics["infer.diagnostics"] = {"value": tracer.diagnostics, "unit": "count"}
        metrics["oracle.search.derivations"] = {"value": tracer.derivations, "unit": "count"}
        metrics.update(self.ladder_fits())
        metrics["trace.overhead_ratio"] = {"value": traced / plain, "unit": "ratio"}
        self.notes.update(plain_s=round(plain, 3), traced_s=round(traced, 3), spans=len(tracer.spans) // 4)
        return metrics

    def ladder_fits(self) -> dict:
        """Exponents of time and of operation counts against n, per scaling
        family, from the scaling ladder whichever workload is traced."""
        chunks = workloads.scaling_chunks()
        workloads.write_chunks(self.work, "ladder", chunks)
        flags = ["--json", "--elab"]
        points: dict[str, list[tuple[int, float, int]]] = {}
        for chunk in chunks:
            seconds = statistics.median(self._scaled_batch(chunk, flags) for _ in range(LADDER_REPEATS))
            tracer = Tracer()
            tracer.install()
            try:
                drive.batch(chunk, flags)
            finally:
                tracer.remove()
            count = sum(tracer.calls[q] for q in FIT_COUNTS)
            points.setdefault(chunk.family, []).append((chunk.size, seconds, count))
        out = {}
        for family, pts in points.items():
            ns = [p[0] for p in pts]
            out[f"scaling.{family}.time_exponent"] = {"value": slope(ns, [p[1] for p in pts]), "unit": "exponent"}
            # +1 keeps a family whose ladder stops calling these at all on the log scale
            out[f"scaling.{family}.count_exponent"] = {"value": slope(ns, [p[2] + 1 for p in pts]), "unit": "exponent"}
        return out

    def _scaled_batch(self, chunk, flags) -> float:
        before = calibrate.slowness()
        seconds = drive.batch(chunk, flags)[1]
        return seconds / ((before + calibrate.slowness()) / 2)


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)
