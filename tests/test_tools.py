"""Tests for ``tools/ab.py``, the A/B runner of the benchmark, on injected
run results: no benchmark process is started."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]  # IQR 2.5


def test_a_clear_gain_and_a_clear_loss_are_called(ab):
    gain = ab.decide(PARENT, [p * 1.10 for p in PARENT], "higher", 0.25)
    assert (gain["verdict"], gain["wins"], gain["within_bound"]) == ("gain", 10, True)
    assert gain["change"] == pytest.approx(0.10)
    loss = ab.decide(PARENT, [p * 0.90 for p in PARENT], "higher", 0.25)
    assert (loss["verdict"], loss["wins"], loss["within_bound"]) == ("loss", 0, True)
    past = ab.decide(PARENT, [p * 0.70 for p in PARENT], "higher", 0.25)
    assert (past["verdict"], past["within_bound"]) == ("loss", False)
    # for a latency, lower is better
    faster = ab.decide(PARENT, [p * 0.90 for p in PARENT], "lower", 0.25)
    assert (faster["verdict"], faster["within_bound"]) == ("gain", True)
    assert ab.decide(PARENT, [p * 1.30 for p in PARENT], "lower", 0.25)["within_bound"] is False
    # fewer than ten pairs claim nothing, however clear
    assert ab.decide(PARENT[:4], [p * 1.10 for p in PARENT[:4]], "higher", 0.25)["verdict"] == "noise"


def test_noise_is_neither_a_gain_nor_a_loss(ab):
    # the change is the parent's runs in another order: it wins some pairs
    # and loses others, and its median does not move
    noise = ab.decide(PARENT, PARENT[::-1], "higher", 0.25)
    assert (noise["verdict"], noise["change"], noise["within_bound"]) == ("noise", 0.0, True)
    # a shift that wins every pair but stays inside the parent's spread
    small = ab.decide(PARENT, [p + 1.0 for p in PARENT], "higher", 0.25)
    assert (small["wins"], small["parent_iqr"], small["verdict"]) == (10, 2.5, "noise")


def test_a_spread_wider_than_the_bound_is_unresolved(ab):
    # runs that spread by 40% around their median cannot show a change
    # within a 25% bound, unless every run of the change is the better
    wide = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    assert ab.decide(wide, wide[::-1], "lower", 0.25)["verdict"] == "unresolved"
    # every run of the change below every run of the parent, by less than the spread
    assert ab.decide(wide, [50.0] * 10, "lower", 0.25)["verdict"] == "noise"


def test_one_outlier_neither_makes_nor_breaks_a_verdict(ab):
    flat = [100.0] * 10
    spike = ab.decide(flat, [100.0] * 9 + [500.0], "higher", 0.25)  # one run far ahead
    assert (spike["wins"], spike["change_median"], spike["verdict"]) == (1, 100.0, "noise")
    slip = ab.decide(PARENT, [p * 1.10 for p in PARENT[:9]] + [20.0], "higher", 0.25)  # one pair lost badly
    assert (slip["wins"], slip["verdict"], slip["within_bound"]) == (9, "gain", True)


def test_runs_alternate_which_tree_goes_first_and_record_every_metric(ab, monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    order = []

    def fake_run(tree, workload, seed, seconds):
        side = "parent" if tree == tmp_path else "change"
        order.append((side, seed))
        rate = 1000.0 if side == "parent" else 1200.0
        metrics = {"goals_per_s": rate, "goal_p50_ms": 1e3 / rate, "goal_p90_ms": 2e3 / rate,
                   "setup_s": 0.1, "peak_rss_mb": 20.0, "goals_ok_share": 1.0}
        return {"correct": True, "metrics": {name: {"value": v} for name, v in metrics.items()}}

    monkeypatch.setattr(ab, "run_once", fake_run)
    record = ab.compare(tmp_path, tmp_path / "change", "rejects", 41, 5.0, 10)
    assert len(order) == 20 and order[:6] == [("parent", 41), ("change", 41), ("change", 42), ("parent", 42),
                                              ("parent", 43), ("change", 43)]
    assert record["correct"] and record["seeds"] == [41, 50]
    verdicts = {name: m["verdict"] for name, m in record["metrics"].items()}
    assert verdicts == {"goals_per_s": "gain", "goal_p50_ms": "gain", "goal_p90_ms": "gain",
                        "setup_s": "noise", "peak_rss_mb": "noise", "goals_ok_share": "noise"}
    assert "goals_per_s" in ab.table(record)
