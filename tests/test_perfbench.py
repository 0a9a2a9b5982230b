"""Smoke run of the benchmark's scaling ladder, so the harness cannot rot."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from spinel.cli import main

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize(
    "chunk", workloads.scaling_chunks(), ids=lambda c: f"{c.family}-{c.size}"
)
def test_scaling_rung_reproduces_its_known_answers(tmp_path, capsys, chunk):
    path = tmp_path / "rung.spn"
    path.write_text(chunk.source(), encoding="utf-8")
    assert main(["run", str(path), "--json", "--elab"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["goal"] for r in records] == list(range(1, len(chunk.goals) + 1))
    for goal, record in zip(chunk.goals, records):
        assert record["status"] == "ok"
        assert record["type"] == goal.known_type
        assert record["elaboration"] == goal.known_elab
