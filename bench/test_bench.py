"""The benchmark at its test size: every workload, both modes.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# counts that depend only on the seed, never on timing
COUNTS = ("graph.edges", "rrset.edges_examined", "rrset.members_per_set",
          "immprr.theta", "immprr.stages_run", "immprr.lower_bound",
          "immvsn.theta", "immvsn.useful_set_share")


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run.run(TINY[name], seed=3, seconds=0.5, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_metric_and_repeats_counts(name):
    first = run.run(TINY[name], seed=4, seconds=0.5, trace=True)
    second = run.run(TINY[name], seed=4, seconds=0.5, trace=True)
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in first["metrics"].values())
    for count in COUNTS:
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"], count
    spans = (run.WORK / f"{name}-4-spans.jsonl").read_text().splitlines()
    assert {json.loads(s)["name"].split(".")[0] for s in spans} >= set(run.LAYERS)


def test_missing_edge_list_fails_the_run(monkeypatch):
    w = TINY["er_ic_segmented"]
    monkeypatch.setattr(run, "generate", lambda w, seed, path: (w.nodes, w.er_edges))
    for path in run.WORK.glob(f"{w.name}-99-*.txt"):
        path.unlink()
    result = run.run(w, seed=99, seconds=0.5, trace=False)
    assert not result["correct"] and result["failed"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "er_ic_segmented",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
