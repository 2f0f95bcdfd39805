"""Tiny-scale smoke test of every benchmark workload, untraced and traced.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end(name):
    metrics, summary, attempted, failures = run.end_to_end(
        workloads, name, seed=3, seconds=0.3, setups=1)
    assert failures == []
    assert attempted > 0
    assert {m: unit for m, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    if name == "triage":
        assert summary["detected_frac"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_traced(name):
    metrics, summary, attempted, failures = run.per_layer(
        workloads, tracer, name, seed=3, seconds=2, scale=0.05)
    assert failures == []
    assert attempted > 0
    assert {m: unit for m, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert summary["never_called"] == []
    assert (HERE / "out" / f"spans-{name}-seed3.csv.gz").is_file()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fastpath", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
