"""Checks of the benchmark itself.

Layer counts (leaves, decoded letters, mapped points, intervals, pairs,
atoms, queries, draws) must repeat exactly across two runs of one input and
across ``--threads 1`` against ``--threads 2``: that pins the (seed, word)
determinism contract from outside the package.  Run from the repository root:

    python3 -m pytest perfbench/test_counts.py
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the layer each workload exists to exercise, and layers it must bypass
EXERCISED = {
    "overlap-image": ("euclid.image_in", ("euclid.sumset_calls", "euclid.atoms", "dimension.ball_queries")),
    "sumset-dense": ("euclid.sumset_pairs", ("euclid.atoms", "dimension.ball_queries")),
    "bconv": ("euclid.atoms", ("euclid.sumset_calls", "dimension.box_queries")),
    "cascade-lognormal-t2": ("dimension.ball_queries", ("euclid.sumset_calls", "euclid.atoms")),
}


@pytest.fixture(autouse=True)
def one_traced_run(monkeypatch):
    monkeypatch.setattr(run, "MIN_TRACED_PAIRS", 1)


def layer_counts(name: str, seed: int, **changes) -> dict:
    runner, _, _, counts = run.traced(dataclasses.replace(WORKLOADS[name], **changes), seed, 0.0)
    assert runner.failed == 0
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_runs(name):
    first = layer_counts(name, 7)
    exercised, bypassed = EXERCISED[name]
    assert first["cascade.leaves"] > 0 and first[exercised] > 0
    assert all(first[k] == 0 for k in bypassed)
    assert layer_counts(name, 7) == first


def test_counts_do_not_depend_on_threads():
    name = "cascade-lognormal-t2"
    assert layer_counts(name, 7, threads=1) == layer_counts(name, 7, threads=2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
