"""Smoke test of the benchmark: every workload shape at a tiny size, in seconds.

Run from the repository root::

    python3 -m pytest -q perfbench/smoke.py

The file is not named ``test_*.py`` so the repository's own test run does not
pick it up; it starts the benchmark as a subprocess, as a user would.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (metric tables; importing it runs nothing)
from workloads import WORKLOADS  # noqa: E402

#: (targets per task, tasks) per workload: the same shapes, a second or so each.
TINY = {"ik-dense": (8, 2), "tour-large": (14, 2), "select-wide": (6, 3)}

#: Metrics that are pure functions of the seed: costs and work counts.
DETERMINISTIC = {
    0: ("step1_cost.mean", "step2_cost.mean", "schedule_s.mean"),
    1: (
        "kinematics.poses_tried", "kinematics.poses_kept", "kinematics.keep_ratio",
        "tsp.seed_cost", "tsp.improve_ratio", "metrics.temp_mb", "metrics.temp_peak_mb",
        "cgraph.edges", "cgraph.vertices", "cgraph.step_cost_mb",
    ),
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    n, tasks = TINY[workload]
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.2", "--trace", str(trace), "--n", str(n), "--tasks", str(tasks),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_workload_reports_every_metric_and_repeats(workload, trace):
    units = run.PER_LAYER if trace else run.END_TO_END
    docs = []
    for _ in range(2):
        out = bench(workload, trace)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        doc = json.loads(lines[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        # With --trace 1, correct also means every traced solve equalled the
        # untraced solve_sequence bit for bit and passed the min-plus DP check.
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= TINY[workload][1]
        assert "failed_frac = 0.0 ratio" in lines
        assert {name: m["unit"] for name, m in doc["metrics"].items()} == units
        for name, unit in units.items():
            assert any(
                line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
            ), name
        docs.append(doc)
    for name in DETERMINISTIC[trace]:
        assert docs[0]["metrics"][name] == docs[1]["metrics"][name], name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("ik-dense", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
