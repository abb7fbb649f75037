"""Smoke test of the end-to-end benchmark.

Runs ``run.py --smoke`` once untraced and once traced (tiny inputs, the
same identity checks) and checks what a full run relies on: every
workload and metric of ``BENCHMARK.json`` is reported with its unit,
no product is wrong, and no shared-memory segment or spill file
outlives the run.  Not part of the tier-1 suite; run it with::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def smoke(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    before = shm_segments()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace", str(request.param), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    leaked = shm_segments() - before
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {
        "declared": SPEC["per_layer" if request.param else "end_to_end"],
        "last_line": json.loads(proc.stdout.strip().splitlines()[-1]),
        "runs": json.loads(out.read_text())["runs"],
        "leaked": leaked,
    }


def test_every_workload_and_metric_reported_with_unit(smoke):
    assert [r["workload"] for r in smoke["runs"]] == WORKLOADS
    for run in smoke["runs"]:
        assert list(run["metrics"]) == [m["name"] for m in smoke["declared"]]
        for m in smoke["declared"]:
            reported = run["metrics"][m["name"]]
            assert reported["unit"] == m["unit"]
            assert isinstance(reported["value"], (int, float))
            assert math.isfinite(reported["value"])
    line = smoke["last_line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert len(line["metrics"]) == len(WORKLOADS) * len(smoke["declared"])


def test_error_rate_is_zero(smoke):
    for run in smoke["runs"]:
        assert run["correct"], run["details"].get("problems")
        assert run["attempted"] >= 1
        assert run["error_rate"] == 0
    assert smoke["last_line"]["failed"] == 0


def test_no_shared_memory_segment_leaks(smoke):
    assert smoke["leaked"] == set()


def test_no_stage_files_left_in_private_tmpdir(smoke):
    for run in smoke["runs"]:
        assert run["leftover_stage_files"] == []


def test_compare_accepts_a_result_against_itself(tmp_path):
    out = tmp_path / "one.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                    "--workload", "rmat13_auto", "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "compare",
                           str(out), str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.count("within bound") == len(SPEC["end_to_end"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".tmp", "results"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
