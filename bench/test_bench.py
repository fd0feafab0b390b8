"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py

Each run must print, as its last line, a correct result that carries every
metric ``BENCHMARK.json`` names for that mode, each with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emits_every_metric_with_its_unit(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout.splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float)) and value == value


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
