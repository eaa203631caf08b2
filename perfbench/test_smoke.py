"""Smoke test of the benchmark itself.

One small instance per workload, untraced and traced: every metric named
in BENCHMARK.json must print with its unit and the exact checker must pass.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_small_instance_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace, "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    wanted = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    for m in wanted:
        assert table.get(m["name"]) == m["unit"]
    assert re.search(r"digest_mismatch \d+", proc.stdout)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "market", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
