"""The benchmark's own tests: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_smoke_emits_every_metric_and_restores_wrappers():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"


def test_same_seed_gives_the_same_solves_in_two_processes():
    args = ("--workload", "baseline-q101", "--seed", "5", "--seconds", "0.2", "--trace", "0")
    runs = [run_bench(*args) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    digests = [json.loads(proc.stdout.splitlines()[-2])["detail"]["digest"] for proc in runs]
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "controlled-q401", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
