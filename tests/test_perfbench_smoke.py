"""Smoke test of the benchmark harness: each workload runs once at toy
size with per-layer tracing, and must pass its own correctness gates.

This catches a library change that breaks the harness (for instance a
traced stand-in table that no longer fits estimate_all) before a full
benchmark run does.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["reference", "replications",
                                      "cli_files"])
def test_benchmark_runs_traced_at_tiny_size(workload):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "1",
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
