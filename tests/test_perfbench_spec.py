"""BENCHMARK.json agrees with the benchmark's own metric definitions."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_spec_matches_metrics():
    # -B: checking the spec leaves no bytecode behind in perfbench/
    result = subprocess.run([sys.executable, "-B", "perfbench/check_spec.py"],
                            cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
