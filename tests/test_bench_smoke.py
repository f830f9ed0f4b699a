"""Tier-1 smoke run of the benchmark's traced eval workload.

The traced run checks exact call counts per scored pair (4 mel
spectrograms, 2 edit distances, 1 DTW) and the DTW cell count, so a
change to the metric kernels that alters their call structure fails here.
The full benchmark tests live in bench/tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_eval_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "eval", "--seed", "3",
         "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads("\n".join(lines[:-1])), json.loads(lines[-1])
    assert result["correct"] is True, record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
