"""Tier-1 smoke runs of the benchmark's traced eval and train workloads.

The traced eval run checks exact call counts per scored pair (4 mel
spectrograms, 2 edit distances, 1 DTW) and the DTW cell count, so a
change to the metric kernels that alters their call structure fails here.
The traced train run checks the exact number of `autodiff.grad` calls and
that traced and untraced sessions write byte-identical files, which guards
the autodiff tape. Both run for 2 s: the tracing-overhead check compares
traced and untraced operations run back to back, and with the handful of
pairs a 0 s run gives, host-speed noise alone can push it over its limit.
The full benchmark tests live in bench/tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads("\n".join(lines[:-1])), json.loads(lines[-1])
    assert result["correct"] is True, record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_traced_eval_smoke_run_is_correct():
    _traced_smoke_run("eval")


def test_traced_train_smoke_run_is_correct():
    _traced_smoke_run("train")
