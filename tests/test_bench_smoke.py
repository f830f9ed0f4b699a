"""Tier-1 smoke runs of the benchmark's traced eval, train and synth workloads.

The traced eval run checks exact call counts per scored pair (4 mel
spectrograms, 2 edit distances, 1 DTW) and the DTW cell count, so a
change to the metric kernels that alters their call structure fails here.
The traced train run checks the exact number of `autodiff.grad` calls and
that traced and untraced sessions write byte-identical files, which guards
the autodiff tape. The traced synth run checks 32 `stft` and 33 `istft`
calls per `synthesize` (Griffin-Lim's rounds), that each WAV holds
(frames - 1) * HOP samples, and that traced and untraced requests write
the same bytes. The tracing-overhead check compares traced and untraced
operations run back to back, and with the handful of pairs a short run
gives, host-speed noise alone can push it over its limit. So eval runs for
2 s, synth for 4 s (68-76 pairs, overhead 0.011 to 0.033, on a 2-core VM)
and train, whose operations are longer, for 12 s (36-66 pairs). At 6 s
(24-36 pairs) train read -0.016 to 0.079 against the 0.10 limit and once
failed a full suite run; six 12 s runs read -0.016 to 0.015, and -0.118 to
0.007 beside a process spinning on one core. The full benchmark tests live
in bench/tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_smoke_run(workload, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads("\n".join(lines[:-1])), json.loads(lines[-1])
    assert result["correct"] is True, record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return record


def test_traced_eval_smoke_run_is_correct():
    _traced_smoke_run("eval", 2)


def test_traced_train_smoke_run_is_correct():
    _traced_smoke_run("train", 12)


def test_traced_synth_smoke_run_is_correct():
    record = _traced_smoke_run("synth", 4)
    assert record["paired_operations"] >= 30
