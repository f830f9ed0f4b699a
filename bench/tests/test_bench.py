"""Smoke tests of the benchmark: every workload at tiny sizes, traced and
untraced, plus the wrapper table and the text generators.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, cwd=ROOT, script=os.path.join("bench", "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    return {(w, t): parse(run_bench(w, t)) for w in ("train", "synth", "eval") for t in (0, 1)}


@pytest.mark.parametrize("workload", ["train", "synth", "eval"])
def test_result_line_follows_benchmark_json(smoke_runs, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record, result = smoke_runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], record["errors"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["train", "synth", "eval"])
def test_traced_and_untraced_runs_write_identical_outputs(smoke_runs, workload):
    plain, _ = smoke_runs[(workload, 0)]
    traced, _ = smoke_runs[(workload, 1)]
    assert plain["digest"] == traced["digest"]
    assert plain.get("checkpoint_digest") == traced.get("checkpoint_digest")


def test_environment_record(smoke_runs):
    record, _ = smoke_runs[("eval", 0)]
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "openblas", "nproc", "cpu_model", "blas_threads"):
        assert env[key], key
    assert env["seed"] == 3


def test_times_are_scaled_by_the_host_probe(smoke_runs):
    for workload in ("train", "synth", "eval"):
        record, _ = smoke_runs[(workload, 0)]
        scale = record["host_scale"]
        assert scale["operations"] >= 1 and 0 < scale["min"] <= scale["median"] <= scale["max"]
        assert len(record["setup_runs_s"]) == len(record["setup_raw_s"]) == 1
    result, scaled, raw = workloads.scaled_call(sum, [1, 2])
    assert result == 3 and scaled > 0 and raw > 0


def test_traced_run_patches_every_binding(smoke_runs):
    record, result = smoke_runs[("train", 1)]
    # names imported into other modules are patched there too
    for site in ("emoforge.tts.grad", "emoforge.epalign.grad", "emoforge.autodiff.backward",
                 "emoforge.tts.griffin_lim", "emoforge.metrics.mel_spectrogram",
                 "emoforge.cli.wav_write", "emoforge.datagen.wav_write"):
        assert site in record["bindings"]
    steps = result["metrics"]
    assert steps["autodiff.grad.calls"]["value"] > 0
    assert steps["metrics.dtw_align.calls"]["value"] == 0


def test_traced_run_reports_paired_overhead(smoke_runs):
    for workload in ("train", "synth", "eval"):
        record, result = smoke_runs[(workload, 1)]
        assert record["paired_operations"] >= 1
        overhead = result["metrics"]["trace.overhead_frac"]["value"]
        assert -1.0 < overhead <= run.OVERHEAD_LIMIT


def test_workload_metrics_use_the_workloads_own_names(smoke_runs):
    names = {"train": {"train_session_s", "train_tts_utts_per_s", "train_align_samples_per_s"},
             "synth": {"synth_latency_p50_ms", "synth_latency_p90_ms", "synth_audio_s_per_s"},
             "eval": {"eval_latency_p50_ms", "eval_latency_p90_ms", "eval_pairs_per_s"}}
    for workload, own in names.items():
        record, result = smoke_runs[(workload, 0)]
        assert set(record["workload_metrics"]) == own | {"setup_s", "peak_rss_mb"}
        assert record["workload_metrics"]["setup_s"][0] == result["metrics"]["setup_s"]["value"]
    record, result = smoke_runs[("train", 0)]
    assert record["workload_metrics"]["train_session_s"][0] == pytest.approx(
        result["metrics"]["latency_p50_ms"]["value"] / 1000.0)


def test_set_up_memory_stays_in_the_child(smoke_runs):
    record, result = smoke_runs[("synth", 0)]
    rss = record["peak_rss_mb"]
    assert rss["children"] > rss["after_setup"]  # set-up training ran in a child
    assert result["metrics"]["peak_rss_mb"]["value"] == rss["after_cycles"]


def test_run_in_child_raises_the_childs_error():
    def fail():
        raise ValueError("bad input")

    with pytest.raises(RuntimeError, match="ValueError: bad input"):
        workloads.run_in_child(fail)
    workloads.run_in_child(lambda: None)


def test_synth_trace_check_compares_frames_per_request():
    w = workloads.Synth(3, "unused", smoke=True)
    t = tracer.Tracer()
    for frames in (10, 20):
        t.spans.append(("tts.synthesize", -1, 0.0, 1.0, {"frames": frames, "nonfinite": 0}))
    hop = workloads.dsp.HOP
    # the sums agree (28 * hop), but each request is off by one frame
    problems = w.trace_checks(t, 0, 2, {"wav_samples": [10 * hop, 18 * hop]})
    assert any("request 0: " in p for p in problems)
    assert any("request 1: " in p for p in problems)
    problems = w.trace_checks(t, 0, 2, {"wav_samples": [9 * hop, 19 * hop]})
    assert not any("request" in p for p in problems)


def test_install_and_uninstall_restore_every_binding():
    from emoforge import autodiff, dsp, tts
    before = (tts.grad, autodiff.backward, dsp.stft)
    t = tracer.Tracer()
    t.install()
    try:
        assert tts.grad is not before[0] and tts.grad is autodiff.grad
        dsp.stft(np.ones(1024))
    finally:
        t.uninstall()
    assert (tts.grad, autodiff.backward, dsp.stft) == before
    assert [s[0] for s in t.spans] == ["dsp.stft"]


def test_self_time_excludes_children():
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    stats = t.segment_stats(0, len(t.spans))
    outer, inner = stats["outer"], stats["inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["busy_s"] - inner["busy_s"])


class DefiningModuleOnly(tracer.Tracer):
    """Patches each function where it is defined, as a naive tracer would."""

    def install(self):
        for mod_name, fn_name, suffix, count in tracer.WRAPPER_TABLE:
            module = sys.modules["emoforge." + mod_name]
            original = getattr(module, fn_name)
            setattr(module, fn_name, self._wrap("%s.%s" % (mod_name, fn_name),
                                                original, suffix, count))
            self._patched.append((module, fn_name, original))


@pytest.mark.parametrize("tracer_class, missed", [(tracer.Tracer, False),
                                                  (DefiningModuleOnly, True)])
def test_count_check_catches_a_missed_call_site(tmp_path, tracer_class, missed):
    w = workloads.Eval(3, str(tmp_path / "work"), smoke=True)
    w.setup()
    t = tracer_class()
    t.install()
    w.tracer = t
    try:
        w.cycle()
    finally:
        w.tracer = None
        t.uninstall()
    errors = run.count_errors(w.expected_counts(), [t.segment_stats(0, len(t.spans))])
    # metrics.py imports mel_spectrogram by name; the naive tracer misses it
    assert any("dsp.mel_spectrogram" in e for e in errors) == missed
    assert bool(errors) == missed


@pytest.mark.parametrize("frames", [20, 37, 60, 64, 65, 200, 801])
def test_new_words_hit_the_frame_target(frames):
    rng = np.random.default_rng(frames)
    text = workloads.new_words(rng, frames)
    assert abs(workloads.teacher_frames(text) - frames) <= 1
    assert text.endswith(".") and set(text) <= set("abcdefghijklmnopqrstuvwxyz .")


def test_texts_depend_on_the_seed_but_not_their_lengths():
    a = workloads.Eval(1, "unused", smoke=False).pairs
    b = workloads.Eval(2, "unused", smoke=False).pairs
    assert [p["ref_text"] for p in a] != [p["ref_text"] for p in b]
    la = [workloads.teacher_frames(p["ref_text"]) for p in a]
    lb = [workloads.teacher_frames(p["ref_text"]) for p in b]
    assert max(abs(x - y) for x, y in zip(la, lb)) <= 2
    assert [p["ref_text"] for p in workloads.Eval(1, "unused", smoke=False).pairs] == \
        [p["ref_text"] for p in a]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("eval", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
