"""The benchmark's three closed-loop workloads: train, synth and eval.

Each workload is built from its workload seed alone; the program under test
receives only the inputs generated here. A workload is set up once (or
several times, to time set-up), then runs *cycles*: a fixed list of
operations that every cycle repeats with identical inputs, so every cycle
must also produce byte-identical outputs. A cycle returns its latency
samples, the operations it attempted and failed, an output digest, and the
work done (`done` units in `busy_s` seconds of operation time).

  train  one cycle is one README session replayed through `cli.main`:
         gen-data, train-align, eval-align, train-tts for each variant.
         Each stage is one operation; the latency sample is the session.
  synth  one cycle is SLOTS `emoforge synth` requests through `cli.main`.
  eval   one cycle is SLOTS reference/synthesis pairs scored the way
         `emoforge eval` scores them, then aggregated into one report.

Text lengths come from a fixed per-slot schedule of frame counts; the seed
picks the words, emotions and speakers. Lengths are therefore the same for
every seed, so p50 and p90 always fall on the same part of the length
distribution instead of jumping between seeds.
"""

import hashlib
import io
import json
import math
import multiprocessing
import os
import sys
import re
import shutil
import wave
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from emoforge import cli, datagen, dsp, metrics

VARIANTS = ("vits", "fastspeech", "tacotron")
EMOTIONS = datagen.EMOTIONS
N_SPEAKERS = 4

# The corpus's own sentence pool (datagen renders these), so synth and eval
# texts mix in-domain sentences with new words.
POOL = (
    "the quick brown fox jumps over the lazy dog.",
    "pack my box with five dozen jugs.",
    "how vexingly quick daft zebras jump.",
    "bright vixens jump for joy.",
    "sphinx of black quartz judge my vow.",
    "waltz bad nymph for quick jigs.",
    "glib jocks quiz nymph to vex dwarf.",
    "the five boxing wizards jump quickly.",
)
CONSONANTS = "bcdfghjklmnpqrstvwxyz"
VOWELS = "aeiou"
SPACE_FRAMES, PERIOD_FRAMES = datagen.char_frames(" "), datagen.char_frames(".")
MIN_FILL = 20  # shortest new-word tail, in frames

GL_STFT_PER_SYNTH, GL_ISTFT_PER_SYNTH = 32, 33  # default Griffin-Lim: 32 rounds
# Request latency follows the predicted lengths, so synth set-up trains
# until they match the teacher's on a corpus sentence, within this share: at
# lr 0.02, 60 steps of batch 8 bring every variant within a few percent (at
# the CLI default lr 0.05 some emotion/speaker conditions are 20% off).
DURATION_TOLERANCE = 0.1
# Set-up trains the synth checkpoints from one fixed seed (the README's), so
# every workload seed times the same models; the workload seed generates the
# requests. Texts longer than the corpus sentences (44 characters) make the
# models extrapolate durations, and how far that drifts depends on the
# training seed, which would move the latency of long requests between seeds.
CHECKPOINT_SEED = 7
SLOTS = 100  # operations per synth or eval cycle: p90 has ten beyond it

# Host-speed scaling. Single-thread speed on shared VMs moves by 20% to 60%
# within a minute, in phases of seconds to tens of seconds, which no run
# length within the benchmark's time budget averages out. So every timed
# operation runs between two calls of a fixed probe kernel (FFTs, a small
# matmul, sin: 10 to 17 ms on a 2-core Xeon VM), and its time is reported
# scaled to a host on which the probe takes PROBE_REF_S:
# seconds * PROBE_REF_S / (mean of the two probe times). The probe is
# benchmark code, so a change to emoforge moves scaled times as it moves
# raw ones.
PROBE_REF_S = 0.01
_PROBE_X = np.random.default_rng(0).standard_normal((200, 512))
_PROBE_A = np.random.default_rng(1).standard_normal((64, 64))


def teacher_frames(text):
    return sum(datagen.text_durations(text))


def file_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def _word(rng, frames):
    """A new word whose letters render to `frames` frames (within 1)."""
    c_frames, v_frames = datagen.char_frames("b"), datagen.char_frames("a")
    best = min(((abs(c * c_frames + v * v_frames - frames), c + v, c, v)
                for c in range(12) for v in range(12) if c + v >= 1))
    _, _, c, v = best
    letters = ([CONSONANTS[i] for i in rng.integers(len(CONSONANTS), size=c)]
               + [VOWELS[i] for i in rng.integers(len(VOWELS), size=v)])
    return "".join(rng.permutation(letters))


def new_words(rng, frames):
    """Seeded new words ending in a period, `frames` teacher frames long (within 1)."""
    if frames < MIN_FILL:
        raise ValueError("a new-word text needs at least %d frames" % MIN_FILL)
    words = []
    left = frames - PERIOD_FRAMES
    while left > 64:
        n = int(rng.integers(3, 7))
        w = "".join(VOWELS[rng.integers(5)] if rng.random() < 0.4
                    else CONSONANTS[rng.integers(len(CONSONANTS))] for _ in range(n))
        words.append(w)
        left -= teacher_frames(w) + SPACE_FRAMES
    words.append(_word(rng, left))
    return " ".join(words) + "."


def make_text(rng, frames, max_sentences):
    """Up to max_sentences pool sentences, then new words up to `frames`."""
    parts, used = [], 0
    for i in rng.permutation(len(POOL))[:max_sentences]:
        cost = teacher_frames(POOL[i]) + SPACE_FRAMES
        if used + cost + MIN_FILL > frames:
            break
        parts.append(POOL[i])
        used += cost
    parts.append(new_words(rng, frames - used))
    return " ".join(parts)


def corrupt(rng, text, op):
    """Drop, insert or substitute one word (never the sentence-final one)."""
    words = text.split(" ")
    at = int(rng.integers(len(words) - 1))
    fresh = new_words(rng, 30)[:-1]
    if op == "drop":
        del words[at]
    elif op == "insert":
        words.insert(at, fresh)
    else:
        while fresh == words[at].rstrip("."):
            fresh = new_words(rng, 30)[:-1]
        words[at] = fresh
    return " ".join(words)


def session_stages(out, seed, per_class, epochs, align_batch, steps, batch, lr=None):
    """The README session as CLI argument lists: gen-data, train-align,
    eval-align, then train-tts for each variant."""
    corpus = os.path.join(out, "corpus")
    align = os.path.join(out, "align.json")
    seed = str(seed)
    stages = [
        ["gen-data", "--out", corpus, "--classes", str(len(EMOTIONS)),
         "--speakers", str(N_SPEAKERS), "--per-class", str(per_class), "--seed", seed],
        ["train-align", "--data", corpus, "--out", align, "--epochs", str(epochs),
         "--batch", str(align_batch), "--seed", seed],
        ["eval-align", "--ckpt", align, "--data", corpus,
         "--out", os.path.join(out, "eval_align.json")],
    ]
    for v in VARIANTS:
        stages.append(["train-tts", "--data", corpus, "--variant", v, "--align-ckpt", align,
                       "--out", os.path.join(out, "tts_%s.json" % v), "--steps", str(steps),
                       "--batch", str(batch)]
                      + (["--lr", str(lr)] if lr is not None else []) + ["--seed", seed])
    return stages


def run_in_child(fn):
    """Runs fn() in a forked child process and waits for it to end, so the
    memory that fn touches does not count toward this process's peak RSS.
    A failure in the child is raised here as a RuntimeError."""
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)

    def target():
        try:
            fn()
            writer.send(None)
        except BaseException as e:
            writer.send("%s: %s" % (type(e).__name__, e))

    sys.stdout.flush()
    sys.stderr.flush()
    child = ctx.Process(target=target)
    child.start()
    writer.close()
    try:
        problem = reader.recv()
    except EOFError:
        problem = "no report from the child process"
    child.join()
    if problem is None and child.exitcode != 0:
        problem = "child process exited %d" % child.exitcode
    if problem is not None:
        raise RuntimeError(problem)


def host_probe():
    """Seconds taken by the fixed probe kernel."""
    t0 = perf_counter()
    for _ in range(5):
        np.fft.irfft(np.fft.rfft(_PROBE_X, axis=1), axis=1)
        _PROBE_A @ _PROBE_A
        np.sin(_PROBE_X)
    return perf_counter() - t0


def scaled_call(fn, *args):
    """Runs fn(*args) between two probes; returns (result, seconds scaled
    to the reference host speed, raw seconds)."""
    p0 = host_probe()
    t0 = perf_counter()
    result = fn(*args)
    dt = perf_counter() - t0
    return result, dt * 2 * PROBE_REF_S / (p0 + host_probe()), dt


def spread_order(n):
    """A fixed order of n slots that alternates short and long ones (a
    golden-ratio stride), so every part of a run's latency distribution is
    sampled across the whole run and not in one stretch of it."""
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [(k * stride) % n for k in range(n)]


def schedule(lo, hi, n, power):
    """n frame counts from lo to hi; power > 1 puts more of them near lo."""
    return [int(round(lo * (hi / lo) ** ((i / max(1, n - 1)) ** power))) for i in range(n)]


class Workload:
    name = None
    min_cycles = 1
    # names of the end-to-end metrics in the run record, as
    # {BENCHMARK.json name: (workload's own name, unit, scale)}
    metric_names = {}

    def __init__(self, seed, workdir, smoke):
        self.seed = seed
        self.workdir = workdir
        if smoke:
            self.min_cycles = 1
        self.tracer = None  # the tracer, while a traced operation runs
        self.pair_tracer = None  # set by the runner for paired cycles
        self.overhead_ratios = []  # traced / untraced time of each paired operation
        self.host_scales = []  # scaled / raw time of each operation outside paired cycles

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def reset(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def timed(self, fn, *args):
        """One operation; returns (result, seconds scaled by scaled_call).
        In a paired cycle the operation runs untraced and then traced, back
        to back, and the ratio of the two raw times is kept; the result and
        the raw seconds returned are the traced call's."""
        if self.pair_tracer is None:
            result, scaled, dt = scaled_call(fn, *args)
            self.host_scales.append(scaled / dt)
            return result, scaled
        t0 = perf_counter()
        result = fn(*args)
        dt = perf_counter() - t0
        self.pair_tracer.install()
        self.tracer = self.pair_tracer
        try:
            t0 = perf_counter()
            result = fn(*args)
            traced_dt = perf_counter() - t0
        finally:
            self.tracer = None
            self.pair_tracer.uninstall()
        self.overhead_ratios.append(traced_dt / dt)
        return result, traced_dt

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), self.span("cli." + argv[0]):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def run_cli(self, argv):
        """One CLI call; returns (exit code, seconds, stdout, stderr)."""
        (rc, out, err), dt = self.timed(self._cli, argv)
        return rc, dt, out, err

    def setup(self):
        """Builds the inputs in a child process, so that their memory is not
        in this process's peak RSS, then warms up here."""
        self.reset()
        run_in_child(self.prepare)
        self.warm_up()

    def prepare(self):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def cycle(self):
        raise NotImplementedError

    def expected_counts(self):
        """Exact per-cycle values of count metrics, e.g. {"autodiff.grad.calls": 444}."""
        raise NotImplementedError

    def trace_checks(self, tracer, start, end, result):
        """Problems found in the spans[start:end] of the traced cycle that
        returned `result`."""
        return []

    def extra_metrics(self, cycles):
        """Workload metrics of the run record beyond `metric_names`."""
        return {}


def _cycle_result():
    return {"latencies": [], "attempted": 0, "failed": 0, "errors": [], "digest": None,
            "work": {}}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train(Workload):
    """Tape, conditioning graphs and the alignment trainer do the work;
    Griffin-Lim and the metrics suite do none."""

    name = "train"
    min_cycles = 8  # sessions per measured run
    metric_names = {"latency_p50_ms": ("train_session_s", "s", 0.001),
                    "work_per_s": ("train_tts_utts_per_s", "1/s", 1.0)}

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        if smoke:
            self.per_class, self.epochs, self.align_batch, self.steps, self.batch = 4, 20, 5, 3, 2
        else:
            self.per_class, self.epochs, self.align_batch, self.steps, self.batch = 8, 30, 16, 16, 8
        self.n = len(EMOTIONS) * self.per_class
        self.cli_seed = int(self.rng(0).integers(1, 2 ** 31 - 1))

    def setup(self):
        # warm-up: one miniature session, so lazy initialisation is not timed
        self.reset()
        for argv in session_stages(self.path("warmup"), self.cli_seed, 1, 1, len(EMOTIONS), 1, 1):
            rc, _, _, err = self.run_cli(argv)
            if rc != 0:
                raise RuntimeError("warm-up %s failed: %s" % (argv[0], err.strip()))

    def cycle(self):
        res = _cycle_result()
        session_s = 0.0
        outputs = {}
        for argv in session_stages(self.path("session"), self.cli_seed, self.per_class,
                                   self.epochs, self.align_batch, self.steps, self.batch):
            res["attempted"] += 1
            rc, dt, out, err = self.run_cli(argv)
            session_s += dt
            stage = argv[0] if argv[0] != "train-tts" else "train-tts." + argv[4]
            outputs[stage] = (out, dt)
            if rc != 0:
                res["failed"] += 1
                res["errors"].append("%s exited %d: %s" % (stage, rc, err.strip()))
                return res
        res["latencies"].append(session_s)
        for stage, problem in self._check(outputs):
            res["failed"] += 1
            res["errors"].append("%s: %s" % (stage, problem))
        s = self.path("session")
        wavs = sorted(os.path.join(s, "corpus", "wav", f)
                      for f in os.listdir(os.path.join(s, "corpus", "wav")))
        res["digest"] = file_digest(os.path.join(s, "corpus", "manifest.jsonl"), *wavs,
                                    os.path.join(s, "align.json"),
                                    os.path.join(s, "eval_align.json"),
                                    *[os.path.join(s, "tts_%s.json" % v) for v in VARIANTS])
        tts_s = sum(outputs["train-tts." + v][1] for v in VARIANTS)
        res["work"] = {
            "done": len(VARIANTS) * self.steps * self.batch, "busy_s": tts_s,
            "align_samples": self.epochs * (self.n // self.align_batch) * self.align_batch,
            "align_s": outputs["train-align"][1],
        }
        return res

    def _check(self, outputs):
        with open(self.path("session", "eval_align.json")) as f:
            accuracy = json.load(f)["accuracy"]
        if not accuracy >= 0.95:
            yield "eval-align", "accuracy %.4f < 0.95" % accuracy
        for v in VARIANTS:
            m = re.search(r"loss (\S+) -> (\S+),", outputs["train-tts." + v][0])
            if m is None or not float(m.group(2)) < float(m.group(1)):
                yield "train-tts." + v, "loss did not fall: %r" % outputs["train-tts." + v][0]

    def expected_counts(self):
        grads = len(VARIANTS) * self.steps * self.batch + self.epochs * (self.n // self.align_batch)
        counts = {"autodiff.grad": grads, "datagen.gen_corpus": 1,
                  "epalign.train_epalign": 1, "epalign.eval_alignment": 1,
                  "tts.synthesize": 0, "dsp.griffin_lim": 0, "metrics.dtw_align": 0}
        counts.update({"tts.train_tts." + v: 1 for v in VARIANTS})
        return {name + ".calls": n for name, n in counts.items()}

    def extra_metrics(self, cycles):
        work = [c["work"] for c in cycles]
        return {"train_align_samples_per_s": (sum(w["align_samples"] for w in work)
                                              / sum(w["align_s"] for w in work), "1/s")}


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

class Synth(Workload):
    """Griffin-Lim (STFT/iSTFT) does most of each request; the tape runs
    forward only, on constants."""

    name = "synth"
    metric_names = {"latency_p50_ms": ("synth_latency_p50_ms", "ms", 1.0),
                    "latency_p90_ms": ("synth_latency_p90_ms", "ms", 1.0),
                    "work_per_s": ("synth_audio_s_per_s", "s/s", 1.0)}

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        targets = [30, 45, 60, 75] if smoke else schedule(60, 800, SLOTS, 1.0)
        self.per_class, self.epochs, self.align_batch = 8, 30, 16
        self.steps, self.batch, self.lr = 60, 8, 0.02
        rng = self.rng(1)
        self.slots = []
        for i, frames in enumerate(targets):
            text = make_text(rng, frames, 3) if i % 2 == 0 else new_words(rng, frames)
            self.slots.append({
                "variant": VARIANTS[i % len(VARIANTS)],
                "text": text,
                "ref_features": i % 4 == 3,
                "emotion": EMOTIONS[rng.integers(len(EMOTIONS))],
                "speaker": int(rng.integers(N_SPEAKERS)),
                "utterance": int(rng.integers(len(EMOTIONS) * self.per_class)),
            })

    def ckpt(self, variant):
        return self.path("tts_%s.json" % variant)

    def request(self, i, slot, out):
        argv = ["synth", "--ckpt", self.ckpt(slot["variant"]),
                "--align-ckpt", self.path("align.json"), "--text", slot["text"]]
        if slot["ref_features"]:
            argv += ["--ref-features", self.path("features_%02d.json" % i)]
        else:
            argv += ["--emotion", slot["emotion"]]
        return argv + ["--speaker", str(slot["speaker"]), "--out", out]

    def prepare(self):
        stages = session_stages(self.workdir, CHECKPOINT_SEED, self.per_class, self.epochs,
                                self.align_batch, self.steps, self.batch, self.lr)
        for argv in stages:
            if argv[0] == "eval-align":
                continue
            rc, _, _, err = self.run_cli(argv)
            if rc != 0:
                raise RuntimeError("set-up %s failed: %s" % (argv[0], err.strip()))
        utts = datagen.load_manifest(self.path("corpus", "manifest.jsonl"))
        for i, slot in enumerate(self.slots):
            if slot["ref_features"]:
                u = utts[slot["utterance"]]
                with open(self.path("features_%02d.json" % i), "w") as f:
                    json.dump({"vis": u.feat_vis.tolist(), "audio": u.feat_audio.tolist(),
                               "tex": u.feat_text.tolist()}, f)

    def warm_up(self):
        # one request per variant; also checks that the checkpoints were
        # trained long enough for durations to match the teacher's
        os.makedirs(self.path("out"))
        for v in VARIANTS:
            slot = {"variant": v, "text": POOL[0], "ref_features": False,
                    "emotion": EMOTIONS[0], "speaker": 0}
            out = self.path("out", "warmup.wav")
            rc, _, _, err = self.run_cli(self.request(0, slot, out))
            if rc != 0:
                problem = err.strip()
            else:
                samples, problem = self._check_wav(out)
                frames, want = samples // dsp.HOP + 1, teacher_frames(POOL[0])
                if not problem and abs(frames / want - 1) > DURATION_TOLERANCE:
                    problem = "%d frames, teacher has %d" % (frames, want)
            if problem:
                raise RuntimeError("set-up warm-up for %s: %s" % (v, problem))
        self.ckpt_digest = file_digest(self.path("align.json"),
                                       *[self.ckpt(v) for v in VARIANTS])

    @staticmethod
    def _check_wav(path):
        """(samples, problem or None) for one synthesized WAV.

        Only the warm-up compares frames with the teacher: texts longer than
        the corpus sentences make the models extrapolate, and vits then
        predicts about 12% fewer frames than the teacher. The traced run
        checks each request's samples against the frames that its
        `synthesize` call produced."""
        with wave.open(path, "rb") as w:
            fmt = (w.getnchannels(), w.getsampwidth(), w.getframerate())
            pcm = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
        if fmt != (1, 2, dsp.SAMPLE_RATE):
            return 0, "format %s" % (fmt,)
        if pcm.size == 0 or pcm.size % dsp.HOP:
            return pcm.size, "%d samples is not (frames - 1) * %d" % (pcm.size, dsp.HOP)
        if not np.any(pcm):
            return pcm.size, "silent output"
        return pcm.size, None

    def cycle(self):
        res = _cycle_result()
        res["wav_samples"] = []  # per written WAV, in request order
        outs = []
        for i in spread_order(len(self.slots)):
            slot = self.slots[i]
            res["attempted"] += 1
            out = self.path("out", "slot_%02d.wav" % i)
            rc, dt, _, err = self.run_cli(self.request(i, slot, out))
            if rc != 0:
                res["failed"] += 1
                res["errors"].append("slot %d exited %d: %s" % (i, rc, err.strip()))
                continue
            res["latencies"].append(dt)
            samples, problem = self._check_wav(out)
            res["wav_samples"].append(samples)
            if problem:
                res["failed"] += 1
                res["errors"].append("slot %d: %s" % (i, problem))
            outs.append(out)
        res["digest"] = file_digest(*outs)
        res["work"] = {"done": sum(res["wav_samples"]) / dsp.SAMPLE_RATE,
                       "busy_s": sum(res["latencies"])}
        return res

    def expected_counts(self):
        n, refs = len(self.slots), sum(s["ref_features"] for s in self.slots)
        counts = {"tts.synthesize": n, "tts.load_tts": n, "epalign.load_epalign": n,
                  "epalign.align_infer": refs, "dsp.wav_write": n,
                  "dsp.stft": GL_STFT_PER_SYNTH * n, "dsp.istft": GL_ISTFT_PER_SYNTH * n,
                  "autodiff.grad": 0, "metrics.dtw_align": 0}
        counts = {name + ".calls": c for name, c in counts.items()}
        counts["tts.synthesize.nonfinite"] = 0
        return counts

    def trace_checks(self, tracer, start, end, result):
        problems = []
        frames = [counters["frames"] for name, _, _, _, counters in tracer.spans[start:end]
                  if name == "tts.synthesize"]
        if len(frames) != len(result["wav_samples"]):
            problems.append("%d synthesize calls for %d WAVs"
                            % (len(frames), len(result["wav_samples"])))
        for k, (f, samples) in enumerate(zip(frames, result["wav_samples"])):
            if samples != (f - 1) * dsp.HOP:
                problems.append("request %d: %d samples from %d frames" % (k, samples, f))
        per_call = tracer.descendants_by_name(start, end, "tts.synthesize",
                                              ("dsp.stft", "dsp.istft"))
        for k, c in enumerate(per_call):
            if (c["dsp.stft"], c["dsp.istft"]) != (GL_STFT_PER_SYNTH, GL_ISTFT_PER_SYNTH):
                problems.append("synthesize call %d made %d stft / %d istft calls"
                                % (k, c["dsp.stft"], c["dsp.istft"]))
        return problems


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class Eval(Workload):
    """Pure-Python DTW and Levenshtein do almost all the work; nothing is
    trained or synthesized."""

    name = "eval"
    metric_names = {"latency_p50_ms": ("eval_latency_p50_ms", "ms", 1.0),
                    "latency_p90_ms": ("eval_latency_p90_ms", "ms", 1.0),
                    "work_per_s": ("eval_pairs_per_s", "1/s", 1.0)}

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        targets = [80, 100, 120] if smoke else schedule(270, 800, SLOTS, 2.5)
        rng = self.rng(2)
        self.pairs = []
        for i, frames in enumerate(targets):
            ref_text = make_text(rng, frames, 4)
            emo, spk = int(rng.integers(len(EMOTIONS))), int(rng.integers(N_SPEAKERS))
            self.pairs.append({
                "id": "pair_%02d" % i,
                "ref_text": ref_text,
                "hyp_text": corrupt(rng, ref_text, ("drop", "insert", "substitute")[i % 3]),
                "ref": (emo, spk),
                # another emotion and another speaker for the synthesis side
                "syn": ((emo + 1 + int(rng.integers(len(EMOTIONS) - 1))) % len(EMOTIONS),
                        (spk + 1 + int(rng.integers(N_SPEAKERS - 1))) % N_SPEAKERS),
            })

    def prepare(self):
        for side in ("ref", "syn"):
            os.makedirs(self.path(side))
        for p in self.pairs:
            for side, text in (("ref", p["ref_text"]), ("syn", p["hyp_text"])):
                emo, spk = p[side]
                dsp.wav_write(self.path(side, p["id"] + ".wav"),
                              datagen.render_reference(text, emo, spk))

    def warm_up(self):
        self._score(self.pairs[0])

    def _score(self, p):
        ref = dsp.wav_read(self.path("ref", p["id"] + ".wav"))
        syn = dsp.wav_read(self.path("syn", p["id"] + ".wav"))
        return metrics.utterance_metrics(p["id"], ref, syn, p["ref_text"], p["hyp_text"])

    @staticmethod
    def _check(m):
        values = [m["wer"], m["cer"], m["mcd"], m["secs"]]
        if not all(np.isfinite(values)):
            return "non-finite metric in %s" % (values,)
        if m["word_edits"] != 1:
            return "%d word edits for a one-word corruption" % m["word_edits"]
        if not (0.0 < m["wer"] <= 1.0 and 0.0 < m["cer"] <= 1.0 and m["mcd"] > 0.0
                and -1.0 <= m["secs"] <= 1.0):
            return "metric out of range: %s" % (values,)
        return None

    def cycle(self):
        res = _cycle_result()
        per_utt = []
        for p in map(self.pairs.__getitem__, spread_order(len(self.pairs))):
            res["attempted"] += 1
            try:
                m, dt = self.timed(self._score, p)
            except ValueError as e:
                res["failed"] += 1
                res["errors"].append("%s: %s" % (p["id"], e))
                continue
            res["latencies"].append(dt)
            problem = self._check(m)
            if problem:
                res["failed"] += 1
                res["errors"].append("%s: %s" % (p["id"], problem))
            per_utt.append(m)
        report = self.path("eval.json")
        with open(report, "w") as f:
            f.write(metrics.aggregate_report(per_utt).to_json())
        res["digest"] = file_digest(report)
        res["work"] = {"done": len(res["latencies"]), "busy_s": sum(res["latencies"])}
        return res

    def expected_counts(self):
        n = len(self.pairs)
        # center-padded STFT: rendered samples / hop + 1 mel frames
        cells = sum((teacher_frames(p["ref_text"]) + 1) * (teacher_frames(p["hyp_text"]) + 1)
                    for p in self.pairs)
        counts = {"dsp.wav_read": 2 * n, "metrics.utterance_metrics": n, "metrics.mcd": n,
                  "metrics.dtw_align": n, "metrics.edit_distance": 2 * n, "metrics.secs": n,
                  "dsp.mel_spectrogram": 4 * n, "autodiff.grad": 0, "dsp.istft": 0}
        counts = {name + ".calls": c for name, c in counts.items()}
        counts["metrics.dtw_align.cells"] = cells
        return counts


WORKLOADS = {w.name: w for w in (Train, Synth, Eval)}
