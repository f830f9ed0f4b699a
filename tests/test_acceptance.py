"""Acceptance suite: twelve checks over the whole package.

Each numbered test covers one criterion and writes one PASS/FAIL line to the
real stdout (bypassing capture) so a plain `pytest -v` run shows the verdicts
inline; the unnumbered test beside criterion 10 asserts without a line.
Expensive artifacts (corpus, trained alignment, trained synthesizer) are
built once per session by fixtures.
"""

import re
import time
from functools import lru_cache

import numpy as np
import pytest

from emoforge import epalign
from emoforge.autodiff import ParamLayout, constant
from emoforge.cli import main as cli_main
from emoforge.conditioning import attention_graph, coupling_block_shapes, coupling_graph
from emoforge.datagen import CorpusConfig, _TEXT_POOL, gen_corpus, render_reference
from emoforge.dsp import (
    N_MELS,
    SAMPLE_RATE,
    Waveform,
    istft,
    stft,
    wav_read,
    wav_write,
)
from emoforge.epalign import (
    AlignTrainConfig,
    _batch_loss_graph,
    _sym_ce_t,
    anchored_prompts,
    eval_alignment,
    init_epalign,
    train_epalign,
)
from emoforge.metrics import dtw_align, edit_distance, mcd, mos_aggregate, secs
from emoforge.numeric import rng_stream
from emoforge.tts import VARIANTS, TtsConfig, init_tts, synthesize, train_tts
from gradcheck import finite_diff_check
from replay_criterion10 import mel_spread


@pytest.fixture
def verdict(capsys):
    """Record one [criterion N] PASS/FAIL line and print it past capture."""
    lines = []

    def record(num, desc, ok):
        lines.append("[criterion %2d] %s: %s" % (num, "PASS" if ok else "FAIL", desc))
        assert ok, "criterion %d failed: %s" % (num, desc)

    yield record
    with capsys.disabled():
        for line in lines:
            print(line)


# -- shared artifacts ----------------------------------------------------------

@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-corpus")
    return gen_corpus(CorpusConfig(), out)  # datagen defaults: C=5, sep=4.0, noise=1.0, 200/class


@pytest.fixture(scope="session")
def align_split(corpus):
    perm = rng_stream(42, "acceptance:split").permutation(len(corpus))
    held = int(0.2 * len(corpus))
    test = [corpus[i] for i in perm[:held]]
    train = [corpus[i] for i in perm[held:]]
    t0 = time.perf_counter()
    params, _ = train_epalign(train, AlignTrainConfig())
    return {"params": params, "train": train, "test": test,
            "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def tts_model(corpus, align_split):
    prompts = anchored_prompts(align_split["params"])
    t0 = time.perf_counter()
    params, curve = train_tts(corpus, prompts, "fastspeech",
                              TtsConfig(steps=250, lr=0.05, batch=8, seed=42))
    return {"params": params, "prompts": prompts, "curve": curve,
            "seconds": time.perf_counter() - t0}


# -- 1: flow invertibility ----------------------------------------------------

def _block_set(params, prefix):
    """One named block set of a synthesizer, as its own flat vector."""
    arrays = {k[len(prefix):]: np.array(v)
              for k, v in params.layout.unpack(params.theta).items() if k.startswith(prefix)}
    layout = ParamLayout({k: v.shape for k, v in arrays.items()})
    return layout, layout.pack(arrays)


def test_criterion_01_flow_invertibility(verdict):
    layout, theta = _block_set(init_tts("vits", embed=32, n_speakers=4, seed=42), "flow_a_")
    blocks = {k: constant(v) for k, v in layout.unpack(theta).items()}
    rng = rng_stream(42, "acceptance:flow")
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        h = rng.standard_normal((8, N_MELS))
        u = constant(rng.standard_normal((1, 32 + 4)))
        h0 = constant(h[:, :N_MELS // 2])
        out, _ = coupling_graph(blocks, h0, constant(h[:, N_MELS // 2:]), u)
        back, _ = coupling_graph(blocks, h0, out, u, inverse=True)
        worst = max(worst, np.max(np.abs(back.data - h[:, N_MELS // 2:])))
    elapsed = time.perf_counter() - t0
    verdict(1, "1000 coupling round trips, max err %.2e (< 1e-9), %.2f s (< 5 s)"
             % (worst, elapsed), worst < 1e-9 and elapsed < 5.0)


# -- 2: gradient fidelity -----------------------------------------------------

def test_criterion_02_gradient_fidelity(verdict):
    # step 1e-4 keeps the O(eps^2) truncation of central differences well
    # under the 1e-4 bar; the default step is marginal for the softmax
    # curvature of the contrastive loss
    eps = 1e-4
    worst = {"contrastive": 0.0, "log_det": 0.0, "attention": 0.0}
    for seed in (1, 2, 3):
        rng = rng_stream(seed, "acceptance:grad")

        with pytest.MonkeyPatch.context() as narrow:
            narrow.setattr(epalign, "HIDDEN", 6)
            narrow.setattr(epalign, "EMBED", 4)
            p = init_epalign({"d_vis": 5, "d_audio": 5, "d_tex": 5}, 3, seed)
        # moderate temperature: finite differences themselves lose accuracy
        # at the warm-start scale, so check the gradient where FD is reliable
        p.theta[p.layout.offset("log_t")] = 0.0
        feats = {m: rng.standard_normal((3, 5)) for m in epalign.MODALITIES}
        labels = np.array([0, 1, 2])
        err = finite_diff_check(
            lambda t: _batch_loss_graph(t, p, feats, labels), p.theta, epsilon=eps)
        worst["contrastive"] = max(worst["contrastive"], err)

        # small blocks drawn from the streams init_tts draws a model's from
        cl = ParamLayout(coupling_block_shapes(N_MELS, 3 + 1, 8))
        ct = cl.init(lambda name: rng_stream(seed, "tts:flow_a_" + name))
        h = rng.standard_normal((4, N_MELS))
        h0, h1 = constant(h[:, :N_MELS // 2]), constant(h[:, N_MELS // 2:])
        u = constant(rng.standard_normal((1, 3 + 1)))
        err = finite_diff_check(
            lambda t: coupling_graph(cl.unpack(t), h0, h1, u)[1].sum(), ct, epsilon=eps)
        worst["log_det"] = max(worst["log_det"], err)

        al = ParamLayout({"att_w": (3 + 2, 4)})
        at = al.init(lambda name: rng_stream(seed, "tts:" + name))
        ah = constant(rng.standard_normal((3, 4)))
        u = constant(rng.standard_normal((1, 3 + 2)))

        def att_loss(t):
            out = attention_graph(al.unpack(t), ah, u)
            return (out * out).sum()

        err = finite_diff_check(att_loss, at, epsilon=eps)
        worst["attention"] = max(worst["attention"], err)

    ok = all(v < 1e-4 for v in worst.values())
    verdict(2, "3x finite-diff checks: contrastive %.1e, log_det %.1e, attention %.1e (< 1e-4)"
             % (worst["contrastive"], worst["log_det"], worst["attention"]), ok)


# -- 3: contrastive-loss closed forms ------------------------------------------

def test_criterion_03_contrastive_closed_forms(verdict):
    def sym_ce(logits):  # the symmetric cross-entropy the trainer differentiates
        return _sym_ce_t(constant(logits)).item()

    uniform_ok = True
    for k in (2, 4, 16):
        for fill in (0.0, 3.7):
            got = sym_ce(np.full((k, k), fill))
            uniform_ok &= abs(got - 2.0 * np.log(k)) < 1e-10
    single_ok = sym_ce(np.zeros((1, 1))) == 0.0
    sym_ok = True
    for seed in (5, 6, 7):
        logits = rng_stream(seed, "acceptance:sym").standard_normal((6, 6)) * 4.0
        sym_ok &= abs(sym_ce(logits) - sym_ce(logits.T)) < 1e-12
    verdict(3, "uniform logits -> 2 ln K (K=2,4,16), K=1 -> 0, transpose symmetry",
             uniform_ok and single_ok and sym_ok)


# -- 4: alignment end to end ---------------------------------------------------

def test_criterion_04_alignment_end_to_end(verdict, align_split):
    params, test = align_split["params"], align_split["test"]
    fused = eval_alignment(params, test, None)
    singles = {m: eval_alignment(params, test, (m,))["macro_f1"]
               for m in ("vis", "audio", "tex")}
    acc_ok = fused["accuracy"] >= 0.95
    f1_ok = all(fused["macro_f1"] >= f - 0.02 for f in singles.values())
    time_ok = align_split["seconds"] < 120.0
    verdict(4, "held-out acc %.3f (>= 0.95); fused F1 %.3f vs singles %s (- 0.02); train %.1f s (< 120)"
             % (fused["accuracy"], fused["macro_f1"],
                {m: round(f, 3) for m, f in singles.items()}, align_split["seconds"]),
             acc_ok and f1_ok and time_ok)


# -- 5: edit distance vs brute force --------------------------------------------

def _brute_edit(ref, hyp):
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = go(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1])
        return min(sub, go(i - 1, j) + 1, go(i, j - 1) + 1)

    return go(len(ref), len(hyp))


def test_criterion_05_edit_distance_oracle(verdict):
    rng = rng_stream(42, "acceptance:edit")
    bad = 0
    for _ in range(500):
        ref = tuple(rng.integers(0, 4, rng.integers(0, 9)))
        hyp = tuple(rng.integers(0, 4, rng.integers(0, 9)))
        if edit_distance(ref, hyp) != _brute_edit(ref, hyp):
            bad += 1
    verdict(5, "500 random pairs (len <= 8) vs brute-force recursion, %d mismatches" % bad,
             bad == 0)


# -- 6: DTW vs exhaustive search -------------------------------------------------

def _brute_dtw(cost):
    ta, tb = cost.shape

    def go(i, j):
        base = cost[i, j]
        if i == 0 and j == 0:
            return base
        options = []
        if i > 0:
            options.append(go(i - 1, j))
        if j > 0:
            options.append(go(i, j - 1))
        if i > 0 and j > 0:
            options.append(go(i - 1, j - 1))
        return base + min(options)

    return go(ta - 1, tb - 1)


def _path_cost(a, b, path):
    return sum(np.linalg.norm(a[i] - b[j]) for i, j in path)


def test_criterion_06_dtw_oracle(verdict):
    rng = rng_stream(42, "acceptance:dtw")
    bad = 0
    for _ in range(200):
        a = rng.standard_normal((int(rng.integers(1, 7)), 2))
        b = rng.standard_normal((int(rng.integers(1, 7)), 2))
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        got = _path_cost(a, b, dtw_align(a, b))
        if abs(got - _brute_dtw(cost)) > 1e-9:
            bad += 1
    verdict(6, "200 random pairs (T <= 6) vs exhaustive path search, %d cost mismatches" % bad,
             bad == 0)


# -- 7: MCD properties -----------------------------------------------------------

def test_criterion_07_mcd_properties(verdict):
    rng = rng_stream(42, "acceptance:mcd")
    w = Waveform(samples=np.clip(rng.standard_normal(SAMPLE_RATE) * 0.15, -0.45, 0.45))
    v = Waveform(samples=np.clip(rng.standard_normal(SAMPLE_RATE) * 0.15, -0.45, 0.45))
    self_ok = mcd(w, w) == 0.0
    gain_worst = max(
        mcd(w, Waveform(samples=w.samples * g)) for g in (0.25, 2.0))
    sym_err = abs(mcd(w, v) - mcd(v, w))
    verdict(7, "MCD(w,w)=0; gain invariance %.1e (< 1e-6); symmetry %.1e (< 1e-12)"
             % (gain_worst, sym_err),
             self_ok and gain_worst < 1e-6 and sym_err < 1e-12)


# -- 8: speaker-similarity separation ---------------------------------------------

def test_criterion_08_secs_separation(verdict):
    same, cross = [], []
    for i in range(20):
        spk = i % 4
        a = render_reference(_TEXT_POOL[i % 8], i % 5, spk)
        b = render_reference(_TEXT_POOL[(i + 3) % 8], (i + 2) % 5, spk)
        c = render_reference(_TEXT_POOL[(i + 3) % 8], (i + 2) % 5, (spk + 1) % 4)
        same.append(secs(a, b))
        cross.append(secs(a, c))
    margin = np.mean(same) - np.mean(cross)
    verdict(8, "same-speaker mean %.3f vs cross %.3f, margin %.3f (>= 0.05)"
             % (np.mean(same), np.mean(cross), margin), margin >= 0.05)


# -- 9: MOS interval arithmetic ----------------------------------------------------

def test_criterion_09_mos_arithmetic(verdict):
    pair = mos_aggregate([4.0, 5.0]).formatted()
    const = mos_aggregate([3.5] * 10).formatted()
    pattern = re.compile(r"^\d+\.\d{2}\(±\d+\.\d{2}\)$")
    ok = (pair == "4.50(±6.35)" and const == "3.50(±0.00)"
          and bool(pattern.match(pair)) and bool(pattern.match(const)))
    verdict(9, "{4,5} -> %s; constant -> %s; pattern m(±h)" % (pair, const), ok)


# -- 10: emotion discriminability of synthesis --------------------------------------

def test_criterion_10_tts_conditioning_effect(verdict, tts_model):
    params, prompts = tts_model["params"], tts_model["prompts"]
    wins = 0
    for i in range(10):
        text, emo, other, spk = _TEXT_POOL[i % 8], i % 5, (i + 1) % 5, i % 4
        wav, _ = synthesize(text, prompts[emo], spk, params)
        d_match = mcd(render_reference(text, emo, spk), wav)
        d_other = mcd(render_reference(text, other, spk), wav)
        wins += d_match < d_other
    loss_ok = tts_model["curve"][-1] < 0.5 * tts_model["curve"][0]
    time_ok = tts_model["seconds"] < 300.0
    verdict(10, "matched-emotion MCD wins %d/10 (>= 8); train %.1f s (< 300); loss %.1f -> %.1f"
             % (wins, tts_model["seconds"], tts_model["curve"][0], tts_model["curve"][-1]),
             wins >= 8 and loss_ok and time_ok)


# -- beside 10: every variant's synthesis follows the emotion (no verdict line) --------

@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_carries_the_emotion_after_training(variant, corpus, tts_model):
    # criterion 10's training; a variant whose trained output ignores the
    # condition moves the log-mel by rounding only (about 1e-9)
    prompts = tts_model["prompts"]
    params = tts_model["params"] if variant == "fastspeech" else train_tts(
        corpus, prompts, variant, TtsConfig(steps=250, lr=0.05, batch=8, seed=42))[0]
    spread = mel_spread(params, prompts, [0])
    assert spread > 1e-3, "%s: emotion moves the mel by %.3g" % (variant, spread)


# -- 11: CLI determinism --------------------------------------------------------------

def test_criterion_11_cli_determinism(verdict, tmp_path):
    runs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        data = d / "data"
        assert cli_main(["gen-data", "--out", str(data), "--classes", "3", "--speakers", "2",
                         "--per-class", "5", "--seed", "7"]) == 0
        align = d / "align.json"
        assert cli_main(["train-align", "--data", str(data), "--out", str(align),
                         "--epochs", "3", "--batch", "3", "--seed", "7"]) == 0
        ttsc = d / "tts.json"
        assert cli_main(["train-tts", "--data", str(data), "--variant", "vits",
                         "--align-ckpt", str(align), "--out", str(ttsc),
                         "--steps", "5", "--batch", "2", "--seed", "7"]) == 0
        wav = d / "out.wav"
        assert cli_main(["synth", "--ckpt", str(ttsc), "--align-ckpt", str(align),
                         "--text", "we dig mud.", "--emotion", "sad", "--speaker", "1",
                         "--out", str(wav)]) == 0
        wavs = sorted((data / "wav").glob("*.wav"))
        runs[tag] = {
            "manifest": (data / "manifest.jsonl").read_bytes(),
            "wavs": [p.read_bytes() for p in wavs],
            "align": align.read_bytes(),
            "synth": wav.read_bytes(),
        }
    ok = (runs["a"]["manifest"] == runs["b"]["manifest"]
          and runs["a"]["wavs"] == runs["b"]["wavs"]
          and runs["a"]["align"] == runs["b"]["align"]
          and runs["a"]["synth"] == runs["b"]["synth"])
    verdict(11, "gen-data / train-align / synth byte-identical across two runs", ok)


# -- 12: DSP round trips ---------------------------------------------------------------

def test_criterion_12_dsp_round_trips(verdict, tmp_path):
    rng = rng_stream(42, "acceptance:dsp")
    w = Waveform(samples=np.clip(rng.standard_normal(SAMPLE_RATE) * 0.2, -0.9, 0.9))
    back = istft(stft(w.samples))  # 16000 samples are 125 whole hops
    stft_err = np.max(np.abs(back - w.samples))

    path = tmp_path / "rt.wav"
    wav_write(path, w)
    wav_err = np.max(np.abs(wav_read(path).samples - w.samples))

    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    sine = Waveform(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t))
    mag = np.abs(stft(sine.samples))
    peak_bin = int(np.argmax(mag.mean(axis=0)))
    # 1000 Hz / (16000 Hz / 512 bins) = bin 32
    verdict(12, "istft(stft) err %.1e (< 1e-6); WAV err %.1e (<= 2^-15); 1 kHz peak bin %d (= 32)"
             % (stft_err, wav_err, peak_bin),
             stft_err < 1e-6 and wav_err <= 2.0 ** -15 and peak_bin == 32)
