"""Tests for the toy synthesis pipeline."""

import gc
import hashlib

import numpy as np
import pytest

from emoforge import autodiff, tts
from emoforge.autodiff import Tensor, concat, constant, grad, repeat_rows
from emoforge.conditioning import coupling_graph
from emoforge.datagen import Utterance, render_reference, text_durations
from emoforge.dsp import HOP, N_MELS, mel_spectrogram, wav_write
from emoforge.errors import ConfigError, DataError, FormatError
from emoforge.numeric import rng_stream
from emoforge.tts import (
    CKPT_MAGIC,
    TtsConfig,
    VARIANTS,
    VOCAB,
    _loss_graph,
    _utterance_batch,
    init_tts,
    load_tts,
    save_tts,
    synthesize,
    train_tts,
    tts_block_shapes,
)
from theta_codec import encode_checkpoint

EMBED = 8
N_SPK = 2


def _params(variant, seed=42):
    return init_tts(variant, embed=EMBED, n_speakers=N_SPK, seed=seed)


def _unit(seed, name):
    v = rng_stream(seed, name).standard_normal(EMBED)
    return v / np.sqrt((v * v).sum())


def _zero_blocks(params, names):
    arrays = {k: np.array(v) for k, v in params.layout.unpack(params.theta).items()}
    for n in names:
        arrays[n] = np.zeros_like(arrays[n])
    params.theta = params.layout.pack(arrays)
    return params


def _frames(text, params, u_emo=None, speaker=0):
    u_emo = _unit(5, "fr") if u_emo is None else u_emo
    wav, mel = synthesize(text, u_emo, speaker, params)
    assert len(wav.samples) == (len(mel.frames) - 1) * HOP
    return mel.frames


# -- text encoder -------------------------------------------------------------

def test_text_encode_shapes_and_normalization():
    # one frame per character, so the frame count is the normalized length
    p = _zero_blocks(_params("tacotron"), ["dur_w", "dur_b"])
    assert _frames("Hello, World!", p).shape == (11, N_MELS)  # "hello world"
    assert np.array_equal(_frames("Hello, World!", p), _frames("hello world", p))
    assert not np.allclose(_frames("ab cd.", p), _frames("ba cd.", p))
    with pytest.raises(DataError, match="empty after normalization"):
        synthesize("!!!", _unit(5, "fr"), 0, p)


def test_text_encode_shared_across_variants():
    blocks = []
    for variant in VARIANTS:
        p = _params(variant)
        blocks.append(p.layout.unpack(p.theta))
    for name in ("char_emb", "enc_w1", "enc_b1", "enc_w2", "enc_b2"):
        assert all(np.array_equal(b[name], blocks[0][name]) for b in blocks)


# -- durations ----------------------------------------------------------------

def test_predict_durations_zero_weights_and_clamp():
    p = _zero_blocks(_params("vits"), ["dur_w", "dur_b"])
    assert len(_frames("a cat sat.", p)) == 10  # softplus(0) = ln 2 rounds to one frame

    arrays = {k: np.array(v) for k, v in p.layout.unpack(p.theta).items()}
    arrays["dur_b"] = np.array([1e6])
    p.theta = p.layout.pack(arrays)
    assert len(_frames("a cat sat.", p)) == 10 * 20


# -- conditioning injection ---------------------------------------------------

def test_condition_widths_per_variant():
    u_emo = _unit(3, "ce")
    for variant in VARIANTS:
        p = _zero_blocks(_params(variant), ["dur_w", "dur_b"])
        assert _frames("a cat sat.", p, u_emo, 1).shape == (10, N_MELS)
        with pytest.raises(DataError, match="speaker 2 out of range"):
            synthesize("a cat sat.", u_emo, N_SPK, p)


def test_condition_rejects_bad_vectors():
    p = _params("tacotron")
    with pytest.raises(DataError, match="unit norm"):
        synthesize("a cat sat.", np.ones(EMBED), 0, p)  # not unit norm
    with pytest.raises(DataError, match="u_emo must be unit norm"):
        synthesize("a cat sat.", np.full(EMBED, np.nan), 0, p)  # once overflowed in the vocoder
    with pytest.raises(DataError, match="emotion embedding has dim"):
        synthesize("a cat sat.", _unit(3, "cb")[:4] / np.linalg.norm(_unit(3, "cb")[:4]), 0, p)
    with pytest.raises(DataError, match=r"speaker -1 out of range \[0, 2\)"):
        synthesize("a cat sat.", _unit(3, "cb"), -1, p)


# -- synthesis ----------------------------------------------------------------

def test_synthesize_frame_count_and_length():
    p = _params("fastspeech")
    text = "the quick brown fox."
    frames = _frames(text, p)
    assert frames.shape[1] == N_MELS
    assert len(text) <= len(frames) <= 20 * len(text)


def test_short_texts_hold_the_last_character():
    # the vocoder needs 4 frames; a shorter text repeats its last character
    p = _zero_blocks(_params("vits"), ["dur_w", "dur_b"])
    last = {}
    for text in ("a", "ab", "abc", "abcd"):
        wav, mel = synthesize(text, _unit(5, "fr"), 0, p)
        assert mel.frames.shape == (4, N_MELS)
        assert len(wav.samples) == 3 * HOP
        n = len(text)
        assert all(np.array_equal(mel.frames[i], mel.frames[n - 1]) for i in range(n, 4))
        last[text] = mel.frames
    assert not np.array_equal(last["ab"][3], last["abc"][3])


def test_synthesize_deterministic():
    p = _params("vits")
    u_emo = _unit(5, "sd")
    w1, m1 = synthesize("pack my box.", u_emo, 1, p)
    w2, m2 = synthesize("pack my box.", u_emo, 1, p)
    assert np.array_equal(w1.samples, w2.samples)
    assert np.array_equal(m1.frames, m2.frames)


@pytest.mark.parametrize("variant", ["vits", "fastspeech", "tacotron"])
def test_conditioning_sensitivity(variant):
    p = _params(variant)
    _, mel_a = synthesize("vexed zebras jump.", _unit(11, "ua"), 0, p)
    _, mel_b = synthesize("vexed zebras jump.", _unit(12, "ub"), 0, p)
    n = min(len(mel_a.frames), len(mel_b.frames))
    assert np.mean(np.abs(mel_a.frames[:n] - mel_b.frames[:n])) > 1e-6


def test_neutralized_variants_agree():
    # a condition bias with W = 0 and coupling with a zeroed conditioner are
    # both identity injections, so with both output biases dec_wc zeroed the
    # shared base weights must line up
    fs = _zero_blocks(_params("fastspeech", seed=9), ["att_w", "dec_wc"])
    flow = [p + n for p in ("flow_a_", "flow_b_")
            for n in ("ewn_wf", "ewn_bf", "ewn_wg", "ewn_bg", "ewn_wo", "ewn_bo")]
    vi = _zero_blocks(_params("vits", seed=9), ["dec_wc"] + flow)
    u_emo = _unit(7, "eq")
    w_fs, m_fs = synthesize("jovial gnomes waltz.", u_emo, 0, fs)
    w_vi, m_vi = synthesize("jovial gnomes waltz.", u_emo, 0, vi)
    assert np.array_equal(m_fs.frames, m_vi.frames)
    assert np.array_equal(w_fs.samples, w_vi.samples)


# WAV SHA-256 per variant for init_tts(v, embed=8, n_speakers=2, seed=5),
# recorded before fastspeech's query/key weights were removed: the remaining
# blocks draw from their own named streams, so all three must hold. Re-pinned
# once since, when Griffin-Lim's rounds moved to float32; fastspeech once more
# when its condition bias became one matrix (82dc9d73... before), and vits once
# more when its decoder gained the output bias dec_wc (caf2799a... before).
PINNED_WAV_SHA256 = {
    "vits": "50b0be44989798f364f56b7f7a2a542540e1abc007734301676748396cb6f432",
    "fastspeech": "5a3b1fb0c16387895f86f01c1ef3943a6dfd24dec791185d9c8058a74a7ae410",
    "tacotron": "1184a023d134fd715fde2bb5d0874d0865c6e07ce7c151f49ce92e587e87d90e",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_synthesized_wav_bytes_pinned(variant, tmp_path):
    p = init_tts(variant, embed=EMBED, n_speakers=N_SPK, seed=5)
    u_emo = _unit(5, "guard")
    wav, _ = synthesize("pack my box.", u_emo, 1, p)
    path = tmp_path / "out.wav"
    wav_write(path, wav)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_WAV_SHA256[variant]


def _swap_halves(t):
    half = t.shape[1] // 2
    return concat([t[:, half:], t[:, :half]])


def _swap_flow(blocks, mel, u):
    """The vits flow as it ran before each coupling took explicit halves: a
    block split its input, passed the first half through and joined the two
    again, and a half-swap copy after each block let the next transform the
    other half."""
    for prefix in ("flow_a_", "flow_b_"):
        flow = {k[len(prefix):]: v for k, v in blocks.items() if k.startswith(prefix)}
        h0, h1 = mel[:, :N_MELS // 2], mel[:, N_MELS // 2:]
        mel = _swap_halves(concat([h0, coupling_graph(flow, h0, h1, u)[0]]))
    return mel


def _per_frame_decoder(blocks, h_cond_t, u, variant, durations):
    """The decoder as it ran before decoding once per character: expand the
    character rows to frames first, then decode every frame."""
    h_exp = h_cond_t[np.repeat(np.arange(len(durations)), durations)]
    hidden = (h_exp @ blocks["dec_w1"] + blocks["dec_b1"]).tanh()
    u = constant(u)
    mel = hidden @ blocks["dec_w2"] + blocks["dec_b2"] + u @ blocks["dec_wc"]
    if variant == "vits":
        mel = _swap_flow(blocks, mel, u)
    return mel


@pytest.mark.parametrize("variant", VARIANTS)
def test_decoder_matches_per_frame_oracle(variant, tmp_path, monkeypatch):
    # the decoder reads no frame position, so decoding each character once and
    # expanding last gives the same mel bits; gradients differ only by the order
    # in which a character's frame gradients are summed
    data, prompts = _toy_dataset(tmp_path), _toy_prompts()
    p, _ = train_tts(data, prompts, variant, TtsConfig(steps=12, lr=0.05, batch=2, seed=3))
    texts = ("a", "pack my box with five dozen jugs.",
             "sphinx of black quartz judge my vow and five boxing wizards.")
    batches = [_utterance_batch(u, prompts, p) for u in data]
    assert len(texts[-1]) > 44 and len(batches) >= 4

    def run():
        mels = [synthesize(text, prompts[e], e, p)[1].frames
                for text in texts for e in range(2)]
        grads = [grad(lambda t: _loss_graph(t, p, b), p.theta) for b in batches]
        return mels, grads

    mels, grads = run()
    monkeypatch.setattr(tts, "_decoder_graph", _per_frame_decoder)
    want_mels, want_grads = run()
    for mel, want in zip(mels, want_mels):
        assert np.array_equal(mel, want)
    for g, want in zip(grads, want_grads):
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def _unfused_loss_graph(theta_t, params, batch):
    """`_loss_graph` as the tape ran it before `-`, `mean` and `x * x` each
    became one node, with the swap-halves vits flow: a - b as a + (-b), a
    mean as sum() * (1/n), and x * x through a second operand node, so that
    g * x is formed once per operand."""
    def mean_square(x):
        twin = Tensor(x.data, (x,), x._accum)
        return (x * twin).sum() * (1.0 / x.data.size)

    blocks, u, durations = params.layout.unpack(theta_t), batch["u"], batch["durations"]
    h_lg = tts._text_graph(blocks, batch["ids"], batch["posenc"])
    h_cond = tts._condition_graph(blocks, h_lg, u, params.variant)
    dur_soft = tts._duration_graph(blocks, h_cond)
    rows, counts = ((h_cond, durations) if h_cond.shape[0] > 1
                    else (h_cond[[0, 0]], [durations[0], 0]))
    hidden = (rows @ blocks["dec_w1"] + blocks["dec_b1"]).tanh()
    mel = hidden @ blocks["dec_w2"] + blocks["dec_b2"] + constant(u) @ blocks["dec_wc"]
    if params.variant == "vits":
        mel = _swap_flow(blocks, mel, constant(u))
    mel = repeat_rows(mel, counts)
    mel_err = mel + (-constant(batch["target"]))
    dur_err = dur_soft + (-constant(durations.astype(np.float64)[:, None]))
    return mean_square(mel_err) + mean_square(dur_err)


@pytest.mark.parametrize("variant", VARIANTS)
def test_loss_gradient_bits_match_the_unfused_graph(variant, tmp_path):
    # one-node `-`, `mean` and `x * x` and the flow on explicit halves move no bit
    p = _params(variant)
    p.theta = p.theta + rng_stream(4, "tts:unfused").normal(0.0, 0.1, p.theta.size)
    data = _toy_dataset(tmp_path)
    # a one-character text takes the decoder's padded-row path
    frames = sum(data[0].durations)
    data[0].text, data[0].durations = "a", [frames]
    for utt in data:
        b = _utterance_batch(utt, _toy_prompts(), p)
        g, loss = grad(lambda t: _loss_graph(t, p, b), p.theta, return_loss=True)
        want, want_loss = grad(lambda t: _unfused_loss_graph(t, p, b), p.theta, return_loss=True)
        assert g.tobytes() == want.tobytes() and loss == want_loss, utt.id


@pytest.mark.parametrize("variant", VARIANTS)
def test_loss_gradient_against_directional_finite_differences(variant, tmp_path):
    # g·d against the central difference of the whole TTS loss along 3 unit directions
    p = _params(variant)
    batch = _utterance_batch(_toy_dataset(tmp_path)[0], _toy_prompts(), p)
    g = grad(lambda t: _loss_graph(t, p, batch), p.theta)
    eps = 1e-4
    for i in range(3):
        d = rng_stream(i, "tts:fd-direction").standard_normal(p.theta.size)
        d /= np.linalg.norm(d)
        up, down = (_loss_graph(constant(p.theta + s * eps * d), p, batch).item()
                    for s in (1.0, -1.0))
        numeric = (up - down) / (2.0 * eps)
        assert abs(g @ d - numeric) <= 1e-6 * max(abs(g @ d), abs(numeric))


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_block_gets_gradient(variant, tmp_path):
    # a block with an all-zero gradient can never learn
    p = _params(variant)
    batch = _utterance_batch(_toy_dataset(tmp_path)[0], _toy_prompts(), p)
    g = grad(lambda t: _loss_graph(t, p, batch), p.theta)
    dead = [name for name, (a, b) in p.layout.slices.items() if not np.any(g[a:b])]
    assert dead == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_recorded_node_gets_gradient(variant, tmp_path, monkeypatch):
    # a recorded node that no gradient reaches is forward work the loss never reads
    p = _params(variant)
    batch = _utterance_batch(_toy_dataset(tmp_path)[0], _toy_prompts(), p)
    real_backward, dead = autodiff.backward, []

    def spy(out, tape):
        real_backward(out, tape)
        dead.append(sum(node.grad is None for node in tape if node is not out))

    monkeypatch.setattr(autodiff, "backward", spy)
    grad(lambda t: _loss_graph(t, p, batch), p.theta)
    assert dead == [0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_utterance_graphs_free_by_refcount(variant, tmp_path):
    # no node may refer to itself through its backward closure, so a graph
    # leaves no cyclic garbage once dropped
    p = _params(variant)
    batch = _utterance_batch(_toy_dataset(tmp_path)[0], _toy_prompts(), p)
    gc.collect()
    gc.disable()
    try:
        grad(lambda t: _loss_graph(t, p, batch), p.theta)
        after_grad = gc.collect()
        _loss_graph(constant(p.theta), p, batch).item()
        after_forward = gc.collect()
    finally:
        gc.enable()
    assert (after_grad, after_forward) == (0, 0)


def test_fastspeech_parameter_count():
    assert init_tts("fastspeech", embed=32, n_speakers=4, seed=42).theta.size == 10345


# -- training -----------------------------------------------------------------

def _toy_dataset(wav_dir):
    """Six utterances whose reference renders are written to wav_dir, as
    gen-data writes a corpus."""
    texts = ["a cat sat.", "big red fox.", "we dig mud."]
    utts = []
    for ti, text in enumerate(texts):
        for emo in range(2):
            uid, speaker = "u%d%d" % (ti, emo), (ti + emo) % N_SPK
            wav_path = wav_dir / (uid + ".wav")
            wav_write(wav_path, render_reference(text, emo, speaker))
            utts.append(Utterance(
                id=uid, text=text, emotion=emo, speaker=speaker, wav_path=str(wav_path),
                durations=text_durations(text),
                feat_vis=np.zeros(2), feat_audio=np.zeros(2), feat_text=np.zeros(2)))
    return utts


def _toy_prompts():
    return np.eye(2, EMBED)


def test_train_loss_decreases_and_is_deterministic(tmp_path):
    data, prompts = _toy_dataset(tmp_path), _toy_prompts()
    cfg = TtsConfig(steps=60, lr=0.05, batch=6, seed=3)
    p1, c1 = train_tts(data, prompts, "tacotron", cfg)
    p2, c2 = train_tts(data, prompts, "tacotron", TtsConfig(steps=60, lr=0.05, batch=6, seed=3))
    assert c1[-1] < c1[0]
    assert c1 == c2
    assert np.array_equal(p1.theta, p2.theta)


# SHA-256 of the checkpoint train_tts writes for each variant (toy set,
# 6 steps of batch 2, seed 3), trained on the toy set's 16-bit WAVs. A
# reader that hands back the float renders instead gives the earlier pins
# (vits 8bc7b468..., fastspeech 865e44ff..., tacotron 4e25a093...), which
# held from before the tape's parameter blocks were made cheaper. The
# version-1 files of the same θ hashed d34f2288..., 6c95782b... and
# e7580143...; format 2 moved only the bytes, not θ. Decoding once per
# character moved θ by rounding, as the gather now sums a character's frame
# gradients before the decoder's backward (vits 41f06592..., fastspeech
# df64d677..., tacotron 1d60ded5... before). Format 3 moved only the bytes:
# its magic and a dims block of embed and n_speakers alone (format 2: vits
# 62b77c90..., fastspeech bb922760..., tacotron 615531ca...). The float32 mel
# analysis moved the target mels by rounding, and so θ (vits 7d59f870...,
# fastspeech 67d5c362..., tacotron b35c0deb... before). Fastspeech's one
# condition-bias matrix moved its θ (cc61bc3c... before). Format 4 (EMITTS/4:
# a JSON header line, then θ's raw bytes) moved only the bytes (the one-line
# files of format 3: vits 7363bda4..., fastspeech a3e33335..., tacotron
# 27a6b62d...). vits' output bias dec_wc moved its θ (caca1c06... before).
PINNED_CKPT_SHA256 = {
    "vits": "f92d6db8fe99a0f57427dd63964fb195a3502642dfdb00a339ca6ac9ae981c5e",
    "fastspeech": "a0e1313889ad211e3c1cf590445d7ffc49d10c47e9e1c7d975a99d452d0a1df9",
    "tacotron": "00946e7c428b202ee8fb3f8492bb6e522f95e0267ccce21e3358bfb7dab151a8",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_trained_checkpoint_bytes_pinned(variant, tmp_path):
    p, _ = train_tts(_toy_dataset(tmp_path), _toy_prompts(), variant,
                     TtsConfig(steps=6, lr=0.05, batch=2, seed=3))
    path = tmp_path / "tts.json"
    save_tts(p, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CKPT_SHA256[variant]


def test_train_lr_zero_flat_curve(tmp_path):
    # the curve holds the probe loss before the first step and after the last
    p, curve = train_tts(_toy_dataset(tmp_path), _toy_prompts(), "vits",
                         TtsConfig(steps=25, lr=0.0, batch=6, seed=1))
    assert curve == [curve[0], curve[0]]
    init = init_tts("vits", embed=EMBED, n_speakers=p.dims["n_speakers"], seed=1)
    assert np.array_equal(p.theta, init.theta)


def test_train_config_errors(tmp_path):
    data, prompts = _toy_dataset(tmp_path), _toy_prompts()
    with pytest.raises(ConfigError):
        train_tts([], prompts, "vits", TtsConfig())
    with pytest.raises(ConfigError):
        TtsConfig(steps=0)
    for bad_lr in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            TtsConfig(lr=bad_lr)
    # a batch past the data would grow the order queue without bound
    with pytest.raises(ConfigError, match="batch size 7 out of range for 6 samples"):
        train_tts(data, prompts, "vits", TtsConfig(steps=1, batch=7))
    bad = _toy_dataset(tmp_path)
    bad[0].emotion = 5
    with pytest.raises(DataError, match="emotion 5 out of range"):
        train_tts(bad, prompts, "vits", TtsConfig(steps=1, batch=1))
    # the prompt rows become the condition, which synthesis refuses unless unit norm
    with pytest.raises(DataError, match="u_emo must be unit norm"):
        train_tts(data, 2.0 * prompts, "vits", TtsConfig(steps=1, batch=1))
    # NaN fails every comparison, so `|norm - 1| > tol` once passed a NaN row
    # and training returned a NaN θ
    with pytest.raises(DataError, match="u_emo must be unit norm"):
        train_tts(data, np.where(prompts == 1.0, np.nan, prompts), "fastspeech",
                  TtsConfig(steps=1, batch=1))


def test_trained_model_tracks_reference_mel(tmp_path):
    data, prompts = _toy_dataset(tmp_path), _toy_prompts()
    p, curve = train_tts(data, prompts, "fastspeech",
                         TtsConfig(steps=300, lr=0.05, batch=6, seed=5))
    assert curve[-1] < 0.5 * curve[0]
    # synthesized mel should sit closer to the matched-emotion reference
    text = "a cat sat."
    wins = 0
    for emo in range(2):
        _, mel = synthesize(text, prompts[emo], 0, p)
        refs = [mel_spectrogram(render_reference(text, e, 0)).frames for e in range(2)]
        n = min(len(mel.frames), min(len(r) for r in refs))
        d = [np.mean((mel.frames[:n] - r[:n]) ** 2) for r in refs]
        wins += d[emo] == min(d)
    assert wins == 2


# -- checkpointing ------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    p = _params("fastspeech", seed=11)
    path = tmp_path / "tts.json"
    save_tts(p, path)
    q = load_tts(path)
    assert q.variant == "fastspeech"
    assert q.dims == p.dims
    assert np.array_equal(q.theta, p.theta)


def test_checkpoint_theta_round_trips_bit_exact(tmp_path):
    p = _params("tacotron")
    p.theta[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    path = tmp_path / "tts.json"
    save_tts(p, path)
    q = load_tts(path)
    assert q.theta.tobytes() == p.theta.tobytes()
    assert np.signbit(q.theta[0]) and q.theta[1] == 5e-324
    assert q.theta.flags.writeable


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    with pytest.raises(FormatError):
        load_tts(bad)
    bad.write_text('{"magic": "OTHER/1"}')
    with pytest.raises(FormatError, match="format 'OTHER/1'"):
        load_tts(bad)
    p = _params("vits")
    payload = {"magic": CKPT_MAGIC, "variant": "vits", "dims": p.dims,
               "seed": 42, "theta": [1.0, 2.0]}
    bad.write_bytes(encode_checkpoint(payload))
    with pytest.raises(FormatError, match="has 2 parameters"):
        load_tts(bad)
    # 11,369 values: the fastspeech layout whose condition bias was a product
    # of two matrices, (32 + 4) x 32 and 32 x 32, in place of one (32 + 4) x 32
    p = init_tts("fastspeech", embed=32, n_speakers=4, seed=42)
    payload.update(variant="fastspeech", dims=p.dims, theta=np.zeros(11369))
    bad.write_bytes(encode_checkpoint(payload))
    with pytest.raises(FormatError, match="has 11369 parameters, layout wants 10345"):
        load_tts(bad)
    # 11,897 values: the vits layout from before its decoder gained the
    # (32 + 4) x 40 output bias dec_wc that the other variants have
    payload.update(variant="vits", theta=np.zeros(11897))
    bad.write_bytes(encode_checkpoint(payload))
    with pytest.raises(FormatError, match="has 11897 parameters, layout wants 13337"):
        load_tts(bad)


def test_block_shapes_vocab():
    assert len(VOCAB) == 28
    shapes = tts_block_shapes("tacotron", embed=EMBED, n_speakers=N_SPK)
    assert shapes["char_emb"] == (28, 32)
    assert shapes["dec_w1"] == (32 + EMBED + N_SPK, 64)
