"""Tests for the synthetic corpus generator."""

import numpy as np
import pytest

from emoforge import datagen
from emoforge.datagen import (
    EMOTIONS,
    CorpusConfig,
    Utterance,
    char_frames,
    class_directions,
    emotion_id,
    gen_corpus,
    load_manifest,
    render_reference,
    text_durations,
)
from emoforge.dsp import HOP, SAMPLE_RATE
from emoforge.errors import ConfigError, DataError, FormatError
from emoforge.metrics import secs
from emoforge.numeric import rng_stream
from emoforge.tts import VOCAB


def _small_cfg(**kw):
    base = dict(samples_per_class=16, seed=7)
    base.update(kw)
    return CorpusConfig(**base)


def _dominant_freq(w, start=0, n=1024):
    seg = w.samples[start:start + n] * np.hanning(n)
    spec = np.abs(np.fft.rfft(seg))
    k = int(np.argmax(spec))
    if 0 < k < spec.size - 1:
        a, b, c = np.log(spec[k - 1:k + 2] + 1e-12)
        k = k + 0.5 * (a - c) / (a - 2 * b + c)
    return k * SAMPLE_RATE / n


# -- config and labels -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        CorpusConfig(n_classes=1)
    # every class has a name in EMOTIONS and every speaker a voice of its own
    with pytest.raises(ConfigError, match="need 2 to 5 emotion classes"):
        CorpusConfig(n_classes=len(EMOTIONS) + 1)
    with pytest.raises(ConfigError, match="need 1 to 4 speakers"):
        CorpusConfig(n_speakers=5)


def test_emotion_names():
    assert emotion_id("neutral") == 0 and emotion_id("surprise") == 4
    assert emotion_id("happy") == 1
    with pytest.raises(DataError, match="unknown emotion"):
        emotion_id("bored")


def test_durations_table():
    assert char_frames("a") == 8 and char_frames(" ") == 4
    assert all(d >= 1 for d in text_durations("the quick brown fox."))
    with pytest.raises(DataError, match="durations must be >= 1 frame"):
        Utterance(id="x", text="a", emotion=0, speaker=0, wav_path="x.wav",
                  durations=[0], feat_vis=[0.0], feat_audio=[0.0], feat_text=[0.0])


# -- class directions ----------------------------------------------------------

def test_class_directions_orthonormal():
    dirs = class_directions(rng_stream(7, "dirs"), 5, 64)
    gram = dirs @ dirs.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10


# -- renderer --------------------------------------------------------------------

def test_render_deterministic():
    a = render_reference("bright vixens jump.", 1, 2)
    b = render_reference("bright vixens jump.", 1, 2)
    assert np.array_equal(a.samples, b.samples)


def _render_per_character(text, emotion, speaker):
    """The renderer as a loop over the characters, one segment at a time: the
    oracle that the batched `render_reference` must match byte for byte."""
    mult, contour, amp = datagen._EMOTION_RENDER[EMOTIONS[emotion]]
    f0 = datagen._SPEAKER_F0[speaker]
    alpha, max_h, step = datagen._SPEAKER_TIMBRE[speaker]
    parts = [(h, h ** -alpha) for h in range(1, max_h + 1, step)]
    total_amp = sum(a for _, a in parts)
    segments = []
    fade = int(0.008 * SAMPLE_RATE)
    for k, ch in enumerate(text):
        n = char_frames(ch) * HOP
        if ch in " .":
            segments.append(np.zeros(n))
            continue
        p = k / max(1, len(text) - 1)
        f = f0 * mult * contour(p) * 2.0 ** ((ord(ch) - ord("m")) / 52.0)
        t = np.arange(n) / SAMPLE_RATE
        seg = np.zeros(n)
        for h, a in parts:
            if f * h < 7600.0:
                seg += (a / total_amp) * np.sin(2.0 * np.pi * f * h * t)
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        seg[:fade] *= ramp
        seg[-fade:] *= ramp[::-1]
        segments.append(amp * seg)
    return np.concatenate(segments)


ORACLE_TEXTS = ["a", "z.", " .a", "zzzz", datagen._TEXT_POOL[0],
                "abcdefghijklmnopqrstuvwxyz",
                ("sphinx of black quartz, judge my vow. " * 4)[:150]]


@pytest.mark.parametrize("text", ORACLE_TEXTS, ids=range(len(ORACLE_TEXTS)))
def test_render_matches_the_per_character_loop_byte_for_byte(text):
    for emotion in range(len(EMOTIONS)):
        for speaker in range(len(datagen._SPEAKER_F0)):
            want = _render_per_character(text, emotion, speaker)
            got = render_reference(text, emotion, speaker).samples
            assert got.tobytes() == want.tobytes(), (emotion, speaker)


def test_render_length_matches_durations():
    text = "fox jumps."
    w = render_reference(text, 0, 0)
    assert w.samples.size == sum(text_durations(text)) * 128


def test_render_no_clipping():
    for emo in range(5):
        for spk in range(4):
            w = render_reference("waltz bad nymph for quick jigs.", emo, spk)
            assert np.max(np.abs(w.samples)) <= 1.0


def test_render_happy_raises_f0_by_1_3():
    # measure the first vowel segment; position 0 puts every contour at 1.0
    neutral = render_reference("aaaa", 0, 3)
    happy = render_reference("aaaa", 1, 3)
    ratio = _dominant_freq(happy) / _dominant_freq(neutral)
    assert abs(ratio - 1.3) < 0.05


def test_render_speaker_identity_dominates_text():
    text_a = "the quick brown fox jumps over the lazy dog."
    text_b = "bright vixens jump for joy."
    same_speaker = secs(render_reference(text_a, 0, 0), render_reference(text_b, 0, 0))
    cross_speaker = secs(render_reference(text_a, 0, 0), render_reference(text_a, 0, 1))
    assert same_speaker > cross_speaker


def test_every_letter_sounds_for_every_emotion_and_speaker():
    # a partial at or past the 7.6 kHz cut is dropped; no table voice may lose them all
    letters = VOCAB.replace(" ", "").replace(".", "")
    bounds = np.cumsum([0] + [char_frames(ch) * HOP for ch in letters])
    for emo in range(len(EMOTIONS)):
        for spk in range(4):
            w = render_reference(letters, emo, spk)
            silent = [ch for ch, a, b in zip(letters, bounds, bounds[1:])
                      if not np.any(w.samples[a:b])]
            assert not silent, (emo, spk, silent)


# -- corpus generation --------------------------------------------------------------

def test_corpus_deterministic(tmp_path):
    cfg = _small_cfg(samples_per_class=4)
    gen_corpus(cfg, tmp_path / "a")
    gen_corpus(cfg, tmp_path / "b")
    ma = (tmp_path / "a" / "manifest.jsonl").read_bytes()
    mb = (tmp_path / "b" / "manifest.jsonl").read_bytes()
    assert ma == mb
    wa = (tmp_path / "a" / "wav" / "utt_00003.wav").read_bytes()
    wb = (tmp_path / "b" / "wav" / "utt_00003.wav").read_bytes()
    assert wa == wb


def test_nearest_centroid_separability(tmp_path):
    utts = gen_corpus(_small_cfg(samples_per_class=40), tmp_path / "c")
    X = np.array([u.feat_audio for u in utts])
    y = np.array([u.emotion for u in utts])
    train, test = np.arange(len(utts)) % 2 == 0, np.arange(len(utts)) % 2 == 1
    centroids = np.array([X[train & (y == c)].mean(axis=0) for c in range(5)])
    d = np.linalg.norm(X[test][:, None, :] - centroids[None, :, :], axis=2)
    acc = np.mean(np.argmin(d, axis=1) == y[test])
    assert acc >= 0.95


def test_manifest_round_trip(tmp_path):
    cfg = _small_cfg(samples_per_class=3)
    utts = gen_corpus(cfg, tmp_path / "c")
    back = load_manifest(tmp_path / "c" / "manifest.jsonl")
    assert len(back) == len(utts)
    assert back[0].id == utts[0].id and back[0].text == utts[0].text
    assert np.allclose(back[0].feat_vis, utts[0].feat_vis)
    assert back[-1].durations == utts[-1].durations


def test_manifest_rejects_garbage(tmp_path):
    bad = tmp_path / "manifest.jsonl"
    bad.write_text('{"id": "u", "text": "a"}\n')
    with pytest.raises(FormatError, match="line 1"):
        load_manifest(bad)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(FormatError):
        load_manifest(empty)
