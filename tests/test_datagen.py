"""Tests for the synthetic corpus generator."""

import numpy as np
import pytest

from emoforge.datagen import (
    FEATURE_DIM,
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
from emoforge.dsp import SAMPLE_RATE
from emoforge.errors import (
    ConfigError,
    FormatError,
    InvalidInputError,
    InvalidLabelError,
)
from emoforge.metrics import secs
from emoforge.numeric import rng_stream


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
    with pytest.raises(ConfigError):
        CorpusConfig(separation=0.0)
    with pytest.raises(ConfigError):
        CorpusConfig(noise_std=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            CorpusConfig(separation=bad)
        with pytest.raises(ConfigError):
            CorpusConfig(noise_std=bad)
    with pytest.raises(ConfigError):
        CorpusConfig(n_classes=FEATURE_DIM + 1)


def test_emotion_names():
    assert emotion_id("neutral") == 0 and emotion_id("surprise") == 4
    assert emotion_id("happy") == 1
    with pytest.raises(InvalidLabelError):
        emotion_id("bored")


def test_durations_table():
    assert char_frames("a") == 8 and char_frames(" ") == 4
    assert all(d >= 1 for d in text_durations("the quick brown fox."))
    with pytest.raises(InvalidInputError):
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


def test_render_input_errors():
    with pytest.raises(InvalidInputError):
        render_reference("", 0, 0)
    with pytest.raises(InvalidLabelError):
        render_reference("abc", -1, 0)
    with pytest.raises(InvalidLabelError):
        render_reference("abc", 0, -1)


# -- corpus generation --------------------------------------------------------------

def test_zero_noise_collapses_clusters(tmp_path):
    cfg = _small_cfg(noise_std=0.0, samples_per_class=4)
    utts = gen_corpus(cfg, tmp_path / "c")
    by_class = {}
    for u in utts:
        by_class.setdefault(u.emotion, []).append(u)
    for group in by_class.values():
        first = group[0]
        for u in group[1:]:
            assert np.array_equal(u.feat_audio, first.feat_audio)
            assert np.array_equal(u.feat_vis, first.feat_vis)


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


def test_separability_monotone_in_separation(tmp_path):
    accs = []
    for i, sep in enumerate((1.0, 2.0, 4.0)):
        utts = gen_corpus(_small_cfg(separation=sep), tmp_path / ("s%d" % i))
        X = np.array([u.feat_audio for u in utts])
        y = np.array([u.emotion for u in utts])
        centroids = np.array([X[y == c].mean(axis=0) for c in range(5)])
        d = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
        accs.append(np.mean(np.argmin(d, axis=1) == y))
    assert accs[0] <= accs[1] <= accs[2]


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
