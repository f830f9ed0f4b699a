"""Deterministic synthetic multimodal emotion corpus.

Each utterance carries three feature vectors (vision / audio / text) drawn
from well-separated per-class Gaussian clusters, plus reference audio
rendered as speaker- and emotion-modulated harmonic tones into 16-bit
WAVs, which the TTS trainer imitates and the metric suite scores against.
Everything here is exactly reproducible from the seed.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import field, read
from .dsp import HOP, SAMPLE_RATE, Waveform, wav_write
from .errors import ConfigError, DataError, FormatError
from .numeric import rng_stream

EMOTIONS = ("neutral", "happy", "sad", "angry", "surprise")
FEATURE_DIM = 64  # length of each modality's feature vector
SEPARATION = 4.0  # distance of each class centroid from the origin
NOISE_STD = 1.0  # per-dimension spread of the features around their centroid

# base fundamental per speaker; roughly bass / tenor / alto / soprano
_SPEAKER_F0 = (110.0, 146.0, 196.0, 246.0)

# per-speaker harmonic comb (spectral decay, harmonic count, step between
# harmonics); voices light up very different mel-band sets, so timbre and
# not only pitch separates them
_SPEAKER_TIMBRE = (
    (2.5, 4, 1),    # dark: steep rolloff, few partials
    (1.0, 8, 1),    # warm
    (0.5, 14, 1),   # bright
    (0.3, 19, 2),   # reedy: odd harmonics only, slow rolloff
)

# (F0 multiplier, pitch contour over utterance position, amplitude)
_EMOTION_RENDER = {
    "neutral": (1.0, lambda p: 1.0, 0.5),
    "happy": (1.3, lambda p: 1.0 + 0.15 * p, 0.5),
    "sad": (0.8, lambda p: 1.0 - 0.15 * p, 0.5),
    "angry": (1.2, lambda p: 1.0, 0.8),
    "surprise": (1.4, lambda p: 1.0 + 0.2 * np.sin(np.pi * p), 0.5),
}

_TEXT_POOL = (
    "the quick brown fox jumps over the lazy dog.",
    "pack my box with five dozen jugs.",
    "how vexingly quick daft zebras jump.",
    "bright vixens jump for joy.",
    "sphinx of black quartz judge my vow.",
    "waltz bad nymph for quick jigs.",
    "glib jocks quiz nymph to vex dwarf.",
    "the five boxing wizards jump quickly.",
)

_VOWELS = frozenset("aeiou")


@dataclass
class CorpusConfig:
    n_classes: int = 5
    n_speakers: int = 4
    samples_per_class: int = 200
    seed: int = 42

    def __post_init__(self):
        if not 2 <= self.n_classes <= len(EMOTIONS):
            raise ConfigError("need 2 to %d emotion classes (%s), got %d"
                              % (len(EMOTIONS), ", ".join(EMOTIONS), self.n_classes))
        if not 1 <= self.n_speakers <= len(_SPEAKER_F0):
            raise ConfigError("need 1 to %d speakers, got %d" % (len(_SPEAKER_F0), self.n_speakers))
        if self.samples_per_class < 1:
            raise ConfigError("need at least one sample per class")


@dataclass
class Utterance:
    id: str
    text: str
    emotion: int
    speaker: int
    wav_path: str
    durations: list  # frames per character
    feat_vis: np.ndarray
    feat_audio: np.ndarray
    feat_text: np.ndarray

    def __post_init__(self):
        self.feat_vis = np.asarray(self.feat_vis, dtype=np.float64)
        self.feat_audio = np.asarray(self.feat_audio, dtype=np.float64)
        self.feat_text = np.asarray(self.feat_text, dtype=np.float64)
        if any(d < 1 for d in self.durations):
            raise DataError("character durations must be >= 1 frame")


def emotion_id(name):
    if name not in EMOTIONS:
        raise DataError("unknown emotion %r (known: %s)" % (name, ", ".join(EMOTIONS)))
    return EMOTIONS.index(name)


def char_frames(ch):
    """Frames per rendered character: vowels ring longest, pauses shortest."""
    if ch in _VOWELS:
        return 8
    if ch == " ":
        return 4
    if ch == ".":
        return 5
    return 6


def text_durations(text):
    return [char_frames(ch) for ch in text]


def render_reference(text, emotion, speaker):
    """Render reference audio: one harmonic tone segment per character.

    Speaker sets base F0 and timbre; emotion sets the F0 multiplier, the
    pitch contour across the utterance and the amplitude. Spaces and
    periods render as silence. Deterministic, no RNG involved.

    Characters of one segment length render together, one row per distinct
    F0, rows in ascending F0 so that those a partial reaches are a prefix.
    Each sample takes the same float64 operations, in the same order, as a
    loop rendering one character at a time: the bytes do not depend on
    the batching.
    """
    if not text:
        raise DataError("cannot render empty text")
    if not 0 <= emotion < len(EMOTIONS):
        raise DataError("emotion class %d is not in 0..%d" % (emotion, len(EMOTIONS) - 1))
    if not 0 <= speaker < len(_SPEAKER_F0):
        raise DataError("speaker id %d is not in 0..%d" % (speaker, len(_SPEAKER_F0) - 1))

    mult, contour, amp = _EMOTION_RENDER[EMOTIONS[emotion]]
    f0 = _SPEAKER_F0[speaker]
    alpha, max_h, step = _SPEAKER_TIMBRE[speaker]
    parts = [(h, h ** -alpha) for h in range(1, max_h + 1, step)]
    total_amp = sum(a for _, a in parts)

    starts = np.cumsum([0] + [char_frames(ch) * HOP for ch in text])
    out = np.zeros(starts[-1])  # spaces and periods stay silent
    by_length = {}  # segment length -> [(f, character index)]
    for k, ch in enumerate(text):
        if ch not in " .":
            p = k / max(1, len(text) - 1)
            # per-character pitch offset keeps different texts spectrally distinct
            f = f0 * mult * contour(p) * 2.0 ** ((ord(ch) - ord("m")) / 52.0)
            by_length.setdefault(starts[k + 1] - starts[k], []).append((f, k))
    fade = int(0.008 * SAMPLE_RATE)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
    for n, chars in by_length.items():
        f, row_of = np.unique([fk for fk, _ in chars], return_inverse=True)
        t = np.arange(n) / SAMPLE_RATE
        seg, tone = np.zeros((len(f), n)), np.empty((len(f), n))
        for h, a in parts:
            m = np.count_nonzero(f * h < 7600.0)  # keep partials below Nyquist
            np.multiply((2.0 * np.pi * f[:m] * h)[:, None], t, out=tone[:m])
            np.sin(tone[:m], out=tone[:m])
            tone[:m] *= a / total_amp
            seg[:m] += tone[:m]
        seg[:, :fade] *= ramp
        seg[:, -fade:] *= ramp[::-1]
        seg *= amp
        for r, (_, k) in zip(row_of, chars):
            out[starts[k]:starts[k + 1]] = seg[r]
    return Waveform(samples=out)


def class_directions(rng, n_classes, dim):
    """Orthonormal class centroid directions via Gram-Schmidt on Gaussian draws."""
    dirs = np.zeros((n_classes, dim))
    for c in range(n_classes):
        v = rng.standard_normal(dim)
        for prev in dirs[:c]:
            v = v - (v @ prev) * prev
        dirs[c] = v / np.linalg.norm(v)
    return dirs


def gen_corpus(config, out_dir):
    """Generate the corpus under out_dir: wav/*.wav plus manifest.jsonl.

    Feature vectors are inlined in the manifest. Byte-identical output for
    identical configs.
    """
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)

    modalities = ("vis", "audio", "text")
    centers = {
        mu: SEPARATION * class_directions(rng_stream(config.seed, "datagen:dirs:" + mu),
                                          config.n_classes, FEATURE_DIM)
        for mu in modalities
    }
    feat_rng = {mu: rng_stream(config.seed, "datagen:feats:" + mu) for mu in modalities}

    utts = []
    for c in range(config.n_classes):
        for s in range(config.samples_per_class):
            idx = c * config.samples_per_class + s
            speaker = s % config.n_speakers
            text = _TEXT_POOL[(s // config.n_speakers) % len(_TEXT_POOL)]
            feats = {
                mu: centers[mu][c] + NOISE_STD * feat_rng[mu].standard_normal(FEATURE_DIM)
                for mu in modalities
            }
            utt_id = "utt_%05d" % idx
            wav_path = os.path.join(wav_dir, utt_id + ".wav")
            wav_write(wav_path, render_reference(text, c, speaker))
            utts.append(Utterance(
                id=utt_id, text=text, emotion=c, speaker=speaker, wav_path=wav_path,
                durations=text_durations(text),
                feat_vis=feats["vis"], feat_audio=feats["audio"], feat_text=feats["text"],
            ))

    with open(os.path.join(out_dir, "manifest.jsonl"), "w") as f:
        for u in utts:
            f.write(json.dumps({
                "id": u.id, "text": u.text, "emotion": u.emotion, "speaker": u.speaker,
                "wav": os.path.join("wav", os.path.basename(u.wav_path)), "durations": u.durations,
                "feat_vis": u.feat_vis.tolist(),
                "feat_audio": u.feat_audio.tolist(),
                "feat_text": u.feat_text.tolist(),
            }) + "\n")
    return utts


_MANIFEST = {"id": "str", "text": "str", "emotion": "int", "speaker": "int", "wav": "str",
             "durations": "ints", "feat_vis": "nums", "feat_audio": "nums", "feat_text": "nums"}


def load_manifest(path):
    want = None  # feature shapes of the first line; every line must match them

    def utterance(row, where):
        nonlocal want
        fields = {k: field(row, k, kind, where) for k, kind in _MANIFEST.items()}
        u = Utterance(wav_path=os.path.join(os.path.dirname(path), fields.pop("wav")), **fields)
        shapes = [u.feat_vis.shape, u.feat_audio.shape, u.feat_text.shape]
        want = want or shapes
        if shapes != want or (0,) in shapes:
            raise FormatError("%s: feature shapes %s, want non-empty vectors shaped as on the "
                              "first line %s" % (where, shapes, want))
        return u

    utts = read(path, utterance)
    if not utts:
        raise FormatError("empty manifest: %s" % path)
    return utts
