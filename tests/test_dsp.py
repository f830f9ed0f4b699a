"""Tests for the signal-processing layer.

Expected values are computed from first principles in the test body (direct
DCT summation, per-frame Parseval sums, bin arithmetic) rather than recorded
from the implementation under test. The vectorized STFT/iSTFT are held
to the plain per-frame loops they replaced, kept here as oracles, and the
float32 log-mel analysis and Griffin-Lim rounds to the float64 code they
replaced.
"""

import hashlib
import struct

import numpy as np
import pytest

from emoforge import dsp, metrics
from emoforge.datagen import CorpusConfig, gen_corpus, render_reference
from emoforge.dsp import (
    HOP,
    LOG_FLOOR,
    MEL_FILTERBANK,
    N_FFT,
    N_MELS,
    WINDOW,
    MelSpectrogram,
    Waveform,
    griffin_lim,
    istft,
    mel_cepstra,
    mel_spectrogram,
    mel_to_linear,
    stft,
    wav_read,
    wav_write,
)
from emoforge.errors import FormatError, InvalidInputError, ShapeError
from emoforge.numeric import rng_stream
from wav_header import set_sample_rate


def _noise_wave(seed_name, n=16000, amp=0.4):
    rng = rng_stream(7, seed_name)
    return Waveform(samples=amp * rng.standard_normal(n) / 3.0)


# -- WAV I/O ---------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    rng = rng_stream(7, "wav")
    w = Waveform(samples=rng.uniform(-1.0, 1.0, 5000))
    path = tmp_path / "a.wav"
    wav_write(path, w)
    back = wav_read(path)
    assert back.samples.shape == (5000,)
    # 16-bit quantization with symmetric 1/32768 scaling
    assert np.max(np.abs(back.samples - w.samples)) <= 2.0 ** -15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wav_write_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "a.wav"
    with pytest.raises(InvalidInputError, match="non-finite"):
        wav_write(path, Waveform(samples=np.array([0.1, bad, 0.2])))
    assert not path.exists()


def test_wav_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"JUNK" + b"\x00" * 40)
    with pytest.raises(FormatError) as e:
        wav_read(path)
    assert e.value.offset == 0
    assert str(e.value) == "%s: missing RIFF magic (byte offset 0)" % path  # names the file


def test_wav_rejects_missing_wave_tag(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 36) + b"XXXX" + b"\x00" * 28)
    with pytest.raises(FormatError) as e:
        wav_read(path)
    assert e.value.offset == 8


def test_wav_rejects_stereo_and_nonpcm(tmp_path):
    def header(audio_format, channels):
        return struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 40, b"WAVE",
            b"fmt ", 16, audio_format, channels, 16000, 64000, 4, 16,
            b"data", 4,
        ) + b"\x00" * 4

    stereo = tmp_path / "stereo.wav"
    stereo.write_bytes(header(1, 2))
    with pytest.raises(FormatError, match="mono"):
        wav_read(stereo)

    nonpcm = tmp_path / "float.wav"
    nonpcm.write_bytes(header(3, 1))
    with pytest.raises(FormatError, match="PCM"):
        wav_read(nonpcm)


def test_wav_rejects_zero_sample_rate(tmp_path):
    path = tmp_path / "0hz.wav"
    wav_write(path, Waveform(samples=np.zeros(100)))
    set_sample_rate(path, 0)
    with pytest.raises(FormatError, match="0 Hz") as e:
        wav_read(path)
    assert e.value.offset == 24


@pytest.mark.parametrize("rate", [15999, 16001, 22050])
def test_wav_rejects_every_rate_but_16_khz(tmp_path, rate):
    # 16 kHz is the package's one rate: the mel bands of any other would not be synthesis's
    path = tmp_path / "utt.wav"
    wav_write(path, Waveform(samples=np.zeros(100)))
    set_sample_rate(path, rate)
    with pytest.raises(FormatError) as e:
        wav_read(path)
    assert e.value.offset == 24
    assert str(e.value) == "%s: %d Hz, not 16000 Hz (byte offset 24)" % (path, rate)


# id, {byte offset: new bytes} written over a 100-sample wav_write file (a 44-byte
# header, then 200 data bytes), the bytes kept, and the refusal's offset and message
WAV_REFUSALS = [
    ("fmt-under-16-bytes", {16: struct.pack("<I", 14)}, 244, 16, "fmt chunk too small"),
    ("8-bit", {34: struct.pack("<H", 8)}, 244, 34, "8-bit samples unsupported (16-bit only)"),
    ("no-fmt-chunk", {12: b"junk"}, 244, 244, "no fmt chunk found"),
    ("no-data-chunk", {36: b"junk"}, 244, 244, "no data chunk found"),
    ("odd-data-length", {40: struct.pack("<I", 199)}, 244, 243, "odd data chunk length"),
    ("empty-data-chunk", {40: struct.pack("<I", 0)}, 44, 44, "empty data chunk"),
]


@pytest.mark.parametrize("edits, kept, offset, what", [c[1:] for c in WAV_REFUSALS],
                         ids=[c[0] for c in WAV_REFUSALS])
def test_wav_refusal_names_the_file_and_offset(tmp_path, edits, kept, offset, what):
    path = tmp_path / "utt.wav"
    wav_write(path, Waveform(samples=np.zeros(100)))
    blob = bytearray(path.read_bytes())
    assert len(blob) == 244
    for at, new in edits.items():
        blob[at:at + len(new)] = new
    path.write_bytes(bytes(blob[:kept]))
    with pytest.raises(FormatError) as e:
        wav_read(path)
    assert e.value.offset == offset
    assert str(e.value) == "%s: %s (byte offset %d)" % (path, what, offset)


def test_wav_rejects_truncated(tmp_path):
    path = tmp_path / "t.wav"
    wav_write(path, Waveform(samples=np.zeros(100)))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 50])
    with pytest.raises(FormatError) as e:
        wav_read(path)
    assert e.value.offset is not None


# -- STFT / ISTFT ----------------------------------------------------------

def _stft_oracle(x):
    """One gathered row of samples per frame (the fancy-index STFT)."""
    x = np.pad(np.asarray(x, dtype=np.float64), N_FFT // 2, mode="reflect")
    n_frames = 1 + (x.size - N_FFT) // HOP
    idx = np.arange(N_FFT)[None, :] + HOP * np.arange(n_frames)[:, None]
    return np.fft.rfft(x[idx] * WINDOW[None, :], axis=1)


def _istft_oracle(spec):
    """Overlap-add one frame at a time, frames in increasing t."""
    frames = np.fft.irfft(spec, n=N_FFT, axis=1)
    total = N_FFT + HOP * (frames.shape[0] - 1)
    out, wsum = np.zeros(total), np.zeros(total)
    for t in range(frames.shape[0]):
        out[t * HOP:t * HOP + N_FFT] += frames[t] * WINDOW
        wsum[t * HOP:t * HOP + N_FFT] += WINDOW * WINDOW
    out = out / np.where(wsum > 1e-12, wsum, 1.0)
    return out[N_FFT // 2:total - N_FFT // 2]


def _random_spectrum(n_frames):
    rng = rng_stream(7, "spec%d" % n_frames)
    shape = (n_frames, N_FFT // 2 + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n_frames", [1, 2, 3, 4, 5, 89, 400, 800])
def test_istft_bits_match_frame_loop(n_frames):
    spec = _random_spectrum(n_frames)
    assert np.array_equal(istft(spec), _istft_oracle(spec))


def test_istft_interleaved_lengths_match_frame_loop():
    # a denominator kept for one frame count must never answer for another
    for n_frames in (89, 5, 89, 1, 400, 89):
        spec = _random_spectrum(n_frames)
        assert np.array_equal(istft(spec), _istft_oracle(spec))


@pytest.mark.parametrize("n", [257, 258, 511, 512, 513])
def test_stft_bits_match_gather(n):
    x = _noise_wave("gather%d" % n, n=n).samples
    assert np.array_equal(stft(x), _stft_oracle(x))


def test_stft_sine_peak_bin():
    # 1 kHz at 16 kHz with n_fft=512 lands exactly on bin 1000/16000*512 = 32
    t = np.arange(16000) / 16000.0
    w = Waveform(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t))
    spec = np.abs(stft(w.samples))
    interior = spec[10:-10]
    assert np.all(np.argmax(interior, axis=1) == 32)


def test_stft_frame_count():
    w = _noise_wave("frames", n=16000)
    assert stft(w.samples).shape == (1 + 16000 // HOP, N_FFT // 2 + 1)


def test_stft_round_trip_exact_multiple():
    w = _noise_wave("rt", n=4096)
    out = istft(stft(w.samples))
    assert out.size == 4096
    assert np.max(np.abs(out - w.samples)) < 1e-6


def test_stft_round_trip_sine_with_padding():
    t = np.arange(5000) / 16000.0
    x = 0.3 * np.sin(2 * np.pi * 440.0 * t)
    out = istft(stft(x))
    # the last partial hop starts no frame, so only whole hops come back
    covered = (5000 // HOP) * HOP
    assert out.size == covered
    assert np.max(np.abs(out - x[:covered])) < 1e-6


def test_float32_keeps_its_precision():
    x = _noise_wave("f32", n=4096).samples.astype(np.float32)
    spec = stft(x)
    assert spec.dtype == np.complex64
    out = istft(spec)
    assert out.dtype == np.float32
    assert np.max(np.abs(out - x)) < 1e-5
    # anything else is float64, as before
    assert stft(x.astype(np.float16)).dtype == np.complex128
    assert istft(spec.astype(np.complex128)).dtype == np.float64


def test_stft_too_short_raises():
    with pytest.raises(InvalidInputError):
        stft(np.zeros(100) + 0.1)


def test_istft_rejects_wrong_width():
    with pytest.raises(ShapeError):
        istft(np.zeros((10, 100), dtype=complex))


def test_stft_parseval_per_frame():
    w = _noise_wave("parseval", n=4096)
    spec = stft(w.samples)
    # periodic Hann, written out here rather than read back from the module
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
    assert np.array_equal(WINDOW, win) and not WINDOW.flags.writeable
    x = np.pad(w.samples, N_FFT // 2, mode="reflect")
    weights = np.full(N_FFT // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    for t in range(spec.shape[0]):
        frame = x[t * HOP:t * HOP + N_FFT] * win
        lhs = np.sum(weights * np.abs(spec[t]) ** 2)
        rhs = N_FFT * np.sum(frame ** 2)
        assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1.0)


# -- mel filterbank and spectrogram -----------------------------------------

def test_filterbank_covers_every_bin():
    fb = MEL_FILTERBANK
    assert fb.shape == (N_MELS, N_FFT // 2 + 1)
    assert np.all(fb >= 0.0)
    # every bin from 0 Hz through Nyquist (= fmax) gets weight somewhere
    assert np.all(fb.sum(axis=0) > 0.0)


def test_filterbank_peaks_are_ordered():
    fb = MEL_FILTERBANK
    peaks = np.argmax(fb, axis=1)
    assert np.all(np.diff(peaks) >= 1)


def test_mel_amplitude_doubling_adds_log4():
    w = _noise_wave("double")
    m1 = mel_spectrogram(w)
    m2 = mel_spectrogram(Waveform(samples=2.0 * w.samples))
    diff = m2.frames - m1.frames
    assert np.max(np.abs(diff - np.log(4.0))) < 1e-6


def test_mel_spectrogram_shape_and_determinism():
    w = _noise_wave("shape", n=16000)
    m = mel_spectrogram(w)
    assert m.frames.shape == (126, N_MELS)
    again = mel_spectrogram(w)
    assert np.array_equal(m.frames, again.frames)


# -- the float32 analysis against the float64 one it replaced ------------------

def _mel_oracle(w):
    """The float64 analysis: np.fft STFT, power and filterbank, as before the
    float32 one. Returns the MelSpectrogram and its mel power."""
    mel_power = np.abs(stft(w.samples)) ** 2 @ MEL_FILTERBANK.T
    return MelSpectrogram(frames=np.log(mel_power + LOG_FLOOR)), mel_power


@pytest.fixture(scope="module")
def corpus_waves(tmp_path_factory):
    """The 16-bit WAVs of a seeded 24-utterance corpus, as wav_read returns them."""
    utts = gen_corpus(CorpusConfig(n_classes=3, n_speakers=2, samples_per_class=8, seed=11),
                      tmp_path_factory.mktemp("mel-corpus"))
    return [wav_read(u.wav_path) for u in utts]


def test_every_16_bit_pcm_value_survives_the_float32_cast(tmp_path):
    codes = np.arange(-32768, 32768)
    wav_write(tmp_path / "all.wav", Waveform(samples=codes / 32768.0))
    x = wav_read(tmp_path / "all.wav").samples
    assert np.array_equal(x * 32768.0, codes)
    assert np.array_equal(x.astype(np.float32).astype(np.float64), x)


def test_float32_log_mel_matches_the_float64_oracle(corpus_waves):
    # renders are not quantized, so their cast rounds at 2^-24; the WAVs' is exact.
    # Near LOG_FLOOR float32 power keeps less relative precision, so cells with
    # float64 mel power >= 1e-6 (39% of these; most of the rest are bands the
    # renders leave empty) are held to 1e-3 and the rest only to 5e-2.
    waves = [render_reference(*ref) for ref in GL_REFERENCES] + corpus_waves
    gated = total = 0
    for w in waves:
        got = mel_spectrogram(w).frames
        want, mel_power = _mel_oracle(w)
        audible = mel_power >= 1e-6
        error = np.abs(got - want.frames)
        assert np.max(error[audible]) <= 1e-3 and np.max(error) <= 5e-2
        gated, total = gated + audible.sum(), total + audible.size
    assert gated >= total / 4, gated / total


def test_float32_analysis_moves_mcd_and_secs_by_rounding_only(corpus_waves, monkeypatch):
    pairs = list(zip(corpus_waves, corpus_waves[1:] + corpus_waves[:1]))
    assert len(pairs) >= 20
    got = [(metrics.mcd(a, b), metrics.secs(a, b)) for a, b in pairs]
    monkeypatch.setattr(metrics, "mel_spectrogram", lambda w: _mel_oracle(w)[0])
    want = [(metrics.mcd(a, b), metrics.secs(a, b)) for a, b in pairs]
    d_mcd, d_secs = np.abs(np.array(got) - np.array(want)).max(axis=0)
    assert d_mcd <= 2e-3 and d_secs <= 1e-5, (d_mcd, d_secs)


# -- mel cepstra -------------------------------------------------------------

def test_mel_cepstra_matches_direct_dct_sum():
    rng = rng_stream(7, "dct")
    frames = rng.standard_normal((5, 8))
    got = mel_cepstra(MelSpectrogram(frames=frames))
    n = 8
    for t in range(5):
        for k in range(n):
            scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
            ref = scale * sum(
                frames[t, j] * np.cos(np.pi * k * (2 * j + 1) / (2.0 * n)) for j in range(n)
            )
            assert abs(got[t, k] - ref) < 1e-10


def test_mel_cepstra_bits_match_legacy_fftpack_dct():
    # MCD golden values rest on these bits; a scipy change to either DCT shows here
    from scipy.fftpack import dct as legacy_dct

    m = mel_spectrogram(_noise_wave("cepstra"))
    assert np.array_equal(mel_cepstra(m), legacy_dct(m.frames, type=2, norm="ortho", axis=1))


def test_gain_change_moves_only_c0():
    w = _noise_wave("gain")
    c1 = mel_cepstra(mel_spectrogram(w))
    c2 = mel_cepstra(mel_spectrogram(Waveform(samples=1.5 * w.samples)))
    diff = c2 - c1
    # a uniform log-power shift is carried entirely by the DCT DC term
    assert np.max(np.abs(diff[:, 1:])) < 1e-6
    expected_c0 = np.sqrt(N_MELS) * 2.0 * np.log(1.5)
    assert np.max(np.abs(diff[:, 0] - expected_c0)) < 1e-4


# -- Griffin-Lim -------------------------------------------------------------

def _gl_target():
    t = np.arange(8192) / 16000.0
    rng = rng_stream(7, "gl")
    x = 0.25 * np.sin(2 * np.pi * 330.0 * t) + 0.05 * rng.standard_normal(t.size)
    return mel_spectrogram(Waveform(samples=x))


def test_griffin_lim_residual_non_increasing(monkeypatch):
    m = _gl_target()
    mag = mel_to_linear(m)
    residuals = []
    for rounds in (1, 2, 4, 8, 16):
        monkeypatch.setattr(dsp, "GL_ROUNDS", rounds)
        w = griffin_lim(m)
        rebuilt = np.abs(stft(w.samples))
        residuals.append(np.linalg.norm(mag - rebuilt) / np.linalg.norm(mag))
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-9


def test_griffin_lim_deterministic_and_sized(monkeypatch):
    m = _gl_target()
    monkeypatch.setattr(dsp, "GL_ROUNDS", 4)
    w1 = griffin_lim(m)
    w2 = griffin_lim(m)
    assert np.array_equal(w1.samples, w2.samples)
    assert w1.samples.size == (m.frames.shape[0] - 1) * HOP


def test_mel_pinv_is_computed_once_and_read_only():
    pinv_t = dsp._mel_pinv_t()
    assert dsp._mel_pinv_t() is pinv_t
    assert pinv_t.shape == MEL_FILTERBANK.shape
    with pytest.raises(ValueError):
        pinv_t[0, 0] = 1.0


# SHA-256 of griffin_lim(mel_spectrogram(render_reference(...))).samples,
# re-recorded when the rounds moved to float32 and again when the mel analysis
# did (a3106079..., da04a7e6..., f2c97c11..., d0ff8a96..., e18d4756... before);
# (text, emotion, speaker) gives 14, 58, 68, 202 and 270 frames.
PINNED_GRIFFIN_LIM_SHA256 = {
    ("a.", 0, 0): "298034f0a8e1d425dffad49483f57296e240c6e12b8ec239c80647ba9d93eae9",
    ("hi there.", 1, 1): "1389dbe399a01e7382fc2adb7c6bfb714c5050bf33d85e6d3582b6d157f5fef2",
    ("we dig mud.", 2, 0): "0204c42af00078a0f82ede5cc8d3d5a12a0eef2ad395605f83eb85e1a0fe82ed",
    ("pack my box with five dozen jugs.", 3, 1):
        "1a4327417f3788ef251b0d6b562b7a4e54bb2f601d516c30789f970861b7ec57",
    ("the quick brown fox jumps over the lazy dog.", 4, 1):
        "bd491c350e0c9778ec19da181debae98f402dd0c6baa5dd7f6865b82c799815b",
}


@pytest.mark.parametrize("ref", sorted(PINNED_GRIFFIN_LIM_SHA256))
def test_griffin_lim_bits_pinned(ref):
    w = griffin_lim(mel_spectrogram(render_reference(*ref)))
    assert hashlib.sha256(w.samples.tobytes()).hexdigest() == PINNED_GRIFFIN_LIM_SHA256[ref]


def _griffin_lim_oracle(m, iters=32):
    """The float64 Griffin-Lim loop that the float32 rounds replaced. Its
    float64 stft/istft run on np.fft, held bit for bit to the loops above."""
    mag = mel_to_linear(m)
    x = istft(mag.astype(np.complex128))
    for _ in range(iters):
        rebuilt = stft(x)
        rebuilt_mag = np.abs(rebuilt)
        phase = rebuilt / np.maximum(rebuilt_mag, 1e-16)
        phase[~(rebuilt_mag > 0)] = 1.0
        x = istft(mag * phase)
    return np.clip(x, -1.0, 1.0)


_GL_TEXTS = ("the quick brown fox jumps over the lazy dog.", "pack my box with five dozen jugs.",
             "how vexingly quick daft zebras jump.", "bright vixens jump for joy.",
             "sphinx of black quartz judge my vow.", "waltz bad nymph.", "a.", "hi there.")
# 24 distinct (text, emotion, speaker) references of 14 to 270 frames
GL_REFERENCES = [(text, k % 5, k % 4) for k, text in enumerate(_GL_TEXTS * 3)]


def test_griffin_lim_converges_as_the_float64_loop():
    def convergence(x, m):
        target = mel_to_linear(m)
        return np.linalg.norm(np.abs(stft(x)) - target) / np.linalg.norm(target)

    ours, oracle = [], []
    for ref in GL_REFERENCES:
        m = mel_spectrogram(render_reference(*ref))
        ours.append(convergence(griffin_lim(m).samples, m))
        oracle.append(convergence(_griffin_lim_oracle(m), m))
    ours, oracle = np.array(ours), np.array(oracle)
    assert np.median(ours) <= np.median(oracle) * 1.001
    assert np.all(ours <= oracle * 1.02), (ours / oracle).max()
