"""Signal-processing substrate: WAV I/O, STFT/ISTFT, log-mel spectrograms,
mel cepstra and Griffin-Lim phase reconstruction.

All audio is mono float64 in [-1, 1]. Defaults (16 kHz, FFT 512, hop 128,
40 mel bands to 8 kHz, Hann window) are shared by the synthesis pipeline
and the evaluation metrics so that spectra line up without resampling.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct

from .errors import FormatError, InvalidInputError, ShapeError

SAMPLE_RATE = 16000
N_FFT = 512
HOP = 128
N_MELS = 40
FMIN = 0.0
FMAX = 8000.0
LOG_FLOOR = 1e-10


@dataclass
class Waveform:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise InvalidInputError("waveform must be a non-empty 1-D array")


@dataclass
class MelSpectrogram:
    frames: np.ndarray  # T x n_mels, log scale
    sample_rate: int
    hop: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise InvalidInputError("mel spectrogram needs at least one T x n_mels frame")


# ---------------------------------------------------------------------------
# WAV I/O (RIFF, PCM 16-bit, mono)
# ---------------------------------------------------------------------------

def wav_write(path, w):
    """Write a Waveform as mono 16-bit PCM. Samples are clipped to [-1, 1]."""
    s = np.clip(w.samples, -1.0, 1.0)
    q = np.clip(np.rint(s * 32768.0), -32768, 32767).astype("<i2")
    payload = q.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, w.sample_rate, w.sample_rate * 2, 2, 16,
        b"data", len(payload),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def wav_read(path):
    """Read a mono 16-bit PCM WAV file.

    Raises FormatError (with the byte offset of the problem) on malformed
    headers, truncated chunks, non-PCM encodings or stereo files.
    """
    with open(path, "rb") as f:
        blob = f.read()

    def need(n, offset, what):
        if offset + n > len(blob):
            raise FormatError("truncated file while reading %s" % what, offset=offset)

    need(12, 0, "RIFF header")
    if blob[0:4] != b"RIFF":
        raise FormatError("missing RIFF magic", offset=0)
    if blob[8:12] != b"WAVE":
        raise FormatError("missing WAVE tag", offset=8)

    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        need(size, pos + 8, "chunk %r" % cid)
        body = blob[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if size < 16:
                raise FormatError("fmt chunk too small", offset=pos + 4)
            audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            if audio_format != 1:
                raise FormatError("unsupported encoding %d (PCM only)" % audio_format, offset=pos + 8)
            if channels != 1:
                raise FormatError("%d channels unsupported (mono only)" % channels, offset=pos + 10)
            if bits != 16:
                raise FormatError("%d-bit samples unsupported (16-bit only)" % bits, offset=pos + 22)
            fmt = rate
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise FormatError("no fmt chunk found", offset=pos)
    if data is None:
        raise FormatError("no data chunk found", offset=pos)
    if len(data) % 2:
        raise FormatError("odd data chunk length", offset=len(blob) - 1)
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    if samples.size == 0:
        raise FormatError("empty data chunk", offset=len(blob))
    return Waveform(samples=samples, sample_rate=fmt)


# ---------------------------------------------------------------------------
# STFT / ISTFT
# ---------------------------------------------------------------------------

def hann_window(n):
    # Periodic Hann: satisfies COLA at hop = n/4, unlike the symmetric variant.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(w, n_fft=N_FFT, hop=HOP, window=None):
    """Short-time Fourier transform with centered frames.

    The signal is reflect-padded by n_fft//2 on both sides, so frame t is
    centered on sample t*hop. Returns a complex (T, n_fft//2 + 1) array with
    T = 1 + (padded_length - n_fft) // hop.
    """
    if n_fft & (n_fft - 1):
        raise InvalidInputError("n_fft must be a power of two")
    if hop > n_fft:
        raise InvalidInputError("hop must not exceed n_fft")
    x = w.samples if isinstance(w, Waveform) else np.asarray(w, dtype=np.float64)
    pad = n_fft // 2
    if x.size <= pad:
        raise InvalidInputError("signal too short: %d samples < %d" % (x.size, pad + 1))
    win = hann_window(n_fft) if window is None else np.asarray(window, dtype=np.float64)
    x = np.pad(x, pad, mode="reflect")
    n_frames = 1 + (x.size - n_fft) // hop
    idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
    return np.fft.rfft(x[idx] * win[None, :], axis=1)


def istft(spec, n_fft=N_FFT, hop=HOP, window=None, length=None):
    """Inverse STFT by windowed overlap-add with squared-window normalization.

    Returns (T - 1) * hop samples (the center padding added by `stft` is
    trimmed); pass `length` to trim or zero-pad to an exact sample count.
    """
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[1] != n_fft // 2 + 1:
        raise ShapeError("expected (T, %d) spectrogram, got %s" % (n_fft // 2 + 1, spec.shape))
    win = hann_window(n_fft) if window is None else np.asarray(window, dtype=np.float64)
    frames = np.fft.irfft(spec, n=n_fft, axis=1)
    n_frames = frames.shape[0]
    total = n_fft + hop * (n_frames - 1)
    out = np.zeros(total)
    wsum = np.zeros(total)
    for t in range(n_frames):
        start = t * hop
        out[start:start + n_fft] += frames[t] * win
        wsum[start:start + n_fft] += win * win
    out = out / np.where(wsum > 1e-12, wsum, 1.0)
    pad = n_fft // 2
    out = out[pad:total - pad]
    if length is not None:
        if out.size >= length:
            out = out[:length]
        else:
            out = np.pad(out, (0, length - out.size))
    return out


# ---------------------------------------------------------------------------
# Mel filterbank and spectrogram
# ---------------------------------------------------------------------------

def _hz_to_mel(f):
    # Slaney scale: linear below 1 kHz, logarithmic above.
    f = np.asarray(f, dtype=np.float64)
    mel = f / (200.0 / 3.0)
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0) / (np.log(6.4) / 27.0), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = m * (200.0 / 3.0)
    log_region = m >= 15.0
    return np.where(log_region, 1000.0 * np.exp((m - 15.0) * (np.log(6.4) / 27.0)), f)


@lru_cache(maxsize=8)
def mel_filterbank(n_mels=N_MELS, n_fft=N_FFT, sample_rate=SAMPLE_RATE, fmin=FMIN, fmax=FMAX):
    """Triangular mel filterbank, (n_mels, n_fft//2 + 1), area-normalized.

    The first and last triangles are widened by one half-step so the bins at
    exactly fmin and fmax keep nonzero weight; every FFT bin inside
    [fmin, fmax] is covered by at least one filter.
    """
    pts = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2))
    freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((n_mels, freqs.size))
    for i in range(n_mels):
        lo, peak, hi = pts[i], pts[i + 1], pts[i + 2]
        if i == 0:
            lo = 2.0 * pts[0] - pts[1]
        if i == n_mels - 1:
            hi = 2.0 * pts[n_mels + 1] - pts[n_mels]
        rising = (freqs - lo) / (peak - lo)
        falling = (hi - freqs) / (hi - peak)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    return fb


def mel_spectrogram(w, n_fft=N_FFT, hop=HOP, n_mels=N_MELS, fmin=FMIN, fmax=FMAX):
    """Log-mel spectrogram: log(mel_fb @ |STFT|^2 + floor), shape (T, n_mels)."""
    if not isinstance(w, Waveform):
        raise InvalidInputError("mel_spectrogram expects a Waveform")
    spec = stft(w, n_fft=n_fft, hop=hop)
    power = np.abs(spec) ** 2
    fb = mel_filterbank(n_mels, n_fft, w.sample_rate, fmin, fmax)
    frames = np.log(power @ fb.T + LOG_FLOOR)
    return MelSpectrogram(frames=frames, sample_rate=w.sample_rate, hop=hop)


def mel_cepstra(m, n_coeffs):
    """Mel cepstra: orthonormal DCT-II over the mel bands of each frame,
    truncated to the first n_coeffs coefficients (c0 included)."""
    frames = m.frames if isinstance(m, MelSpectrogram) else np.asarray(m, dtype=np.float64)
    if n_coeffs > frames.shape[1]:
        raise ShapeError("n_coeffs %d exceeds %d mel bands" % (n_coeffs, frames.shape[1]))
    return dct(frames, type=2, norm="ortho", axis=1)[:, :n_coeffs]


# ---------------------------------------------------------------------------
# Griffin-Lim
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _mel_pinv(n_mels, n_fft, sample_rate, fmin, fmax):
    return np.linalg.pinv(mel_filterbank(n_mels, n_fft, sample_rate, fmin, fmax))


def mel_to_linear(m, n_fft=N_FFT):
    """Approximate linear-magnitude spectrogram from a log-mel spectrogram
    via the filterbank pseudo-inverse (negative leakage clipped to zero)."""
    mel_power = np.maximum(np.exp(m.frames) - LOG_FLOOR, 0.0)
    pinv = _mel_pinv(m.frames.shape[1], n_fft, m.sample_rate, FMIN, FMAX)
    linear_power = np.maximum(mel_power @ pinv.T, 0.0)
    return np.sqrt(linear_power)


def griffin_lim(m, iters=32, n_fft=N_FFT):
    """Reconstruct a waveform from a log-mel spectrogram.

    Zero-phase initialization followed by `iters` magnitude-projection
    rounds; fully deterministic. Output length is (T - 1) * hop.
    """
    if iters < 1:
        raise InvalidInputError("iters must be >= 1")
    mag = mel_to_linear(m, n_fft=n_fft)
    hop = m.hop
    spec = mag.astype(np.complex128)  # zero phase
    x = istft(spec, n_fft=n_fft, hop=hop)
    for _ in range(iters):
        rebuilt = stft(x, n_fft=n_fft, hop=hop)
        phase = np.where(np.abs(rebuilt) > 0, rebuilt / np.maximum(np.abs(rebuilt), 1e-16), 1.0)
        x = istft(mag * phase, n_fft=n_fft, hop=hop)
    return Waveform(samples=np.clip(x, -1.0, 1.0), sample_rate=m.sample_rate)
