"""Signal-processing substrate: WAV I/O, STFT/ISTFT, log-mel spectrograms,
mel cepstra and Griffin-Lim phase reconstruction.

All audio is mono float64 in [-1, 1] at SAMPLE_RATE (16 kHz), the only rate:
`wav_read` refuses any other. Griffin-Lim's rounds and the mel STFT and
filterbank run in float32. One fixed front end (FFT 512, hop 128, periodic Hann
window, 40 mel bands to 8 kHz) serves synthesis and the metrics.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.fft import dct, irfft, rfft

from .errors import DataError, FormatError

SAMPLE_RATE = 16000
N_FFT = 512
HOP = 128
N_MELS = 40
FMIN = 0.0
FMAX = 8000.0
LOG_FLOOR = 1e-10
# Periodic Hann: satisfies COLA at hop = N_FFT/4, unlike the symmetric variant.
WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
WINDOW.flags.writeable = False
_WINDOW32 = WINDOW.astype(np.float32)


@dataclass
class Waveform:
    samples: np.ndarray  # float64 in [-1, 1], at SAMPLE_RATE


@dataclass
class MelSpectrogram:
    frames: np.ndarray  # T x n_mels float64, log scale


# ---------------------------------------------------------------------------
# WAV I/O (RIFF, PCM 16-bit, mono, SAMPLE_RATE: the package's one audio format)
# ---------------------------------------------------------------------------

def wav_write(path, w):
    """Write a Waveform as mono 16-bit PCM at SAMPLE_RATE. Samples are clipped to [-1, 1];
    a non-finite sample raises DataError before the file is opened."""
    if not np.isfinite(w.samples).all():
        raise DataError("cannot write non-finite samples to %s" % path)
    s = np.clip(w.samples, -1.0, 1.0)  # the one copy; quantized in place
    s *= 32768.0
    np.rint(s, out=s)
    payload = np.clip(s, -32768, 32767, out=s).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16,
        b"data", len(payload),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def wav_read(path):
    """Read a mono 16-bit PCM WAV file at SAMPLE_RATE.

    Raises FormatError naming the file and the byte offset of the problem on a
    malformed header, truncated chunk, non-PCM encoding, stereo file or other rate.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except ValueError as e:  # a path holding a NUL byte
        raise FormatError("cannot open %r: %s" % (path, e))

    def bad(what, offset):
        return FormatError("%s: %s" % (path, what), offset=offset)

    def need(n, offset, what):
        if offset + n > len(blob):
            raise bad("truncated file while reading %s" % what, offset)

    need(12, 0, "RIFF header")
    if blob[0:4] != b"RIFF":
        raise bad("missing RIFF magic", 0)
    if blob[8:12] != b"WAVE":
        raise bad("missing WAVE tag", 8)

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
                raise bad("fmt chunk too small", pos + 4)
            audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            if audio_format != 1:
                raise bad("unsupported encoding %d (PCM only)" % audio_format, pos + 8)
            if channels != 1:
                raise bad("%d channels unsupported (mono only)" % channels, pos + 10)
            if rate != SAMPLE_RATE:
                raise bad("%d Hz, not %d Hz" % (rate, SAMPLE_RATE), pos + 12)
            if bits != 16:
                raise bad("%d-bit samples unsupported (16-bit only)" % bits, pos + 22)
            fmt = body
        elif cid == b"data":
            data, data_at = body, pos + 4  # a bad length is reported at its size field
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise bad("no fmt chunk found", pos)
    if data is None:
        raise bad("no data chunk found", pos)
    if len(data) % 2:
        raise bad("odd data chunk length", data_at)
    if not data:
        raise bad("empty data chunk", data_at)
    return Waveform(samples=np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0)


# ---------------------------------------------------------------------------
# STFT / ISTFT
# ---------------------------------------------------------------------------

def stft(x):
    """Short-time Fourier transform of a 1-D sample array, with centered frames.

    The signal is reflect-padded by N_FFT//2 on both sides, so frame t is
    centered on sample t*HOP. Returns a complex (T, N_FFT//2 + 1) array with
    T = 1 + (padded_length - N_FFT) // HOP. float32 samples give complex64;
    any other input is float64 and gives complex128.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    pad = N_FFT // 2
    if x.size <= pad:
        raise DataError("signal too short: %d samples < %d" % (x.size, pad + 1))
    window = _WINDOW32 if x.dtype == np.float32 else WINDOW
    # np.pad(x, pad, mode="reflect") for x.size > pad, without its overhead
    x = np.concatenate((x[pad:0:-1], x, x[-2:-pad - 2:-1]))
    frames = as_strided(x, (1 + (x.size - N_FFT) // HOP, N_FFT), (HOP * x.itemsize, x.itemsize))
    return rfft(frames * window, axis=1)


def _overlap_add(frames):
    """Sum (T, N_FFT) frames HOP apart: block r of frame t lands on block t + r."""
    n_frames, overlap = frames.shape[0], N_FFT // HOP
    blocks = frames.reshape(n_frames, overlap, HOP)
    out = np.zeros((n_frames + overlap - 1, HOP), dtype=frames.dtype)
    for r in range(overlap - 1, -1, -1):  # r = 3..0: the order istft documents
        out[r:r + n_frames] += blocks[:, r]
    return out.ravel()


# One entry, for memory: each holds T * HOP floats and Griffin-Lim's rounds share one T.
@lru_cache(maxsize=1)
def _window_norm(n_frames, dtype):
    """istft's divisor: the squared-window overlap-add, 1 where it is ~0."""
    wsum = _overlap_add(np.broadcast_to(WINDOW * WINDOW, (n_frames, N_FFT)))
    norm = np.where(wsum > 1e-12, wsum, 1.0).astype(dtype)
    norm.flags.writeable = False
    return norm


def istft(spec):
    """Inverse STFT by windowed overlap-add with squared-window normalization.

    Returns (T - 1) * HOP samples: the center padding added by `stft` is
    trimmed. Each sample sums its frames in increasing t, as a per-frame
    loop does, so the bits match that loop; that is why `_overlap_add`
    adds the frames' blocks r = 3, 2, 1, 0 in that order. A complex64
    spectrum gives float32 samples, as in `stft`. Its one caller,
    `griffin_lim`, passes (T, N_FFT // 2 + 1) spectra.
    """
    frames = irfft(spec, n=N_FFT, axis=1)
    frames *= _WINDOW32 if spec.dtype == np.complex64 else WINDOW
    out = _overlap_add(frames)
    out /= _window_norm(frames.shape[0], frames.dtype)
    return out[N_FFT // 2:out.size - N_FFT // 2]


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


def _mel_filterbank():
    """Triangular mel filterbank, (N_MELS, N_FFT//2 + 1), area-normalized.

    The first and last triangles are widened by one half-step so the bins at
    exactly FMIN and FMAX keep nonzero weight; every FFT bin inside
    [FMIN, FMAX] is covered by at least one filter.
    """
    pts = _mel_to_hz(np.linspace(_hz_to_mel(FMIN), _hz_to_mel(FMAX), N_MELS + 2))
    freqs = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    fb = np.zeros((N_MELS, freqs.size))
    for i in range(N_MELS):
        lo, peak, hi = pts[i], pts[i + 1], pts[i + 2]
        if i == 0:
            lo = 2.0 * pts[0] - pts[1]
        if i == N_MELS - 1:
            hi = 2.0 * pts[N_MELS + 1] - pts[N_MELS]
        rising = (freqs - lo) / (peak - lo)
        falling = (hi - freqs) / (hi - peak)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    return fb


MEL_FILTERBANK = _mel_filterbank()
MEL_FILTERBANK.flags.writeable = False
_MEL_FB32_T = MEL_FILTERBANK.T.astype(np.float32)  # cast of the transposed view: gemm's layout


@lru_cache(maxsize=1)  # an SVD that only synthesis needs, so no other command pays for it
def _mel_pinv_t():
    pinv_t = np.linalg.pinv(MEL_FILTERBANK).T  # Griffin-Lim's way back to linear bins
    pinv_t.flags.writeable = False
    return pinv_t


def mel_spectrogram(w):
    """Log-mel spectrogram: log(mel_fb @ |STFT|^2 + floor), shape (T, N_MELS). The STFT,
    power and filterbank run in float32, whose cast is exact for 16-bit PCM since k/32768
    fits its 24-bit significand; floor and log stay float64, so a gain shifts all bands alike."""
    power = np.abs(stft(w.samples.astype(np.float32))) ** 2
    mel_power = power @ _MEL_FB32_T
    return MelSpectrogram(frames=np.log(mel_power.astype(np.float64) + LOG_FLOOR))


def mel_cepstra(m):
    """Mel cepstra: orthonormal DCT-II over the mel bands of each frame of a
    MelSpectrogram, one coefficient per band (c0 first)."""
    return dct(m.frames, type=2, norm="ortho", axis=1)


# ---------------------------------------------------------------------------
# Griffin-Lim
# ---------------------------------------------------------------------------

def mel_to_linear(m):
    """Approximate linear-magnitude spectrogram from a log-mel spectrogram
    via the filterbank pseudo-inverse (negative leakage clipped to zero)."""
    mel_power = np.maximum(np.exp(m.frames) - LOG_FLOOR, 0.0)
    linear_power = np.maximum(mel_power @ _mel_pinv_t(), 0.0)
    return np.sqrt(linear_power)


GL_ROUNDS = 32  # Griffin-Lim's magnitude-projection rounds


def griffin_lim(m):
    """Reconstruct a waveform from a log-mel spectrogram.

    Zero-phase initialization followed by GL_ROUNDS magnitude-projection
    rounds; fully deterministic. Output length is (T - 1) * HOP. The rounds
    run in float32: the output is 16-bit PCM, and float64 rounds reach the
    same spectral convergence in more time.
    """
    mag = mel_to_linear(m).astype(np.float32)
    x = istft(mag.astype(np.complex64))  # zero phase
    for _ in range(GL_ROUNDS):
        rebuilt = stft(x)
        rebuilt_mag = np.abs(rebuilt)
        none = ~(rebuilt_mag > 0)  # a bin with no phase to keep takes phase 0
        rebuilt[none], rebuilt_mag[none] = 1.0, 1.0
        # mag * rebuilt / |rebuilt|: a real division and a product in place cost less than
        # a complex division, and each fresh spectrum-sized temporary pays its page faults
        x = istft(np.multiply(rebuilt, mag / np.maximum(rebuilt_mag, 1e-16), out=rebuilt))
    return Waveform(samples=np.clip(x, -1.0, 1.0).astype(np.float64))
