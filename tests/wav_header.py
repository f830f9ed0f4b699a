"""Give a WAV file another sample rate. wav_write writes only 16 kHz, so the
tests of every other rate rewrite the header that it wrote."""

import struct


def set_sample_rate(path, rate):
    """Rewrite bytes 24-31 of a WAV with wav_write's 44-byte header: the sample
    rate and the byte rate of its mono 16-bit PCM."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<II", blob, 24, rate, rate * 2)
    path.write_bytes(bytes(blob))
