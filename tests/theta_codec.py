"""The θ field of a format-2 checkpoint: base64 of little-endian float64 bytes."""

import base64

import numpy as np


def decode_theta(text):
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").copy()


def encode_theta(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")
