"""The θ field of a checkpoint (formats 2 and 3): base64 of little-endian float64 bytes."""

import base64

import numpy as np


def decode_theta(text):
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").copy()


def encode_theta(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")
