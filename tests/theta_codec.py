"""A checkpoint (formats EMITTS/4 and EPALIGN/5) as one dict: the fields of its
JSON header line, and "theta", the little-endian float64s of every byte after it."""

import json

import numpy as np


def decode_checkpoint(blob):
    head, _, raw = blob.partition(b"\n")
    return dict(json.loads(head), theta=np.frombuffer(raw, dtype="<f8").copy())


def encode_checkpoint(payload):
    """The file of `payload`; a "theta" of bytes is written as it is, and none as no bytes."""
    header = {k: v for k, v in payload.items() if k != "theta"}
    theta = payload.get("theta", b"")
    raw = theta if isinstance(theta, bytes) else np.asarray(theta, dtype="<f8").tobytes()
    return json.dumps(header).encode() + b"\n" + raw
