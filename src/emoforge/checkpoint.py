"""The one JSON checkpoint format that both models save and load.

Format 2 is a JSON object: its magic string (`<MODEL>/2`), the fields a schema
names (in schema order) and `theta` last, the flat float64 parameter vector as
base64 of its little-endian bytes. A file of another version is refused."""

import base64
import json

import numpy as np

from .errors import FormatError

# schema kind -> test of a decoded value; a tuple is a dims block of just those names (any if empty)
_KINDS = {
    "int": lambda v: type(v) is int,
    "pos": lambda v: type(v) is int and v > 0,
    "str": lambda v: type(v) is str,
    "strs": lambda v: type(v) is list and all(type(s) is str for s in v),
}


def save(path, magic, schema, params):
    payload = {"magic": magic, **{k: getattr(params, k) for k in schema},
               "theta": base64.b64encode(params.theta.astype("<f8").tobytes()).decode("ascii")}
    with open(path, "w") as f:
        json.dump(payload, f)


def _field(obj, name, kind, path, label):
    if name not in obj:
        raise FormatError("checkpoint %s missing field %r" % (path, label))
    value = obj[name]
    if isinstance(kind, tuple) and type(value) is dict and set(value) <= set(kind or value):
        return {k: _field(value, k, "pos", path, label + "." + k) for k in kind or value}
    if isinstance(kind, tuple) or not _KINDS[kind](value):
        raise FormatError("checkpoint %s has a malformed field %r" % (path, label))
    return value


def load(path, magic, schema, layout_of):
    """Returns (fields, layout, theta); `layout_of(fields)` gives the layout."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (ValueError, RecursionError) as e:
        raise FormatError("not a valid checkpoint: %s (%s)" % (path, e))
    found = payload.get("magic") if isinstance(payload, dict) else None
    if found != magic:
        raise FormatError("checkpoint %s is format %r, want %r" % (path, found, magic))
    fields = {name: _field(payload, name, kind, path, name) for name, kind in schema.items()}
    raw = _field(payload, "theta", "str", path, "theta")
    layout = layout_of(fields)
    try:  # binascii.Error, text that is not ASCII, or bytes that are not whole float64s
        theta = np.frombuffer(base64.b64decode(raw, validate=True), "<f8").astype(np.float64)
    except ValueError as e:
        raise FormatError("checkpoint %s has a malformed field 'theta': %s" % (path, e))
    if theta.size != layout.size:
        raise FormatError("checkpoint %s has %d parameters, layout wants %d"
                          % (path, theta.size, layout.size))
    if not np.isfinite(theta).all():
        raise FormatError("checkpoint %s has non-finite parameters" % path)
    return fields, layout, theta
