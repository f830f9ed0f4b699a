"""The one JSON checkpoint format that both models save and load.

A checkpoint is a JSON object: its magic string, the fields a schema names
(in schema order) and `theta`, the flat float64 parameter vector, last.
"""

import json

import numpy as np

from .errors import FormatError

# schema kind -> test of a decoded value; a tuple of names is a dims block
_KINDS = {
    "int": lambda v: type(v) is int,
    "pos": lambda v: type(v) is int and v > 0,
    "str": lambda v: type(v) is str,
    "strs": lambda v: type(v) is list and all(type(s) is str for s in v),
    "list": lambda v: type(v) is list,
}


def save(path, magic, schema, params):
    payload = {"magic": magic, **{k: getattr(params, k) for k in schema},
               "theta": params.theta.tolist()}
    with open(path, "w") as f:
        json.dump(payload, f)


def _field(obj, name, kind, path, label):
    if name not in obj:
        raise FormatError("checkpoint %s missing field %r" % (path, label))
    value = obj[name]
    if isinstance(kind, tuple) and type(value) is dict:
        return {k: _field(value, k, "pos", path, label + "." + k) for k in kind}
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
    if not isinstance(payload, dict) or payload.get("magic") != magic:
        raise FormatError("bad checkpoint magic in %s (want %s)" % (path, magic))
    fields = {name: _field(payload, name, kind, path, name) for name, kind in schema.items()}
    raw = _field(payload, "theta", "list", path, "theta")
    layout = layout_of(fields)
    try:
        theta = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise FormatError("checkpoint %s has a malformed field 'theta': %s" % (path, e))
    if theta.shape != (layout.size,):
        raise FormatError("checkpoint %s has %d parameters, layout wants %d"
                          % (path, theta.size, layout.size))
    if not np.isfinite(theta).all():
        raise FormatError("checkpoint %s has non-finite parameters" % path)
    return fields, layout, theta
