"""The one reader of text inputs, and the one checkpoint format both models use.

Every text input (manifest, pairs, reference features, scores, a checkpoint's
header) goes through one parser, which decodes UTF-8 whatever the locale, and
`field`, which checks a value's kind.

A checkpoint is one UTF-8 JSON header line, an object of its magic (`EMITTS/4`,
`EPALIGN/5`) and the fields a schema names in schema order, then θ: every byte
after that line's "\\n" is the flat parameter vector as little-endian float64s.
A file of another version, or with a field the schema does not name, is refused."""

import json
import sys

import numpy as np

from .errors import FormatError

# kind -> test of a decoded value; a tuple is a dims block of just those names
_KINDS = {
    "int": lambda v: type(v) is int,
    "pos": lambda v: type(v) is int and v > 0,
    "str": lambda v: type(v) is str,
    "ints": lambda v: type(v) is list and all(type(i) is int for i in v),
    # numbers that convert to finite float64s
    "nums": lambda v: type(v) is list and all(type(x) in (int, float)
                                              and abs(x) <= sys.float_info.max for x in v),
}


def read(path, row=None, parse=json.loads):
    """Parses the text file `path`, decoded as UTF-8 whatever the locale.

    Returns parse(text), or, given `row`, [row(parse(line), where) for each
    non-blank line split on "\\n"], `where` naming the line and file. Bytes
    that are not UTF-8, text `parse` refuses and a ValueError from `row` are
    a FormatError naming them."""
    return _parsed(path, row, parse)[0]


def _parsed(path, row, parse, head=False):
    """(`read`, b""); given `head`, (the parse of the first line alone, the bytes after it)."""
    where, rows, rest = path, [], b""
    try:
        with open(path, "rb") as f:
            blob = f.read()
        if head:
            blob, _, rest = blob.partition(b"\n")
        if row is None:
            return parse(blob.decode("utf-8")), rest
        for n, line in enumerate(blob.split(b"\n"), 1):
            where, line = "line %d of %s" % (n, path), line.decode("utf-8")
            if line.strip():
                rows.append(row(parse(line), where))
        return rows, rest
    except FormatError:
        raise
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise FormatError("%s: %s" % (where, e))


def field(obj, name, kind, where, label=None):
    """obj[name] if obj is an object holding a `kind` value there, else a
    FormatError naming `where`; a dims block's values must be "pos"."""
    label = label or name
    if type(obj) is not dict:
        raise FormatError("%s is not a JSON object" % where)
    if name not in obj:
        raise FormatError("%s is missing field %r" % (where, label))
    value = obj[name]
    if isinstance(kind, tuple) and type(value) is dict and set(value) <= set(kind):
        return {k: field(value, k, "pos", where, label + "." + k) for k in kind}
    if isinstance(kind, tuple) or not _KINDS[kind](value):
        raise FormatError("%s has a malformed field %r" % (where, label))
    return value


def save(path, magic, schema, params):
    header = {"magic": magic, **{k: getattr(params, k) for k in schema}}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("ascii") + b"\n" + params.theta.astype("<f8").tobytes())


def load(path, magic, schema, layout_of):
    """Returns (fields, layout, theta); `layout_of(fields)` gives the layout."""
    (header, raw), where = _parsed(path, None, json.loads, head=True), "checkpoint %s" % path
    found = header.get("magic") if type(header) is dict else None
    if found != magic:
        raise FormatError("%s is format %r, want %r" % (where, found, magic))
    unknown = set(header) - {"magic", *schema}
    if unknown:
        raise FormatError("%s has fields its format does not name: %s"
                          % (where, ", ".join(sorted(unknown))))
    fields = {name: field(header, name, kind, where) for name, kind in schema.items()}
    layout = layout_of(fields)
    if len(raw) % 8:
        raise FormatError("%s has %d bytes of parameters, not whole float64s" % (where, len(raw)))
    theta = np.frombuffer(raw, "<f8").astype(np.float64)
    if theta.size != layout.size:
        raise FormatError("%s has %d parameters, layout wants %d" % (where, theta.size, layout.size))
    if not np.isfinite(theta).all():
        raise FormatError("%s has non-finite parameters" % where)
    return fields, layout, theta
