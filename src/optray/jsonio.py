"""The JSON writer of every output file: the bytes of json.dump(obj, fh, indent=1)."""

from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

import numpy as np

_CONSTANTS = {None: "null", True: "true", False: "false"}


def write_json(path, obj) -> None:
    """Write obj to path as json.dump(obj, fh, indent=1) would, byte for byte.

    A numpy array or scalar is written as its tolist(), and a dataclass
    instance as the dict of its fields in declaration order, leaving out a
    field declared with field(metadata={"json": False}).

    json.dump runs the pure-Python encoder once indent is set; this builds
    the text with one join per container, and a list of plain floats or
    ints in one map.  The text is complete before the file is opened, so a
    value json cannot encode raises the same TypeError and leaves no file.
    """
    text = _encode(obj, 0)
    with open(path, "w") as fh:
        fh.write(text)


def _scalar(o):
    """JSON text of a string, None, bool, int or float; None for anything else."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    return None


def _encode(o, level: int) -> str:
    text = _scalar(o)
    if text is not None:
        return text
    inner = "\n" + " " * (level + 1)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        kinds = set(map(type, o))
        if kinds == {float} and all(map(isfinite, o)):
            items = map(float.__repr__, o)
        elif kinds == {int}:
            items = map(int.__repr__, o)
        else:
            items = (_encode(v, level + 1) for v in o)
        return "[" + inner + ("," + inner).join(items) + "\n" + " " * level + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = (_key(k) + ": " + _encode(v, level + 1) for k, v in o.items())
        return "{" + inner + ("," + inner).join(items) + "\n" + " " * level + "}"
    if isinstance(o, (np.ndarray, np.generic)):
        plain = o.tolist()  # a longdouble stays a numpy scalar
        if not isinstance(plain, np.generic):
            return _encode(plain, level)
    if is_dataclass(o) and not isinstance(o, type):
        kept = {f.name: getattr(o, f.name) for f in fields(o) if f.metadata.get("json", True)}
        return _encode(kept, level)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return _quote(k)
    text = _scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return _quote(text)
