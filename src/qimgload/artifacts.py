"""The text of the JSON artifacts.

`dump` and `dumps` write byte for byte what ``json.dump(obj, fh, indent=1)``
writes, where `obj` may also hold float ndarrays, written as their
``tolist()``.  With an indent, json formats every float in Python, one call
each; here a float array is formatted in one pass, its ``float.__repr__``
texts filled into a template of the indent and separator strings.  Keys,
strings and other scalars still go through ``json.dumps``, so their escaping
is json's own.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .state_rows import CSV_CHUNK_ROWS


def dump(obj, fh) -> None:
    """Write `obj` to the text file `fh` as ``json.dump(obj, fh, indent=1)`` does.

    A 1-D float array (or a list of floats) is written `CSV_CHUNK_ROWS`
    values at a time; an array of more dimensions is formatted whole.
    """
    _write(obj, "\n", fh.write)


def dumps(obj) -> str:
    """The text `dump` writes."""
    parts = []
    _write(obj, "\n", parts.append)
    return "".join(parts)


def _filled(template: str, values: list) -> str:
    """`template` with its %s slots filled by the values' JSON texts."""
    text = template % tuple(values)
    if "n" in text:  # only "nan" and "inf" hold an n: json writes NaN, Infinity, -Infinity
        text = template % tuple(map(json.dumps, values))
    return text


@functools.cache
def _template(shape: tuple, nl: str) -> str:
    """The indented text of a float array of `shape`, one %s slot per value."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join([_template(shape[1:], inner)] * shape[0]) + nl + "]"


# a str key's text; any other key goes through json's own key conversion
_str_key = functools.cache(json.dumps)


def _write(obj, nl: str, write) -> None:
    """Write `obj` as ``json.dumps(obj, indent=1)`` does, nested at the line start `nl`."""
    if type(obj) is list and obj and set(map(type, obj)) == {float}:
        obj = np.array(obj)
    inner = nl + " "
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f":
            _write(obj.tolist(), nl, write)
        elif obj.ndim != 1 or not obj.size:
            write(_filled(_template(obj.shape, nl), obj.ravel().tolist()))
        else:
            sep = "," + inner
            write("[" + inner)
            for start in range(0, obj.size, CSV_CHUNK_ROWS):
                chunk = obj[start : start + CSV_CHUNK_ROWS].tolist()
                write((sep if start else "") + _filled(sep.join(["%s"] * len(chunk)), chunk))
            write(nl + "]")
        return
    if isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key, value in obj.items():
            text = _str_key(key) if type(key) is str else json.dumps({key: None})[1:-7]
            write(sep + text + ": ")
            _write(value, inner, write)
            sep = "," + inner
        write(nl + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[" + inner
        for value in obj:
            write(sep)
            _write(value, inner, write)
            sep = "," + inner
        write(nl + "]")
    else:  # a scalar, or an empty dict or list
        write(json.dumps(obj))
