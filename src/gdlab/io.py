"""Deterministic text output: 17-significant-digit numbers and atomic file writes.

Every float that leaves the library (JSON documents, CSV cells) is printed
with 17 significant digits, which round-trips IEEE binary64 exactly.  Files
are streamed to a temp file and renamed into place, so partially written
output is never observed and no table is held whole in memory.  A document
read back must be a JSON object holding its keys.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from itertools import chain

import numpy as np

_CSV_CHUNK_ROWS = 1024


def f17(x: float) -> str:
    """Format a float with 17 significant digits (exact binary64 round-trip)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return format(x, ".17g")


def _encode(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return f17(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return _encode(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """JSON text with all floats at 17 significant digits."""
    return _encode(obj)


def json_object(text: str, keys, what: str) -> dict:
    """The JSON object in text, refused with a ValueError that starts with
    `what` unless it holds every one of keys."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: not a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(missing)}")
    return doc


def json_int(v, name: str) -> int:
    """v, refused with a ValueError naming it unless it is a JSON integer: a
    float, integral or not, and a boolean are refused rather than truncated."""
    if type(v) is not int:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return v


def write_atomic(path: str, parts) -> None:
    """Write the strings of `parts`, an iterable such as a list or csv_chunks,
    to `path`: each is written to a temp file in the same directory as it
    arrives, and the file is renamed into place once all are.  On any failure
    the temp file is removed and `path` is left as it was."""
    if isinstance(parts, str):  # would be written one character at a time
        raise TypeError("write_atomic takes an iterable of strings, not a str")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f17(v)
    return str(v)


def _column(col) -> tuple[str, list]:
    """One column's cell format and its values: %.17g for a float64 array
    (checked finite by csv_chunks), %d for an integer array, and %s for the
    _cell strings of anything else (sweep rows)."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return "%.17g", col.tolist()
    if isinstance(col, np.ndarray) and np.issubdtype(col.dtype, np.integer):
        return "%d", col.tolist()
    return "%s", [_cell(v) for v in col]


def csv_chunks(columns):
    """CSV document of named equal-length columns ({name: column}) in parts:
    the header line, then one part per _CSV_CHUNK_ROWS rows.  Floats carry 17
    significant digits, None is an empty cell.

    Every float64 column is checked for non-finite values before the first
    part, so a bad trace fails before any of it is written; the parts held
    at once stay small next to the document itself.  A part of k rows is
    one % of a row template repeated k times, applied to its cells in row
    order ('%.17g' % x prints format(x, '.17g')'s digits).
    """
    cols = list(columns.values())
    for col in cols:
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            bad = ~np.isfinite(col)
            if bad.any():
                raise ValueError(f"non-finite value cannot be serialized: {float(col[bad][0])!r}")
    length = len(cols[0]) if cols else 0
    yield ",".join(columns) + "\n"
    for a in range(0, length, _CSV_CHUNK_ROWS):
        formats, cells = zip(*(_column(c[a:a + _CSV_CHUNK_ROWS]) for c in cols))
        row = ",".join(formats) + "\n"
        yield (row * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))
