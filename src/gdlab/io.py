"""Deterministic text output: 17-significant-digit numbers and atomic file writes.

Every float that leaves the library (JSON documents, CSV cells) is printed
with 17 significant digits, which round-trips IEEE binary64 exactly.  Files
are written through a temp-then-rename step so partially written output is
never observed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

_CSV_CHUNK_ROWS = 4096


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


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` via a temp file + rename in the same directory."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f17(v)
    return str(v)


def _cells(col) -> list[str]:
    """The cells of one column.  float64 and integer arrays (trace columns)
    are converted in one pass; other columns (sweep rows) cell by cell."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        bad = ~np.isfinite(col)
        if bad.any():
            raise ValueError(f"non-finite value cannot be serialized: {float(col[bad][0])!r}")
        return [format(v, ".17g") for v in col.tolist()]
    if isinstance(col, np.ndarray) and np.issubdtype(col.dtype, np.integer):
        return [str(v) for v in col.tolist()]
    return [_cell(v) for v in col]


def csv_text(columns) -> str:
    """CSV document of named equal-length columns ({name: column}): floats at
    17 significant digits, None as empty cell.

    Rows are formatted in chunks of _CSV_CHUNK_ROWS, column by column, so the
    cell strings held at once stay small next to the document itself.
    """
    cols = list(columns.values())
    length = len(cols[0]) if cols else 0
    parts = [",".join(columns) + "\n"]
    for a in range(0, length, _CSV_CHUNK_ROWS):
        cells = [_cells(c[a:a + _CSV_CHUNK_ROWS]) for c in cols]
        parts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(parts)
