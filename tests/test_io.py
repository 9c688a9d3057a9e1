"""Tests for the deterministic text writers."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gdlab.cli import _Output
from gdlab.io import _CSV_CHUNK_ROWS, csv_chunks, f17, write_atomic


def csv_text(columns):
    return "".join(csv_chunks(columns))


def parse(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def reference_csv(columns):
    """The CSV document built one row and one cell at a time."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):  # np.float64 included
            return f17(v)
        return str(v)

    names, cols = list(columns), list(columns.values())
    rows = [",".join(cell(c[i]) for c in cols) for i in range(len(cols[0]))]
    return "".join(line + "\n" for line in [",".join(names), *rows])


class TestCsvText:
    @given(arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_float_cells_round_trip(self, values):
        # 17 significant digits: every finite binary64 value, signed zeros
        # and subnormals included, parses back to the same bits
        header, rows = parse(csv_text({"a": values, "b": values[::-1].copy()}))
        assert header == ["a", "b"]
        back = np.array([[float(cell) for cell in row] for row in rows])
        assert back.shape == (len(values), 2)
        assert back[:, 0].tobytes() == values.tobytes()
        assert back[:, 1].tobytes() == values[::-1].tobytes()

    def test_integer_and_empty_cells(self):
        text = csv_text({"t": np.arange(3), "g": [0.5, None, 2.0]})
        assert text == "t,g\n0,0.5\n1,\n2,2\n"

    @pytest.mark.parametrize("rows", [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS,
                                      _CSV_CHUNK_ROWS + 1])
    def test_chunks_join_to_the_row_by_row_document(self, rows):
        rng = np.random.default_rng(rows)
        columns = {
            "t": np.arange(rows),
            "err": rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
            "gap": [None if i % 3 else float(i) / 7 for i in range(rows)],
            "ok": [i % 2 == 0 for i in range(rows)],
            "m": [i // 5 for i in range(rows)],
        }
        parts = list(csv_chunks(columns))
        assert len(parts) == 1 + -(-rows // _CSV_CHUNK_ROWS)  # header, then one per chunk
        assert "".join(parts) == reference_csv(columns)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw):
    """Up to six columns of 0, 1, N - 1, N or N + 1 rows (N = _CSV_CHUNK_ROWS):
    finite float64 arrays with the edge values in their pool, int64, int32
    and uint8 arrays over their whole range, bool arrays, and lists of None,
    str, bool, int and float cells.  Long columns pick from a drawn pool."""
    rows = draw(st.sampled_from([0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS,
                                 _CSV_CHUNK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["float64", "int64", "int32", "uint8", "bool", "cells"])
    columns = {}
    for i, kind in enumerate(draw(st.lists(kinds, min_size=1, max_size=6))):
        if kind == "float64":
            pool = np.array(draw(st.lists(finite, min_size=1, max_size=8)) + EDGE_FLOATS)
            col = pool[rng.integers(len(pool), size=rows)]
        elif kind == "bool":
            col = rng.random(rows) < 0.5
        elif kind == "cells":
            pool = draw(st.lists(st.one_of(st.none(), st.text(max_size=5), st.booleans(),
                                           st.integers(), finite), min_size=1, max_size=8))
            col = [pool[j] for j in rng.integers(len(pool), size=rows)]
        else:
            info = np.iinfo(kind)
            col = rng.integers(info.min, info.max, size=rows, dtype=kind, endpoint=True)
        columns[f"c{i}"] = col
    return columns


# not shrunk: shrinking tables of a thousand rows takes minutes, so a
# failure shows the table as drawn
@settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(tables())
def test_chunks_are_the_cell_by_cell_document(columns):
    assert csv_text(columns) == reference_csv(columns)


class TestWriteAtomic:
    def leftovers(self, tmp_path):
        return sorted(os.listdir(tmp_path))

    def test_nan_past_the_first_chunk_writes_nothing(self, tmp_path):
        values = np.ones(_CSV_CHUNK_ROWS + 5)
        values[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            write_atomic(str(tmp_path / "t.csv"), csv_chunks({"t": np.arange(len(values)),
                                                             "v": values}))
        assert self.leftovers(tmp_path) == []

    def test_failing_parts_leave_no_file(self, tmp_path):
        def parts():
            yield "t\n"
            raise RuntimeError("made mid-write")

        with pytest.raises(RuntimeError, match="made mid-write"):
            write_atomic(str(tmp_path / "t.csv"), parts())
        assert self.leftovers(tmp_path) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_atomic(str(path), ["old\n"])
        with pytest.raises(ValueError):
            write_atomic(str(path), csv_chunks({"v": [1.0, float("inf")]}))
        assert self.leftovers(tmp_path) == ["t.csv"]
        assert path.read_text() == "old\n"

    def test_a_bare_string_is_refused(self, tmp_path):
        with pytest.raises(TypeError):
            write_atomic(str(tmp_path / "t.json"), "{}\n")
        assert self.leftovers(tmp_path) == []


def test_writing_a_table_holds_a_small_part_of_it(tmp_path):
    # the document is streamed: formatting and writing a 100,000-row trace
    # allocates at most half its size at once (holding it whole, as one
    # string, its parts and its encoding, takes two to three times it)
    rng = np.random.default_rng(0)
    columns = {name: rng.standard_normal(100_000) for name in "abcde"}
    out = _Output(str(tmp_path))
    tracemalloc.start()
    try:
        out.table("trace", columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = os.path.getsize(tmp_path / "trace.csv")
    assert size > 8_000_000
    assert peak < size / 2
