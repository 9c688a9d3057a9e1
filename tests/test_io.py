"""Tests for the deterministic text writers."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gdlab.io import csv_text


def parse(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


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
