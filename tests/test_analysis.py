"""Unit tests for the analysis subpackage."""

import numpy as np
import pytest

from repro.analysis import (
    TextTable,
    format_series,
    mean_absolute_percentage_error,
)


class TestMape:
    def test_basic(self):
        assert mean_absolute_percentage_error([100, 100], [90, 120]) == pytest.approx(
            15.0
        )

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([], [])


class TestTextTable:
    def test_render_alignment(self):
        t = TextTable("Demo", ["name", "value"])
        t.add_row("alpha", 1.0)
        t.add_row("b", 22.5)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2] and "value" in lines[2]
        # All data rows equal width.
        widths = {len(l) for l in lines[2:-1]}
        assert len(widths) == 1

    def test_wrong_arity_rejected(self):
        t = TextTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            TextTable("x", [])


class TestFormatSeries:
    def test_pairs(self):
        out = format_series("measured", [1, 2], [0.5, 0.25])
        lines = out.splitlines()
        assert lines[0].startswith("# series: measured")
        assert len(lines) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1], [1, 2])
