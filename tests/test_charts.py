"""Unit tests for ASCII chart rendering."""

import pytest

from repro.analysis import bar_chart


class TestBarChart:
    def test_largest_bar_is_full_width(self):
        chart = bar_chart({"big": 4.0, "small": 1.0}, width=8)
        lines = chart.splitlines()
        assert lines[0].count("#") == 8
        assert lines[1].count("#") == 2

    def test_title_and_unit(self):
        chart = bar_chart({"x": 1.0}, title="Figure", unit=" fps")
        assert chart.startswith("Figure")
        assert "1.00 fps" in chart

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_zero_values(self):
        chart = bar_chart({"a": 0.0, "b": 0.0}, width=5)
        assert "#" not in chart
