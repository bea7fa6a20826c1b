"""Plain-text tables: what every CLI command prints its rows with."""

import pytest

from repro.experiments.report import render_table

pytestmark = pytest.mark.experiments


class TestReporting:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 1e-9}]
        text = render_table("T", rows)
        assert "T" in text
        assert "22" in text
        assert "1.000e-09" in text

    def test_render_empty(self):
        assert "(no rows)" in render_table("T", [])

    def test_a_column_only_later_rows_have_is_kept(self):
        """A scan cell and a tree cell of one family share a table."""
        text = render_table("T", [{"a": 1}, {"a": 2, "height": 3}])
        header = text.splitlines()[3]
        assert header.split() == ["a", "height"]
