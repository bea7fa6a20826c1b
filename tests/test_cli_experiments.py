"""CLI coverage of the paper's figures: ``experiment run`` on a tiny spec.

The figures are cells of ``benchmarks/specs/paper.toml``; this runs the
same two families on one small archive dataset through the CLI and checks
that every figure's metric reaches the printed tables.
"""

import contextlib
import io

import pytest

from repro.cli import main

SPEC = """
name = "clifigures"
workloads = ["reduction", "pruning"]
indexes = ["none", "dbch"]

[[scales]]
name = "Coffee"
dataset = "Coffee"
length = 64
n_series = 5
n_queries = 1

[[reducers]]
method = "SAPLA"
coefficients = 12

[[reducers]]
method = "PAA"
coefficients = 12

[[engines]]
k = 2
"""


@pytest.fixture(scope="module")
def output(tmp_path_factory):
    home = tmp_path_factory.mktemp("clifigures")
    spec = home / "clifigures.toml"
    spec.write_text(SPEC)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(
            ["experiment", "run", str(spec), "--bench-dir", str(home)]
        )
    assert code == 0
    return printed.getvalue()


class TestExperimentPaths:
    def test_table1(self, output):
        assert "reduce_ms" in output

    def test_fig14(self, output):
        assert "ingest_s" in output
        assert "linear_scan_ms" in output

    def test_fig15(self, output):
        assert "total_nodes" in output

    def test_ablation_bounds(self, output):
        assert "max_deviation.peak_split" in output

    def test_methods_filter_restricts_rows(self, output):
        assert "SAPLA" in output and "PAA" in output
        assert "CHEBY" not in output
