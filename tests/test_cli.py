"""End-to-end tests for the command-line interface."""

import json
import pathlib

import numpy as np
import pytest

from repro.cli import main


class TestDatasets:
    def test_list_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ECG200" in out
        assert "117 datasets" in out

    def test_filter_family(self, capsys):
        assert main(["datasets", "--family", "spike"]) == 0
        out = capsys.readouterr().out
        assert "ECG200" in out
        assert "Adiac" not in out

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["datasets", "--family", "nope"])


class TestGenerateAndKNN:
    def test_generate_npz(self, tmp_path, capsys):
        out = tmp_path / "ds.npz"
        code = main(
            [
                "generate", "--dataset", "Coffee", "--length", "64",
                "--series", "6", "--queries", "2", "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "6 series" in capsys.readouterr().out

    def test_knn_from_archive(self, capsys):
        code = main(
            [
                "knn", "--dataset", "Coffee", "--method", "PAA",
                "--k", "3", "--length", "64", "--series", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruning_power" in out

    def test_knn_from_npz(self, tmp_path, capsys):
        out = tmp_path / "ds.npz"
        main(
            [
                "generate", "--dataset", "Coffee", "--length", "64",
                "--series", "8", "--queries", "1", "--output", str(out),
            ]
        )
        capsys.readouterr()
        assert main(["knn", "--dataset", str(out), "--k", "2"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_knn_batch_runs_in_process_only(self, capsys):
        args = ["knn", "--dataset", "Coffee", "--method", "PAA", "--k", "3",
                "--length", "64", "--series", "10", "--batch"]
        assert main(args) == 0
        assert "pruning_power" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(args + ["--parallelism", "2"])

    def test_stats_renders_a_committed_report_with_a_retired_gauge(self, capsys):
        report = (
            pathlib.Path(__file__).resolve().parent / "reports" / "batch_knn.report.json"
        )
        assert main(["stats", "--report", str(report)]) == 0
        assert "engine.parallelism" in capsys.readouterr().out


class TestReduceReconstruct:
    def test_round_trip(self, tmp_path, capsys):
        series = np.sin(np.linspace(0, 10, 80))
        src = tmp_path / "series.csv"
        np.savetxt(src, series, delimiter=",")
        rep_path = tmp_path / "rep.json"
        assert main(
            [
                "reduce", "--method", "SAPLA", "--coefficients", "12",
                "--input", str(src), "--output", str(rep_path),
            ]
        ) == 0
        payload = json.loads(rep_path.read_text())
        assert payload["type"] == "segmentation"

        out_path = tmp_path / "recon.txt"
        assert main(
            ["reconstruct", "--input", str(rep_path), "--output", str(out_path)]
        ) == 0
        recon = np.loadtxt(out_path)
        assert recon.shape == series.shape
        assert np.abs(series - recon).max() < 1.0

    def test_npy_input(self, tmp_path):
        src = tmp_path / "series.npy"
        np.save(src, np.arange(40.0))
        assert main(
            [
                "reduce", "--input", str(src),
                "--output", str(tmp_path / "rep.json"),
            ]
        ) == 0

    def test_empty_input_rejected(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        with pytest.raises((SystemExit, ValueError)):
            main(["reduce", "--input", str(src), "--output", str(tmp_path / "r.json")])


class TestExperiments:
    """A paper figure is one workload family of ``experiment run``."""

    SPEC = """
name = "clifigure"
workloads = ["{workload}"]
indexes = ["none", "dbch"]

[[scales]]
name = "Coffee"
dataset = "Coffee"
length = 64
n_series = 6
n_queries = 1

[[reducers]]
method = "SAPLA"

[[engines]]
k = 2
"""

    def _run(self, workload, tmp_path, capsys):
        spec = tmp_path / "clifigure.toml"
        spec.write_text(self.SPEC.format(workload=workload))
        code = main(
            ["experiment", "run", str(spec), "--bench-dir", str(tmp_path)]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_fig12_small(self, tmp_path, capsys):
        assert "max_deviation" in self._run("reduction", tmp_path, capsys)

    def test_fig13_small(self, tmp_path, capsys):
        assert "pruning_power" in self._run("pruning", tmp_path, capsys)
