"""Gate rules: threshold arithmetic, filtering, and diff rendering."""

import pytest

from repro.experiments import (
    ExperimentSpec,
    GateRule,
    ReducerSpec,
    diff_cells,
    evaluate_gates,
    judge,
)

from .conftest import TINY_SCALE

pytestmark = pytest.mark.experiments


def cell(key="batch_knn|tiny|PAA-4|none|k2-auto", workload="batch_knn", **metrics):
    return {"cell": key, "workload": workload, "metrics": metrics}


def spec_with(*gates):
    return ExperimentSpec(
        name="gated",
        scales=(TINY_SCALE,),
        reducers=(ReducerSpec("PAA", 4),),
        gates=tuple(gates),
    )


class TestEvaluateGates:
    def test_increase_violation(self):
        spec = spec_with(GateRule("latency_p50_ms", 10.0, "increase"))
        violations = evaluate_gates(
            spec, [cell(latency_p50_ms=1.0)], [cell(latency_p50_ms=1.2)]
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.change_pct == pytest.approx(20.0)
        assert "latency_p50_ms" in v.describe()
        assert "violates max increase of 10%" in v.describe()

    def test_within_threshold_passes(self):
        spec = spec_with(GateRule("latency_p50_ms", 25.0, "increase"))
        assert not evaluate_gates(
            spec, [cell(latency_p50_ms=1.0)], [cell(latency_p50_ms=1.2)]
        )

    def test_decrease_violation(self):
        spec = spec_with(GateRule("batched_qps", 10.0, "decrease"))
        violations = evaluate_gates(
            spec, [cell(batched_qps=100.0)], [cell(batched_qps=80.0)]
        )
        assert len(violations) == 1
        assert violations[0].change_pct == pytest.approx(-20.0)
        # improvement in the watched direction never violates
        assert not evaluate_gates(
            spec, [cell(batched_qps=100.0)], [cell(batched_qps=150.0)]
        )

    def test_workload_filter(self):
        spec = spec_with(GateRule("accuracy", 5.0, "decrease", workload="pruning"))
        batch = cell(accuracy=1.0)  # workload batch_knn: rule must not apply
        assert not evaluate_gates(spec, [batch], [cell(accuracy=0.5)])

    def test_missing_baseline_cell_or_metric_skipped(self):
        spec = spec_with(GateRule("speedup", 5.0, "decrease"))
        # new cell: no baseline to regress against
        assert not evaluate_gates(spec, [], [cell(speedup=1.0)])
        # metric absent from the baseline cell
        assert not evaluate_gates(spec, [cell(other=1.0)], [cell(speedup=1.0)])

    def test_vanished_cell_is_a_violation(self):
        """A gated baseline cell the current run lacks fails the gates."""
        spec = spec_with(GateRule("speedup", 5.0, "decrease"))
        (violation,) = evaluate_gates(spec, [cell(speedup=4.0)], [])
        assert violation.current is None and violation.change_pct is None
        assert violation.describe() == (
            "batch_knn|tiny|PAA-4|none|k2-auto: speedup 4 -> missing from the current run"
        )
        # so does a gated metric the current cell no longer reports
        assert evaluate_gates(spec, [cell(speedup=4.0)], [cell(other=1.0)])
        # a rule that does not apply to the cell's workload gates nothing
        pruning_only = spec_with(GateRule("speedup", 5.0, "decrease", workload="pruning"))
        assert not evaluate_gates(pruning_only, [cell(speedup=4.0)], [])

    def test_zero_baseline(self):
        spec = spec_with(GateRule("speedup", 5.0, "increase"))
        assert evaluate_gates(spec, [cell(speedup=0.0)], [cell(speedup=1.0)])
        assert not evaluate_gates(spec, [cell(speedup=0.0)], [cell(speedup=0.0)])


class TestDiffCells:
    def test_verdicts(self):
        spec = spec_with(
            GateRule("latency_p50_ms", 10.0, "increase"),
            GateRule("speedup", 10.0, "decrease"),
        )
        baseline = [cell(latency_p50_ms=1.0, speedup=4.0)]
        current = [
            cell(latency_p50_ms=2.0, speedup=4.0),
            cell(key="new|cell", latency_p50_ms=1.0, speedup=1.0),
        ]
        rows = diff_cells(spec, baseline, current)
        by = {(r["cell"], r["metric"]): r for r in rows}
        assert by[("batch_knn|tiny|PAA-4|none|k2-auto", "latency_p50_ms")]["verdict"] == "FAIL"
        assert by[("batch_knn|tiny|PAA-4|none|k2-auto", "speedup")]["verdict"] == "ok"
        assert by[("new|cell", "latency_p50_ms")]["verdict"] == "new"

    def test_missing_rows_follow_the_current_cells(self):
        spec = spec_with(GateRule("speedup", 10.0, "decrease"))
        baseline = [cell(key="gone|cell", speedup=2.0), cell(speedup=4.0)]
        rows, violations = judge(spec, baseline, [cell(speedup=4.0)])
        assert [(r["cell"], r["verdict"]) for r in rows] == [
            ("batch_knn|tiny|PAA-4|none|k2-auto", "ok"),
            ("gone|cell", "missing"),
        ]
        assert rows[1]["baseline"] == 2.0 and rows[1]["current"] == "-"
        assert [v.cell for v in violations] == ["gone|cell"]
        assert rows == diff_cells(spec, baseline, [cell(speedup=4.0)])


class TestUnitNormalizedDisplay:
    """Diff output reads in ms even when the stored metric is seconds."""

    def test_seconds_metric_displays_as_ms(self):
        spec = spec_with(GateRule("trial_wall_s", 10.0, "increase"))
        rows = diff_cells(spec, [cell(trial_wall_s=0.5)], [cell(trial_wall_s=0.6)])
        (row,) = rows
        assert row["metric"] == "trial_wall_ms"
        assert row["baseline"] == pytest.approx(500.0)
        assert row["current"] == pytest.approx(600.0)
        # the verdict is computed on percent change, which scaling can't move
        assert row["change_pct"] == pytest.approx(20.0)
        assert row["verdict"] == "FAIL"

    def test_rate_metric_is_not_scaled(self):
        spec = spec_with(GateRule("inserts_per_s", 10.0, "decrease"))
        rows = diff_cells(
            spec, [cell(inserts_per_s=100.0)], [cell(inserts_per_s=95.0)]
        )
        (row,) = rows
        assert row["metric"] == "inserts_per_s"
        assert row["baseline"] == pytest.approx(100.0)
        assert row["current"] == pytest.approx(95.0)
        assert row["verdict"] == "ok"

    def test_violation_describe_uses_ms(self):
        spec = spec_with(GateRule("trial_wall_s", 10.0, "increase"))
        violations = evaluate_gates(
            spec, [cell(trial_wall_s=0.5)], [cell(trial_wall_s=0.6)]
        )
        (violation,) = violations
        text = violation.describe()
        assert "trial_wall_ms" in text
        assert "500 -> 600" in text
        assert "+20.0%" in text
