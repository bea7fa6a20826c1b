"""Histogram percentiles, report schema compatibility, and the trial-ingest contract."""

import pytest

from repro import obs
from repro.obs.registry import SAMPLE_CAP, Histogram, MetricsRegistry
from repro.obs.report import COMPATIBLE_SCHEMAS, SCHEMA_VERSION, RunReport
from repro.obs.spans import SpanRecorder

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def clean_obs_state():
    prev_reg = obs.set_registry(MetricsRegistry(enabled=False))
    prev_rec = obs.set_recorder(SpanRecorder(enabled=False))
    yield
    obs.set_registry(prev_reg)
    obs.set_recorder(prev_rec)


class TestPercentiles:
    def test_nearest_rank_exact_below_cap(self):
        h = Histogram("knn.verified_per_query")
        for value in range(1, 101):  # 1..100, one observation each
            h.observe(float(value))
        assert h.percentile(50.0) == 50.0
        assert h.percentile(90.0) == 90.0
        assert h.percentile(99.0) == 99.0
        assert h.percentile(100.0) == 100.0

    def test_empty_histogram_percentile_is_zero(self):
        assert Histogram("knn.verified_per_query").percentile(50.0) == 0.0

    def test_decimation_beyond_cap_stays_bounded_and_close(self):
        h = Histogram("knn.verified_per_query")
        n = SAMPLE_CAP * 4
        for value in range(n):
            h.observe(float(value))
        assert h.count == n
        assert len(h.samples) < SAMPLE_CAP  # bounded memory
        assert h.min == 0.0 and h.max == float(n - 1)
        # stride-doubled decimation keeps the sample evenly spread, so
        # percentiles stay within a few percent of the true values
        assert h.percentile(50.0) == pytest.approx(n / 2, rel=0.05)
        assert h.percentile(99.0) == pytest.approx(n * 0.99, rel=0.05)

    def test_snapshot_reports_percentile_fields(self):
        registry = MetricsRegistry(enabled=True)
        for value in (1.0, 2.0, 3.0, 10.0):
            registry.histogram("knn.verified_per_query").observe(value)
        snap = registry.snapshot()["histograms"]["knn.verified_per_query"]
        assert snap["p50"] == 2.0
        assert snap["p90"] == 10.0
        assert snap["p99"] == 10.0

    def test_summary_rows_render_percentiles(self):
        with obs.capture():
            obs.observe("knn.verified_per_query", 4.0)
            report = RunReport.collect()
        (row,) = [r for r in report.summary_rows() if r["kind"] == "histogram"]
        assert "p50=4" in row["value"] and "p99=4" in row["value"]


class TestSchemaCompat:
    def test_v1_reports_still_load(self):
        assert "repro.obs/1" in COMPATIBLE_SCHEMAS
        payload = {
            "schema": "repro.obs/1",
            "meta": {},
            "counters": {"knn.queries": 2},
            "gauges": {},
            # v1 histograms predate the percentile fields
            "histograms": {
                "knn.verified_per_query": {
                    "count": 2, "sum": 6.0, "min": 2.0, "max": 4.0, "mean": 3.0,
                }
            },
            "spans": [],
        }
        report = RunReport.from_dict(payload)
        assert report.counters["knn.queries"] == 2
        (row,) = [r for r in report.summary_rows() if r["kind"] == "histogram"]
        assert "p50=" not in row["value"]  # renders without the missing fields
        names = {r["name"] for r in report.trial_metrics()}
        assert "knn.verified_per_query/mean" in names
        assert "knn.verified_per_query/p50" not in names

    def test_current_schema_round_trips(self):
        with obs.capture():
            obs.observe("knn.verified_per_query", 1.0)
            report = RunReport.collect()
        again = RunReport.from_json(report.to_json())
        assert again.schema == SCHEMA_VERSION
        assert again.histograms == report.histograms


class TestTrialMetricsContract:
    def test_flattening_kinds_and_order(self):
        with obs.capture():
            obs.count("knn.queries", 3)
            obs.gauge_set("shard.count", 2.0)
            obs.observe("knn.verified_per_query", 5.0)
            with obs.span("experiments.trial"):
                pass
            report = RunReport.collect()
        rows = report.trial_metrics()
        assert rows == sorted(rows, key=lambda r: (r["kind"], r["name"]))
        by_name = {r["name"]: r for r in rows}
        assert by_name["knn.queries"]["kind"] == "counter"
        assert by_name["knn.queries"]["value"] == 3.0
        assert by_name["shard.count"]["kind"] == "gauge"
        for field in RunReport.HISTOGRAM_FIELDS:
            assert by_name[f"knn.verified_per_query/{field}"]["kind"] == "histogram"
        assert by_name["knn.verified_per_query/p50"]["value"] == 5.0
        assert by_name["experiments.trial/calls"]["kind"] == "span"
        assert by_name["experiments.trial/calls"]["value"] == 1.0
