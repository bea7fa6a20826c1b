"""Schema-versioned run reports: registry snapshot + span tree as JSON.

A :class:`RunReport` is the machine-readable artefact one benchmark or CLI
run leaves behind (the ``BENCH_*.json`` trajectory format).  The schema is
versioned so downstream tooling can evolve without guessing: bump
``SCHEMA_VERSION`` whenever a field changes meaning, never silently.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from .registry import MetricsRegistry, registry
from .spans import SpanRecorder, recorder

__all__ = ["SCHEMA_VERSION", "COMPATIBLE_SCHEMAS", "RunReport"]

#: current schema: ``/2`` added p50/p90/p99 keys to every histogram summary.
SCHEMA_VERSION = "repro.obs/2"

#: schemas :meth:`RunReport.from_dict` still accepts.  ``/1`` reports lack
#: the percentile keys; readers must treat them as optional (``.get``).
COMPATIBLE_SCHEMAS = frozenset({"repro.obs/1", SCHEMA_VERSION})

PathLike = Union[str, pathlib.Path]


def _ms_display(name: str) -> "tuple[str, float]":
    """``(display name, scale)`` normalizing seconds-valued names to ms.

    ``*_s``-suffixed duration names render as ``*_ms`` with values scaled
    by 1000 so every duration in human-facing tables shares one unit;
    ``*_per_s`` names are rates, not durations, and pass through.  Used by
    :meth:`RunReport.summary_rows` and the experiment diff renderer —
    stored metric names never change.
    """
    if name.endswith("_s") and not name.endswith("_per_s"):
        return name[:-2] + "_ms", 1000.0
    return name, 1.0


@dataclass
class RunReport:
    """One run's metrics, spans and free-form metadata."""

    schema: str = SCHEMA_VERSION
    created_unix: float = 0.0
    meta: "Dict[str, object]" = field(default_factory=dict)
    counters: "Dict[str, int]" = field(default_factory=dict)
    gauges: "Dict[str, float]" = field(default_factory=dict)
    histograms: "Dict[str, Dict[str, float]]" = field(default_factory=dict)
    spans: "List[dict]" = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def collect(
        cls,
        meta: "Optional[Dict[str, object]]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        spans: "Optional[SpanRecorder]" = None,
    ) -> "RunReport":
        """Snapshot the (default) registry and recorder into a report."""
        snap = (metrics or registry()).snapshot()
        return cls(
            created_unix=time.time(),
            meta=dict(meta or {}),
            counters=snap["counters"],
            gauges=snap["gauges"],
            histograms=snap["histograms"],
            spans=(spans or recorder()).tree(),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data view of the report (inverse of :meth:`from_dict`)."""
        return {
            "schema": self.schema,
            "created_unix": self.created_unix,
            "meta": self.meta,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output; checks the schema."""
        schema = payload.get("schema")
        if schema not in COMPATIBLE_SCHEMAS:
            raise ValueError(
                f"unsupported report schema {schema!r} "
                f"(expected one of {sorted(COMPATIBLE_SCHEMAS)})"
            )
        return cls(
            schema=schema,
            created_unix=float(payload.get("created_unix", 0.0)),
            meta=dict(payload.get("meta", {})),
            counters={k: int(v) for k, v in payload.get("counters", {}).items()},
            gauges={k: float(v) for k, v in payload.get("gauges", {}).items()},
            histograms=dict(payload.get("histograms", {})),
            spans=list(payload.get("spans", ())),
        )

    def to_json(self, indent: "Optional[int]" = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Parse a report from a JSON string; checks the schema."""
        return cls.from_dict(json.loads(text))

    def save(self, path: PathLike) -> pathlib.Path:
        """Write the report to ``path`` and return it."""
        path = pathlib.Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "RunReport":
        """Read a report back from ``path``."""
        return cls.from_json(pathlib.Path(path).read_text())

    # ------------------------------------------------------------------
    def summary_rows(self) -> "List[Dict[str, object]]":
        """Flat name/kind/value rows (the `repro stats` table), name-sorted.

        Histogram *display* is unit-normalized: seconds-valued histograms
        (``*_s`` names, excluding ``*_per_s`` rates) render in milliseconds
        under a ``*_ms`` metric name, so every duration percentile in the
        table reads in the same unit.  Stored names and values are
        untouched.
        """
        rows: "List[Dict[str, object]]" = []
        for name, value in sorted(self.counters.items()):
            rows.append({"metric": name, "kind": "counter", "value": value})
        for name, value in sorted(self.gauges.items()):
            rows.append({"metric": name, "kind": "gauge", "value": round(value, 6)})
        for name, h in sorted(self.histograms.items()):
            shown, scale = _ms_display(name)
            text = (
                f"n={h['count']} mean={h['mean'] * scale:.4g} "
                f"min={h['min'] * scale:.4g} max={h['max'] * scale:.4g}"
            )
            if "p50" in h:  # schema /1 reports predate the percentile keys
                text += (
                    f" p50={h['p50'] * scale:.4g} p90={h['p90'] * scale:.4g}"
                    f" p99={h['p99'] * scale:.4g}"
                )
            rows.append({"metric": shown, "kind": "histogram", "value": text})
        return rows
