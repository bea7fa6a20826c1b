"""In-memory spans recorded by the benchmark around calls into each layer.

The traced pass wraps each call it makes into a layer's public function in a
span ``{name, start, end, parent, op_id}``.  Spans nest by call order on a
stack, stay in memory for the whole run and are written once at exit.  A
layer's *self time* is its spans' durations minus the part their children
cover; the root span of an operation is named :data:`ROOT`, so its self time
is what no layer accounts for.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

ROOT = "op"


class Tracer:
    """A span recorder; not thread-safe (the traced pass is one caller)."""

    def __init__(self):
        self.spans: "List[dict]" = []
        self._stack: "List[int]" = []
        self._op_id: "Optional[int]" = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op_id": self._op_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """The root span of one replayed operation."""
        self._op_id = op_id
        try:
            with self.span(ROOT) as record:
                yield record
        finally:
            self._op_id = None

    @contextmanager
    def patched(self, owner, attribute: str, name: str):
        """Record every ``owner.attribute(...)`` call as a ``name`` span.

        For calls a layer makes inside another layer's function, where the
        benchmark cannot put a ``with`` around them.  The wrapper shadows the
        method on the instance only and is removed on the way out.
        """
        function = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        setattr(owner, attribute, traced)
        try:
            yield
        finally:
            delattr(owner, attribute)

    # -- reading -----------------------------------------------------------
    def self_seconds(self) -> "Dict[str, float]":
        """Total self time per span name (duration minus direct children)."""
        child_time = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: "Dict[str, float]" = defaultdict(float)
        for index, record in enumerate(self.spans):
            totals[record["name"]] += record["end"] - record["start"] - child_time[index]
        return dict(totals)

    def durations(self, name: str) -> "List[float]":
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))
