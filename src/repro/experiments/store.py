"""SQLite-backed results store for the experiment service.

Stdlib-``sqlite3`` only.  Four schema'd tables:

* ``experiments`` — one row per matrix execution (spec JSON, seed, time);
* ``trials`` — one row per executed trial: matrix axes, status, elapsed
  wall seconds, and the full schema-versioned RunReport JSON;
* ``metrics`` — flat scalar rows per trial: the RunReport flattened through
  its stable :meth:`repro.obs.RunReport.trial_metrics` contract (counters,
  gauges, histogram fields, span timings) plus the workload's ``derived``
  measurements;
* ``environment`` — interpreter/platform facts per experiment, so a
  regression can be told apart from a machine change.

The store is the queryable, machine-local perf trajectory: the runner
writes it and the report/diff commands read it.  What gets committed is the
``BENCH_*.json`` the runner distils from it.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sqlite3
import time
from typing import Dict, List, Optional, Union

from ..obs.report import RunReport
from .spec import ExperimentSpec, TrialSpec, spec_to_dict

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ResultsStore",
    "environment_facts",
]

#: bump when a table or column changes meaning; recorded in every store
STORE_SCHEMA_VERSION = 1

PathLike = Union[str, pathlib.Path]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_info (
    version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS experiments (
    id           INTEGER PRIMARY KEY,
    name         TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    spec_json    TEXT NOT NULL,
    created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    id            INTEGER PRIMARY KEY,
    experiment_id INTEGER NOT NULL REFERENCES experiments(id),
    trial_index   INTEGER NOT NULL,
    cell_key      TEXT NOT NULL,
    workload      TEXT NOT NULL,
    scale         TEXT NOT NULL,
    method        TEXT NOT NULL,
    coefficients  INTEGER NOT NULL,
    index_kind    TEXT NOT NULL,
    engine        TEXT NOT NULL,
    repeat        INTEGER NOT NULL,
    seed          INTEGER NOT NULL,
    status        TEXT NOT NULL,
    elapsed_s     REAL NOT NULL,
    report_schema TEXT NOT NULL,
    report_json   TEXT NOT NULL,
    created_unix  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics (
    trial_id INTEGER NOT NULL REFERENCES trials(id),
    name     TEXT NOT NULL,
    kind     TEXT NOT NULL,
    value    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS environment (
    experiment_id INTEGER NOT NULL REFERENCES experiments(id),
    key           TEXT NOT NULL,
    value         TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_trials_experiment ON trials(experiment_id);
CREATE INDEX IF NOT EXISTS idx_metrics_trial ON metrics(trial_id);
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics(name);
"""


def environment_facts() -> "Dict[str, object]":
    """Interpreter and platform facts recorded with every experiment.

    Numeric facts stay numbers (``cpu_count: 1``, not ``"1"``) so exported
    JSON reports are typed correctly; sqlite's TEXT affinity still stores
    them as text in the ``environment`` table.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def _typed_fact(value: str):
    """Recover a numeric environment fact from its TEXT-column string."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


class ResultsStore:
    """One sqlite database of experiments, trials, metrics and environment."""

    def __init__(self, path: PathLike):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        row = self._conn.execute("SELECT version FROM schema_info").fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO schema_info (version) VALUES (?)", (STORE_SCHEMA_VERSION,)
            )
        elif row["version"] != STORE_SCHEMA_VERSION:
            raise ValueError(
                f"store {self.path} has schema v{row['version']}, "
                f"this build reads v{STORE_SCHEMA_VERSION}"
            )
        self._conn.commit()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying sqlite connection."""
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def create_experiment(self, spec: ExperimentSpec) -> int:
        """Open a new experiment row (plus environment facts); returns its id."""
        cursor = self._conn.execute(
            "INSERT INTO experiments (name, seed, spec_json, created_unix) "
            "VALUES (?, ?, ?, ?)",
            (spec.name, spec.seed, json.dumps(spec_to_dict(spec)), time.time()),
        )
        experiment_id = int(cursor.lastrowid)
        self._conn.executemany(
            "INSERT INTO environment (experiment_id, key, value) VALUES (?, ?, ?)",
            [(experiment_id, k, v) for k, v in sorted(environment_facts().items())],
        )
        self._conn.commit()
        return experiment_id

    def record_trial(
        self,
        experiment_id: int,
        trial: TrialSpec,
        report: RunReport,
        derived: "Dict[str, float]",
        status: str = "ok",
        elapsed_s: float = 0.0,
    ) -> int:
        """Persist one trial row plus its flattened metric rows."""
        axes = trial.axes()
        cursor = self._conn.execute(
            "INSERT INTO trials (experiment_id, trial_index, cell_key, workload, "
            "scale, method, coefficients, index_kind, engine, repeat, seed, status, "
            "elapsed_s, report_schema, report_json, created_unix) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                experiment_id,
                trial.index,
                trial.cell_key,
                axes["workload"],
                axes["scale"],
                axes["method"],
                axes["coefficients"],
                axes["index_kind"],
                axes["engine"],
                axes["repeat"],
                axes["seed"],
                status,
                elapsed_s,
                report.schema,
                report.to_json(indent=None),
                time.time(),
            ),
        )
        trial_id = int(cursor.lastrowid)
        rows = [
            (trial_id, row["name"], row["kind"], row["value"])
            for row in report.trial_metrics()
        ]
        rows.extend(
            (trial_id, name, "derived", float(value))
            for name, value in sorted(derived.items())
        )
        self._conn.executemany(
            "INSERT INTO metrics (trial_id, name, kind, value) VALUES (?, ?, ?, ?)", rows
        )
        self._conn.commit()
        return trial_id

    # ------------------------------------------------------------------
    def experiments(self, name: "Optional[str]" = None) -> "List[sqlite3.Row]":
        """Experiment rows, oldest first, optionally filtered by spec name."""
        if name is None:
            query = "SELECT * FROM experiments ORDER BY id"
            return list(self._conn.execute(query))
        return list(
            self._conn.execute(
                "SELECT * FROM experiments WHERE name = ? ORDER BY id", (name,)
            )
        )

    def latest_experiment(self, name: "Optional[str]" = None) -> "Optional[sqlite3.Row]":
        """The most recent experiment row (by id), or ``None``."""
        rows = self.experiments(name)
        return rows[-1] if rows else None

    def trials(self, experiment_id: int) -> "List[sqlite3.Row]":
        """Trial rows of one experiment in execution order."""
        return list(
            self._conn.execute(
                "SELECT * FROM trials WHERE experiment_id = ? ORDER BY trial_index",
                (experiment_id,),
            )
        )

    def trial_metrics(self, trial_id: int) -> "Dict[str, float]":
        """All metric rows of one trial as ``{name: value}``."""
        return {
            row["name"]: row["value"]
            for row in self._conn.execute(
                "SELECT name, value FROM metrics WHERE trial_id = ? ORDER BY name",
                (trial_id,),
            )
        }

    def cell_metrics(
        self, experiment_id: int, kinds: "tuple[str, ...]" = ("derived",)
    ) -> "Dict[str, Dict[str, List[float]]]":
        """Per-cell metric series: ``{cell_key: {metric: [v per repeat]}}``."""
        query = (
            "SELECT t.cell_key AS cell_key, m.name AS name, m.value AS value "
            "FROM trials t JOIN metrics m ON m.trial_id = t.id "
            "WHERE t.experiment_id = ? AND t.status = 'ok' AND m.kind IN "
            f"({','.join('?' * len(kinds))}) ORDER BY t.trial_index, m.name"
        )
        out: "Dict[str, Dict[str, List[float]]]" = {}
        for row in self._conn.execute(query, (experiment_id, *kinds)):
            out.setdefault(row["cell_key"], {}).setdefault(row["name"], []).append(
                row["value"]
            )
        return out

    def environment(self, experiment_id: int) -> "Dict[str, object]":
        """The environment facts recorded with one experiment.

        Numeric facts (``cpu_count``) come back as numbers even though the
        TEXT column stores them as strings, so the round trip matches
        :func:`environment_facts`.
        """
        return {
            row["key"]: _typed_fact(row["value"])
            for row in self._conn.execute(
                "SELECT key, value FROM environment WHERE experiment_id = ? ORDER BY key",
                (experiment_id,),
            )
        }

