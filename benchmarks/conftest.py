"""Shared fixtures for the figure/table benchmarks.

Scale knobs (defaults are CI-sized; see DESIGN.md for the full-grid knobs):

    REPRO_LENGTH, REPRO_SERIES, REPRO_QUERIES, REPRO_DATASETS,
    REPRO_COEFFICIENTS, REPRO_KS, REPRO_APLA_MAX_LENGTH

Each bench renders its figure's rows as a table; tables are written to
``benchmarks/results/`` and echoed in the terminal summary.  Every bench
also captures the observability layer through the :func:`bench_report`
fixture and drops a machine-readable ``<name>.report.json``
(:class:`repro.obs.RunReport`) next to its table — pass ``--no-report``
to skip the JSON artifacts.

The batch, ingest, serving and continuous workloads are not benches here:
they are ``repro.experiments`` workload families, run and gated by the
committed specs under ``benchmarks/specs/`` (``repro experiment run``).
"""

from __future__ import annotations

import contextlib
import pathlib

import pytest

from repro import obs
from repro.bench import config_from_env, render_table, run_index_grid
from repro.obs import RunReport

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_TABLES: "list[str]" = []


def pytest_addoption(parser):
    group = parser.getgroup("repro", "repro benchmark artifacts")
    group.addoption(
        "--report",
        dest="emit_reports",
        action="store_true",
        default=True,
        help="write <bench>.report.json observability artifacts (default)",
    )
    group.addoption(
        "--no-report",
        dest="emit_reports",
        action="store_false",
        help="skip the <bench>.report.json observability artifacts",
    )


def publish_table(name: str, title: str, rows) -> None:
    """Render, persist and queue a results table for the terminal summary."""
    text = render_table(title, rows)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    _TABLES.append(text)


def publish_report(name: str, report: RunReport) -> pathlib.Path:
    """Persist a RunReport next to the bench's table (``<name>.report.json``)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return report.save(RESULTS_DIR / f"{name}.report.json")


def pytest_terminal_summary(terminalreporter):
    for text in _TABLES:
        terminalreporter.write_line(text)


@pytest.fixture
def bench_report(request):
    """Capture obs around a bench body and publish its ``.report.json``.

    Usage::

        with bench_report("fig10_distance_ordering", rows=rows) as session:
            ...  # measured work; obs enabled, under span "bench.run"

    Extra keyword arguments land in the report's ``meta``; mutable values
    (e.g. the ``rows`` list the bench appends to) are read at exit, so they
    may be filled inside the block.  ``--no-report`` keeps the capture (the
    bench still runs identically) but skips writing the artifact.
    """

    @contextlib.contextmanager
    def _capture(name: str, **meta):
        with obs.capture() as session:
            with obs.span("bench.run"):
                yield session
        if request.config.getoption("emit_reports"):
            publish_report(name, session.report(meta={"bench": name, **meta}))

    return _capture


@pytest.fixture(scope="session")
def config():
    return config_from_env()


@pytest.fixture(scope="session")
def index_grid(config):
    """The Figs. 13-16 record grid, computed once per session."""
    return run_index_grid(config)
