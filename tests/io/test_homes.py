"""Every committed home still opens, answers exactly and re-saves.

The corpus under ``homes/v1/`` (written by ``homes/write_v1.py``) plus the
subscription home ``tests/continuous/homes/v1/home`` pin what an *old*
home reads as: each is opened from a copy with the current code, its 8
pinned queries are answered one per call, and

* every answer equals the NumPy brute force over the home's live rows
  (row-wise norm, ``(distance, id)`` order);
* a home saved without ``"distance_mode": "par"`` keeps its pinned ids,
  distances and :class:`repro.index.KNNResult` counters.  The homes saved
  under Dist_PAR reopen with Dist_LB, the one adaptive query bound, so
  their counters move, and their answers change only where Dist_PAR had
  dismissed a true neighbour: query 6 of ``memory-sapla-par-dbch`` and of
  ``memory-sapla-par-wal`` (pinned ids 16, 18, 8, 21; now 16, 17, 18, 8);
* the home re-saves to a new directory and reopens to the same answers.

Committed homes are never edited or regenerated; a format change adds a
``v2/`` beside ``v1/``.
"""

import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.engine import QueryOptions
from repro.io import open_database
from repro.serving import MANIFEST_FILENAME, ShardedEngine

CORPUS = pathlib.Path(__file__).parent / "homes" / "v1"
CONTINUOUS_HOME = pathlib.Path(__file__).parents[1] / "continuous" / "homes" / "v1" / "home"
EXPECTED = json.loads((CORPUS / "expected.json").read_text())
COUNTERS = ("n_verified", "n_total", "nodes_visited", "n_candidates", "node_pushes", "heap_pushes")


def _source(name: str) -> pathlib.Path:
    return CONTINUOUS_HOME if name == "continuous-v1" else CORPUS / name


def _saved_with_par(home: pathlib.Path) -> bool:
    """Whether the home's config (or manifest) names the Dist_PAR bound."""
    config = home / MANIFEST_FILENAME
    if not config.exists():
        config = home / "config.json"
    return json.loads(config.read_text()).get("distance_mode") == "par"


def _open(home: pathlib.Path):
    if (home / MANIFEST_FILENAME).exists():
        return ShardedEngine.open(home)
    return open_database(home)


def _close(target) -> None:
    if isinstance(target, ShardedEngine):
        target.close()
    elif target.wal is not None:
        target.wal.close()


def _live_rows(target):
    """``(ids, rows)`` of every live series, ascending by global id."""
    shards = target.shards if isinstance(target, ShardedEngine) else [target]
    n = len(shards)
    rows = {
        e.series_id * n + s: np.asarray(shard.data[e.series_id], dtype=float)
        for s, shard in enumerate(shards)
        for e in shard.entries
    }
    ids = np.array(sorted(rows), dtype=np.int64)
    return ids, np.stack([rows[i] for i in ids.tolist()])


def _answers(target, queries, k):
    out = []
    for query in queries:
        result = target.knn_batch(query[None, :], QueryOptions(k=k)).results[0]
        answer = {"ids": [int(i) for i in result.ids], "distances": [float(d) for d in result.distances]}
        answer.update({name: int(getattr(result, name)) for name in COUNTERS})
        out.append(answer)
    return out


@pytest.mark.parametrize("name", sorted(EXPECTED["homes"]))
def test_home_opens_answers_and_resaves(name, tmp_path):
    home = tmp_path / "home"
    shutil.copytree(_source(name), home)
    target = _open(home)
    try:
        ids, rows = _live_rows(target)
        queries = np.asarray(EXPECTED["queries"], dtype=float)[:, : rows.shape[1]]
        k = EXPECTED["k"]
        got = _answers(target, queries, k)
        for query, answer in zip(queries, got):
            truth = np.linalg.norm(rows - query, axis=1)
            order = np.lexsort((ids, truth))[:k]
            assert answer["ids"] == ids[order].tolist()
            assert answer["distances"] == truth[order].tolist()
        if not _saved_with_par(home):
            assert got == EXPECTED["homes"][name]

        target.save(tmp_path / "resaved")
    finally:
        _close(target)
    reopened = _open(tmp_path / "resaved")
    try:
        assert _answers(reopened, queries, k) == got
    finally:
        _close(reopened)
