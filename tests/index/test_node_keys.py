"""DBCH node keys from one batch pass equal the scalar rule, bit for bit.

``DBCHTree.node_keys`` stacks every node's hull pair once and measures a
query against all of them with the suite's ``pairwise_batch``; a tree walk
then reads each node's key by ``node.slot``.  Every key must equal
``node_distance`` exactly — for every method with a batch pairwise
distance, on bulk-built and insertion-grown trees, after inserts and
deletes that split and condense, and under a snapshot pinned while inserts
queue — and walks keyed that way must answer, and count, exactly as the
scalar SEQUENTIAL walk on sharded and reopened backends.
"""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.engine import ExecutionMode, QueryOptions
from repro.index import SeriesDatabase
from repro.io import open_database
from repro.kinds import IndexKind
from repro.reduction import REDUCERS
from repro.serving import ShardedEngine
from repro.storage import DiskBackedDatabase
from tests.engine.test_equivalence import assert_same_accounting, mid_radius, range_walk
from tests.stored_modes import STORED_MODES, with_stored_mode

LENGTH = 48

#: every method whose suite has a ``pairwise_batch``; the adaptive ones
#: as built and reopened from homes that stored each old ``distance_mode``
#: (see :mod:`tests.stored_modes`)
CONFIGS = [
    pytest.param(name, mode, id=f"{name}-{mode}")
    for name in ("SAPLA", "APLA", "APCA")
    for mode in STORED_MODES
] + [pytest.param(name, "lb", id=name) for name in ("PAA", "PLA", "PAALM")]


def dataset(count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, LENGTH)).cumsum(axis=1)


def build(name, mode, data, bulk=True, db_class=SeriesDatabase, **kwargs):
    db = db_class(REDUCERS[name](8), index=IndexKind.DBCH, **kwargs)
    db.ingest(data, bulk=bulk)
    return with_stored_mode(db, mode, bulk=bulk)


def queries_for(data):
    return np.stack([data[3] + 0.1, data[0], dataset(1, seed=99)[0]])


def assert_keys_are_node_distances(db, tree, queries):
    """Every node's batch key is its scalar ``node_distance``, to the bit."""
    nodes = list(tree.iter_nodes())
    for query in queries:
        ctx = db.query_context(query)
        keys = tree.node_keys(ctx.representation, db.suite.pairwise_batch)
        assert len(keys) == len(nodes)
        batch = np.array([keys[node.slot] for node in nodes])
        scalar = np.array([tree.node_distance(ctx.representation, node) for node in nodes])
        assert batch.tobytes() == scalar.tobytes()
    assert sorted(node.slot for node in nodes) == list(range(len(nodes)))


def node_count(tree):
    return sum(1 for _ in tree.iter_nodes())


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "grown"])
@pytest.mark.parametrize("name,mode", CONFIGS)
def test_batch_keys_equal_node_distance(name, mode, bulk):
    data = dataset(40, seed=3)
    db = build(name, mode, data, bulk=bulk)
    assert db.tree.height > 2
    assert_keys_are_node_distances(db, db.tree, queries_for(data))


@pytest.mark.parametrize(
    "name,mode", [("SAPLA", "lb"), ("APCA", "par"), ("PAA", "par")]
)
def test_keys_follow_splits_and_condenses(name, mode):
    """Each insert and delete drops the stacked hulls; the next query
    restacks the tree as it now is."""
    data = dataset(60, seed=5)
    queries = queries_for(data)
    db = build(name, mode, data[:12])
    assert_keys_are_node_distances(db, db.tree, queries)
    with obs.capture() as session:
        for row in data[12:]:
            db.insert(row)
            assert_keys_are_node_distances(db, db.tree, queries[:1])
    assert session.report().counters["dbch.splits"] > 0
    peak = node_count(db.tree)
    live = list(range(len(data)))
    first = live[::2] + live[1::4]
    for series_id in first:
        db.delete(series_id)
        assert_keys_are_node_distances(db, db.tree, queries[:1])
    assert node_count(db.tree) < peak
    rest = [i for i in live if i not in first]
    assert len(db) == len(rest)
    for series_id in rest:
        db.delete(series_id)
    assert len(db) == 0
    assert_keys_are_node_distances(db, db.tree, queries)  # empty root: 0.0


def test_pinned_snapshot_keys_describe_the_pinned_tree():
    data = dataset(50, seed=7)
    queries = queries_for(data)
    db = build("SAPLA", "lb", data[:30])
    before = db.knn_batch(queries, QueryOptions(k=4)).results
    view = db.snapshot()
    try:
        nodes = node_count(view.tree)
        for row in data[30:]:
            db.insert(row)  # deferred while the view is pinned
        assert node_count(view.tree) == nodes
        assert_keys_are_node_distances(db, view.tree, queries)
        pinned = view.engine().knn_batch(queries, QueryOptions(k=4)).results
        for a, b in zip(pinned, before):
            assert_same_accounting(a, b)
    finally:
        view.release()
    assert node_count(db.tree) > nodes
    assert_keys_are_node_distances(db, db.tree, queries)
    assert db.knn(data[45], 1).ids == [45]


def test_concurrent_readers_share_the_hull_store_while_a_writer_inserts():
    """Readers race to build and read one tree's hull store while inserts
    land between their pins: every answer and counter equals the SEQUENTIAL
    walk of the tree at the reader's pinned generation."""
    data = dataset(38, seed=13)
    base, extra = data[:30], data[30:]
    queries = queries_for(data)
    db = build("SAPLA", "lb", base)
    first = db.generation
    seen, errors = [], []

    def read():
        try:
            for _ in range(15):
                batch = db.knn_batch(queries, QueryOptions(k=4))
                seen.append((batch.generation, batch.results))
        except Exception as exc:  # re-raised in the test thread below
            errors.append(exc)

    def write():
        for row in extra:
            db.insert(row)

    threads = [threading.Thread(target=read) for _ in range(4)]
    threads.append(threading.Thread(target=write))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    assert len(seen) == 60
    references = {}
    for generation, results in seen:
        if generation not in references:
            reference = build("SAPLA", "lb", base)
            for row in extra[: generation - first]:
                reference.insert(row)
            references[generation] = reference.knn_batch(
                queries, QueryOptions(k=4, mode=ExecutionMode.SEQUENTIAL)
            ).results
        for a, b in zip(results, references[generation]):
            assert_same_accounting(a, b)


def assert_matches_sequential(engine, queries, k=5):
    keyed = engine.knn_batch(queries, QueryOptions(k=k))
    scalar = engine.knn_batch(queries, QueryOptions(k=k, mode=ExecutionMode.SEQUENTIAL))
    for a, b in zip(keyed.results, scalar.results):
        assert_same_accounting(a, b)
        assert a.nodes_visited > 0


@pytest.mark.parametrize("name,mode", [("SAPLA", "lb"), ("SAPLA", "par")])
def test_two_shard_engine_matches_sequential(name, mode):
    data = dataset(60, seed=9)
    queries = queries_for(data)
    sharded = ShardedEngine.from_database(build(name, mode, data), 2)
    assert_matches_sequential(sharded, queries)
    radius = mid_radius(data, queries[0])
    for shard in sharded.shards:
        assert shard.index_kind is IndexKind.DBCH
        assert range_walk(shard, queries[0], radius, True) == range_walk(
            shard, queries[0], radius, False
        )
    truth = np.linalg.norm(data - queries[0], axis=1)
    assert sorted(sharded.range_query(queries[0], radius).ids) == sorted(
        np.flatnonzero(truth <= radius).tolist()
    )


def test_reopened_disk_home_matches_sequential(tmp_path):
    data = dataset(60, seed=11)
    queries = queries_for(data)
    db = build(
        "SAPLA", "lb", data, db_class=DiskBackedDatabase, store_path=tmp_path / "rows.bin"
    )
    db.save(tmp_path / "home")
    reopened = open_database(tmp_path / "home")
    assert reopened.tree is not None
    assert_keys_are_node_distances(reopened, reopened.tree, queries)
    assert_matches_sequential(reopened, queries)
    for query in queries:
        radius = mid_radius(data, query)
        assert range_walk(reopened, query, radius, True) == range_walk(
            reopened, query, radius, False
        )
