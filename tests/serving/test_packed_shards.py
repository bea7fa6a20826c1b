"""Shards pack their index on every whole-set build.

Partitioning, reopening a sharded home (checkpointed shards through
``open_database``, never-checkpointed ones from their WAL alone) and the
torn-prefix crash repair all build each shard's tree once, packed — so
every shard equals a fresh ``ingest(..., bulk=True)`` of its own live rows
and representations, keeps the tree invariants, and keeps them under
further inserts and deletes.
"""

import numpy as np

from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.index.dbch import DBCHTree
from repro.io import open_database
from repro.kinds import IndexKind
from repro.lifecycle import DurabilityOptions, FsyncPolicy
from repro.reduction import REDUCERS
from repro.serving import ShardedEngine, partition_database
from tests.io.test_reopen_packs import (
    LENGTH,
    check_invariants,
    packed_reference,
    tree_signature,
)

N_SHARDS = 3


def source(count=31, seed=0):
    rng = np.random.default_rng(seed)
    db = SeriesDatabase(
        REDUCERS["SAPLA"](6), index=IndexKind.DBCH
    )
    db.ingest(rng.normal(size=(count, LENGTH)).cumsum(axis=1))
    return db


def rows(count, seed):
    return np.random.default_rng(seed).normal(size=(count, LENGTH)).cumsum(axis=1)


def durability():
    return DurabilityOptions(fsync=FsyncPolicy.ALWAYS)


def assert_shards_packed(engine):
    for shard in engine.shards:
        if not shard.entries:
            continue
        assert tree_signature(shard.tree) == tree_signature(packed_reference(shard).tree)
        check_invariants(shard)


def mutate_and_check(engine, live, seed):
    """Insert eight rows, then delete every fifth live id; ``live`` lists
    the engine's live global ids before the inserts."""
    live = sorted(live)
    for row in rows(8, seed):
        live.append(engine.insert(row))
        for shard in engine.shards:
            check_invariants(shard)
    assert len(engine) == len(live)
    for gid in live[::5]:
        engine.delete(gid)
        for shard in engine.shards:
            check_invariants(shard)
    assert [len(s.tree) for s in engine.shards] == [len(s) for s in engine.shards]


def test_partition_packs_every_shard():
    db = source()
    db.delete(4)
    db.delete(13)
    shards = partition_database(db, N_SHARDS)
    for shard in shards:
        assert tree_signature(shard.tree) == tree_signature(packed_reference(shard).tree)
    engine = ShardedEngine(shards)
    mutate_and_check(engine, set(range(31)) - {4, 13}, seed=1)


def test_reopened_shards_are_packed_and_stay_valid(tmp_path):
    db = source()
    home = tmp_path / "home"
    ShardedEngine.from_database(db, N_SHARDS).save(home)
    engine = ShardedEngine.open(home, durability=durability())
    for row in rows(7, seed=2):
        engine.insert(row)
    engine.delete(5)
    engine.delete(33)
    engine.close()

    reopened = ShardedEngine.open(home)
    assert reopened.count == 38
    assert len(reopened) == 36
    assert_shards_packed(reopened)
    queries = rows(3, seed=3)
    reference = source()
    for row in rows(7, seed=2):
        reference.insert(row)
    reference.delete(5)
    reference.delete(33)
    a = reopened.knn_batch(queries, QueryOptions(k=6))
    b = reference.knn_batch(queries, QueryOptions(k=6))
    for ra, rb in zip(a.results, b.results):
        assert (ra.ids, ra.distances) == (rb.ids, rb.distances)
    mutate_and_check(reopened, set(range(38)) - {5, 33}, seed=4)


def test_a_never_checkpointed_shard_replays_then_packs(tmp_path, monkeypatch):
    # two rows over three shards: shard 2 is saved empty, so it comes back
    # from its WAL alone
    db = source(count=2)
    home = tmp_path / "home"
    ShardedEngine.from_database(db, N_SHARDS).save(home)
    engine = ShardedEngine.open(home, durability=durability())
    for row in rows(22, seed=5):
        engine.insert(row)
    engine.delete(8)
    engine.close()

    def refuse(self, entry):
        raise AssertionError("reopen must not insert into the tree")

    with monkeypatch.context() as patch:
        patch.setattr(DBCHTree, "insert", refuse)
        reopened = ShardedEngine.open(home)
    assert [s.count for s in reopened.shards] == [8, 8, 8]
    assert_shards_packed(reopened)
    mutate_and_check(reopened, set(range(24)) - {8}, seed=6)


def test_a_torn_prefix_repairs_into_a_packed_shard(tmp_path):
    db = source(count=20)
    home = tmp_path / "home"
    ShardedEngine.from_database(db, N_SHARDS).save(home)
    # shard 0 gets rows the coordinator never acknowledged
    rogue = open_database(home / "shard-00", durability=durability())
    rogue.insert_batch(rows(2, seed=7))
    rogue.wal.close()

    recovered = ShardedEngine.open(home)
    assert [s.count for s in recovered.shards] == [7, 7, 6]
    assert_shards_packed(recovered)
    queries = rows(3, seed=8)
    a = recovered.knn_batch(queries, QueryOptions(k=5))
    b = db.knn_batch(queries, QueryOptions(k=5))
    for ra, rb in zip(a.results, b.results):
        assert (ra.ids, ra.distances) == (rb.ids, rb.distances)
    mutate_and_check(recovered, range(20), seed=9)
