"""Sharded scatter-gather == single engine, bit for bit.

The :class:`repro.serving.ShardedEngine` contract mirrors the batched
engine's: for every exact configuration (a true lower-bounding query
bound), any shard count, any index kind and cascade on or off, the merged
answers carry exactly the ids *and* distances of the unsharded engine —
including the stable ``(distance, id)`` tie-break on duplicates.  The
persistence half covers the sharded home round trip, per-shard WAL
recovery, and torn-prefix repair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.lifecycle import DurabilityOptions, FsyncPolicy
from repro.reduction import REDUCERS
from repro.serving import MANIFEST_FILENAME, ShardedEngine, partition_database
from tests.stored_modes import with_stored_mode

#: (reducer, stored ``distance_mode``): every query bound is a guaranteed
#: lower bound — each shard's top-k is exact over its rows, so the merge must
#: be exact too (mirrors tests/engine/test_equivalence.py; see
#: :mod:`tests.stored_modes` for the stored value)
EXACT_CONFIGS = [
    ("SAPLA", "lb"),
    ("APLA", "lb"),
    ("APCA", "lb"),
    ("PLA", "par"),
    ("PAA", "par"),
    ("PAALM", "par"),
    ("CHEBY", "par"),
    ("SAX", "par"),
]

SHARD_COUNTS = [1, 2, 4, 7]


def dataset(count=22, n=48, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


def build(name, index, data, mode="lb"):
    db = SeriesDatabase(REDUCERS[name](8), index=index)
    db.ingest(data)
    return with_stored_mode(db, mode)


def queries_for(data, seed=1, q=3):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(data), size=q)
    return data[picks] + rng.normal(scale=0.05, size=(q, data.shape[1]))


def assert_batches_identical(single, sharded):
    assert len(single.results) == len(sharded.results)
    for a, b in zip(single.results, sharded.results):
        assert a.ids == b.ids
        assert a.distances == b.distances


class TestBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        n_shards=st.sampled_from(SHARD_COUNTS),
        config=st.sampled_from(EXACT_CONFIGS),
        index=st.sampled_from([None, IndexKind.DBCH, IndexKind.RTREE]),
        cascade=st.booleans(),
        k=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=30),
    )
    def test_knn_batch_matches_single_engine(
        self, n_shards, config, index, cascade, k, seed
    ):
        name, mode = config
        data = dataset(seed=seed)
        db = build(name, index, data, mode)
        engine = ShardedEngine.from_database(db, n_shards)
        options = QueryOptions(k=k, cascade=cascade)
        queries = queries_for(data, seed=seed + 1)
        assert_batches_identical(
            db.knn_batch(queries, options), engine.knn_batch(queries, options)
        )

    @pytest.mark.parametrize("name,mode", EXACT_CONFIGS)
    @pytest.mark.parametrize("n_shards", [2, 5])
    def test_every_exact_config(self, name, mode, n_shards):
        data = dataset()
        db = build(name, None, data, mode)
        engine = ShardedEngine.from_database(db, n_shards)
        options = QueryOptions(k=7)
        queries = queries_for(data)
        assert_batches_identical(
            db.knn_batch(queries, options), engine.knn_batch(queries, options)
        )

    def test_duplicate_rows_tie_break(self):
        # identical rows force distance ties; the merge must resolve them
        # by global id exactly like the single engine does
        base = dataset(count=6)
        data = np.vstack([base, base, base])
        db = build("PAA", None, data)
        engine = ShardedEngine.from_database(db, 4)
        options = QueryOptions(k=9)
        assert_batches_identical(
            db.knn_batch(base[:3], options), engine.knn_batch(base[:3], options)
        )

    def test_range_query_matches_single_engine(self):
        data = dataset()
        db = build("PAA", None, data)
        engine = ShardedEngine.from_database(db, 3)
        query = data[4]
        radius = float(np.linalg.norm(data[4] - data[9])) + 1e-9
        a = db.range_query(query, radius)
        b = engine.range_query(query, radius)
        assert a.ids == b.ids
        assert a.distances == b.distances

    def test_generation_is_per_shard_tuple(self):
        db = build("PAA", None, dataset())
        engine = ShardedEngine.from_database(db, 3)
        batch = engine.knn_batch(dataset()[:2], QueryOptions(k=2))
        assert batch.generation == engine.generation
        assert len(batch.generation) == 3


class TestPartitionAndMutation:
    def test_round_robin_placement(self):
        db = build("PAA", None, dataset(count=10))
        shards = partition_database(db, 3)
        assert [s.count for s in shards] == [4, 3, 3]
        for s, shard in enumerate(shards):
            expected = np.asarray(db.data)[s::3]
            np.testing.assert_array_equal(np.asarray(shard.data), expected)

    def test_tombstones_carry_over(self):
        data = dataset(count=10)
        db = build("PAA", None, data)
        db.delete(4)
        db.delete(7)
        engine = ShardedEngine.from_database(db, 3)
        assert engine.count == 10
        assert len(engine) == 8
        options = QueryOptions(k=8)
        assert_batches_identical(
            db.knn_batch(data[:2], options), engine.knn_batch(data[:2], options)
        )

    def test_insert_routes_and_stays_identical(self):
        data = dataset(count=9)
        extra = dataset(count=4, seed=5)
        db = build("PAA", None, data)
        engine = ShardedEngine.from_database(db, 3)
        for row in extra:
            gid_single = db.insert(row)
            gid_sharded = engine.insert(row)
            assert gid_single == gid_sharded
            assert engine.shard_of(gid_sharded) == gid_sharded % 3
        options = QueryOptions(k=6)
        assert_batches_identical(
            db.knn_batch(extra, options), engine.knn_batch(extra, options)
        )

    def test_delete_global_id(self):
        data = dataset(count=9)
        db = build("PAA", None, data)
        engine = ShardedEngine.from_database(db, 2)
        assert engine.delete(5)
        assert not engine.delete(5)  # already tombstoned
        assert not engine.delete(99)  # never allocated
        db.delete(5)
        assert_batches_identical(
            db.knn_batch(data[:2], QueryOptions(k=8)),
            engine.knn_batch(data[:2], QueryOptions(k=8)),
        )

    def test_rejects_non_prefix_shards(self):
        data = dataset(count=9)
        shards = partition_database(build("PAA", None, data), 3)
        shards[2].insert(data[0])  # shard 2 gets ahead of shard 1
        with pytest.raises(ValueError, match="round-robin prefix"):
            ShardedEngine(shards)


class TestPersistence:
    def durability(self):
        return DurabilityOptions(fsync=FsyncPolicy.ALWAYS)

    def seeded_home(self, tmp_path, n_shards=3, count=10):
        data = dataset(count=count)
        db = build("PAA", None, data)
        engine = ShardedEngine.from_database(db, n_shards)
        home = tmp_path / "home"
        engine.save(home)
        return home, data

    def test_save_open_round_trip(self, tmp_path):
        home, data = self.seeded_home(tmp_path)
        assert (home / MANIFEST_FILENAME).exists()
        reopened = ShardedEngine.open(home)
        assert reopened.n_shards == 3
        assert reopened.count == 10
        reference = build("PAA", None, data)
        assert_batches_identical(
            reference.knn_batch(data[:3], QueryOptions(k=5)),
            reopened.knn_batch(data[:3], QueryOptions(k=5)),
        )

    def test_wal_false_reopens_every_shard_without_a_log(self, tmp_path):
        # one row over two shards: shard 0 is checkpointed, shard 1 never was
        home, _ = self.seeded_home(tmp_path, n_shards=2, count=1)
        assert not (home / "shard-01" / "config.json").exists()
        engine = ShardedEngine.open(home, durability=DurabilityOptions(wal=False))
        assert [shard.wal is not None for shard in engine.shards] == [False, False]
        engine = ShardedEngine.open(home, durability=self.durability())
        assert [shard.wal is not None for shard in engine.shards] == [True, True]
        engine.close()

    def test_wal_recovery_without_checkpoint(self, tmp_path):
        home, data = self.seeded_home(tmp_path)
        engine = ShardedEngine.open(home, durability=self.durability())
        extra = dataset(count=5, seed=9)
        gids = [engine.insert(row) for row in extra]
        assert gids == [10, 11, 12, 13, 14]
        assert engine.delete(3)
        engine.close()

        recovered = ShardedEngine.open(home)
        assert recovered.count == 15
        assert len(recovered) == 14
        reference = build("PAA", None, np.vstack([data, extra]))
        reference.delete(3)
        assert_batches_identical(
            reference.knn_batch(extra, QueryOptions(k=6)),
            recovered.knn_batch(extra, QueryOptions(k=6)),
        )

    def test_checkpoint_truncates_wals(self, tmp_path):
        home, _ = self.seeded_home(tmp_path)
        engine = ShardedEngine.open(home, durability=self.durability())
        for row in dataset(count=3, seed=9):
            engine.insert(row)
        reports = engine.checkpoint()
        assert len(reports) == 3
        engine.close()
        recovered = ShardedEngine.open(home)
        assert recovered.count == 13

    def test_torn_prefix_is_trimmed(self, tmp_path):
        from repro.io import open_database

        home, data = self.seeded_home(tmp_path)
        # one shard gets a row the coordinator never acknowledged (a torn
        # cross-shard batch): opening must trim back to the longest
        # consistent round-robin prefix
        rogue = open_database(home / "shard-02", durability=self.durability())
        rogue.insert(dataset(count=1, seed=42)[0])
        rogue.wal.sync()
        rogue.wal.close()

        recovered = ShardedEngine.open(home)
        assert recovered.count == 10
        assert [s.count for s in recovered.shards] == [4, 3, 3]
        reference = build("PAA", None, data)
        assert_batches_identical(
            reference.knn_batch(data[:3], QueryOptions(k=5)),
            recovered.knn_batch(data[:3], QueryOptions(k=5)),
        )
        # and the trim is durable: reopening doesn't resurrect the row
        again = ShardedEngine.open(home)
        assert again.count == 10
