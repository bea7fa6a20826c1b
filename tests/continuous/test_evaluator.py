"""Incremental evaluation per watch kind + the delivery-order guarantee.

Each kind's delta path must leave the maintained frontier bit-identical
to the one-shot engine answer on the mutated database; delivery must sink
before it acks, so a failed sink never advances the acked seq.
"""

import numpy as np
import pytest

from repro.continuous import ContinuousEvaluator, KnnWatch, RangeWatch
from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.reduction import PAA
from repro.serving import ShardedEngine

LENGTH = 32


def make_db(count=16, seed=0):
    rng = np.random.default_rng(seed)
    db = SeriesDatabase(PAA(8), index=None)
    db.ingest(rng.normal(size=(count, LENGTH)).cumsum(axis=1))
    return db


def collect(evaluator, query):
    notes = []
    sid = evaluator.subscribe(query, sink=notes.append)
    return sid, notes


class TestKnnWatch:
    def test_initial_snapshot_matches_scratch(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[0] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=4))
        reference = db.knn_batch(query[None, :], QueryOptions(k=4)).results[0]
        assert len(notes) == 1 and notes[0].full and notes[0].seq == 1
        assert list(notes[0].ids) == list(reference.ids)
        assert list(notes[0].distances) == list(reference.distances)

    def test_near_insert_enters_the_frontier_as_a_delta(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[3] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=4))
        gid = evaluator.insert(query + 0.001)
        assert len(notes) == 2
        delta = notes[1]
        assert not delta.full and delta.added == (gid,) and len(delta.removed) == 1
        reference = db.knn_batch(query[None, :], QueryOptions(k=4)).results[0]
        assert list(delta.ids) == list(reference.ids)
        assert list(delta.distances) == list(reference.distances)

    def test_far_insert_is_silent_once_the_frontier_is_full(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[3] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=4))
        evaluator.insert(query + 1e6)  # far beyond the kept top-k
        assert len(notes) == 1  # only the initial snapshot

    def test_frontier_delete_triggers_a_full_rerun(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[5] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=4))
        victim = notes[0].ids[0]
        assert evaluator.delete(victim)
        assert len(notes) == 2
        note = notes[1]
        assert note.full and victim in note.removed
        reference = db.knn_batch(query[None, :], QueryOptions(k=4)).results[0]
        assert list(note.ids) == list(reference.ids)
        assert list(note.distances) == list(reference.distances)

    def test_delete_outside_the_frontier_is_silent(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[5] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=2))
        reference = db.knn_batch(query[None, :], QueryOptions(k=16)).results[0]
        outsider = reference.ids[-1]  # live, but nowhere near the top-2
        assert outsider not in notes[0].ids
        assert evaluator.delete(outsider)
        assert len(notes) == 1


class TestRangeWatch:
    def test_membership_uses_the_engine_distance_primitive(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[2] + 0.01
        radius = float(
            db.knn_batch(query[None, :], QueryOptions(k=3)).results[0].distances[-1]
        ) + 0.25
        sid, notes = collect(evaluator, RangeWatch(query=query, radius=radius))
        reference = db.range_query(query, radius)
        assert list(notes[0].ids) == list(reference.ids)
        assert list(notes[0].distances) == list(reference.distances)

        row = query + 0.002
        gid = evaluator.insert(row)
        delta = notes[-1]
        assert delta.added == (gid,)
        # the incremental distance is the row-wise norm every search verifies with
        assert dict(zip(delta.ids, delta.distances))[gid] == float(
            np.linalg.norm(row[None, :] - query[None, :], axis=1)[0]
        )
        reference = db.range_query(query, radius)
        assert list(delta.ids) == list(reference.ids)
        assert list(delta.distances) == list(reference.distances)

    def test_out_of_radius_insert_and_member_delete(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[2] + 0.01
        radius = float(
            db.knn_batch(query[None, :], QueryOptions(k=3)).results[0].distances[-1]
        ) + 0.25
        sid, notes = collect(evaluator, RangeWatch(query=query, radius=radius))
        evaluator.insert(query + 1e6)
        assert len(notes) == 1  # outside the radius: silent

        member = notes[0].ids[0]
        assert evaluator.delete(member)
        assert notes[-1].removed == (member,)
        reference = db.range_query(query, radius)
        assert list(notes[-1].ids) == list(reference.ids)
        assert list(notes[-1].distances) == list(reference.distances)


def batch_rows():
    """Eight rows, three of them near the watched base row, that move
    every kind of watch in :data:`BATCH_WATCHES`."""
    rng = np.random.default_rng(21)
    base = np.asarray(make_db().data)[3]
    wave = np.sin(np.linspace(0, 4 * np.pi, LENGTH))
    rows = [base + rng.normal(scale=0.01, size=LENGTH) for _ in range(3)]
    rows += [wave.copy() for _ in range(3)]
    planted = rng.normal(size=LENGTH).cumsum() + 50.0
    planted[10:18] = np.sin(np.linspace(0.0, 3.0, 8))
    spike = wave.copy()
    spike[12:20] += 8.0
    return np.vstack(rows + [planted, spike])


BATCH_WATCHES = {
    "knn": lambda base: KnnWatch(query=base, k=4),
    "range": lambda base: RangeWatch(query=base, radius=1.0),
}
BATCH_TARGETS = {
    "memory": make_db,
    "sharded2": lambda: ShardedEngine.from_database(make_db(), 2),
}


class TestInsertBatch:
    @pytest.mark.parametrize("target", BATCH_TARGETS)
    @pytest.mark.parametrize("kind", BATCH_WATCHES)
    def test_notifications_match_a_loop_of_insert(self, kind, target):
        def run(ingest):
            evaluator = ContinuousEvaluator(BATCH_TARGETS[target]())
            base = np.asarray(make_db().data)[3]
            sid, notes = collect(evaluator, BATCH_WATCHES[kind](base))
            ingest(evaluator, batch_rows())
            # everything but ``generation``: a batch lands whole, so its
            # notifications all carry the post-batch generation
            return [
                (n.seq, n.kind, n.ids, n.distances, n.added, n.removed, n.full)
                for n in notes
            ]

        looped = run(lambda evaluator, rows: [evaluator.insert(row) for row in rows])
        batched = run(lambda evaluator, rows: evaluator.insert_batch(rows))
        assert len(looped) > 2, "the rows never moved this watch"
        assert batched == looped


class TestDeliveryGuarantee:
    def test_sink_failure_leaves_the_seq_unacked_and_resync_reemits(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[1] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=3))
        acked = evaluator.registry.get(sid).seq
        assert acked == 1  # the initial snapshot was delivered and acked

        def broken_sink(note):
            raise ConnectionResetError("consumer went away mid-delivery")

        evaluator.attach_sink(sid, broken_sink)
        with pytest.raises(ConnectionResetError):
            evaluator.insert(query + 0.001)
        assert evaluator.registry.get(sid).seq == acked  # sink first, ack second

        # recovery: resync re-emits the lost delta with the seq it would
        # have carried, so a seq-deduplicating consumer converges
        evaluator.attach_sink(sid, notes.append)
        emitted = evaluator.resync(sid)
        assert len(emitted) == 1 and emitted[0].seq == acked + 1
        reference = db.knn_batch(query[None, :], QueryOptions(k=3)).results[0]
        assert list(emitted[0].ids) == list(reference.ids)
        assert list(emitted[0].distances) == list(reference.distances)

    def test_resync_is_silent_when_everything_is_acked(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[1] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=3))
        evaluator.insert(query + 0.001)
        assert evaluator.resync() == []

    def test_refresh_always_reemits_a_full_snapshot(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[1] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=3))
        note = evaluator.refresh(sid)  # the post-backpressure catch-up path
        assert note is not None and note.full and note.seq == 2
        reference = db.knn_batch(query[None, :], QueryOptions(k=3)).results[0]
        assert list(note.ids) == list(reference.ids)
        assert list(note.distances) == list(reference.distances)
        assert evaluator.refresh("sub-999999") is None

    @pytest.mark.parametrize(
        "bad",
        [KnnWatch(query=np.zeros(LENGTH // 2), k=2), RangeWatch(query=np.zeros(LENGTH // 2), radius=1.0)],
        ids=["knn", "range"],
    )
    def test_a_subscribe_the_target_rejects_leaves_no_watch_behind(self, bad):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        sid, notes = collect(evaluator, KnnWatch(query=np.asarray(db.data)[1], k=3))
        with pytest.raises(ValueError):
            evaluator.subscribe(bad)  # wrong length: the first run raises
        assert list(evaluator.registry.subscriptions()) == [sid]
        evaluator.insert(np.asarray(db.data)[1] + 0.001)  # ingest keeps working
        assert len(notes) == 2

    @pytest.mark.parametrize(
        "bad",
        [KnnWatch(query=np.zeros(LENGTH // 2), k=2), RangeWatch(query=np.zeros(LENGTH // 2), radius=1.0)],
        ids=["knn", "range"],
    )
    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_a_wrong_length_watch_on_an_empty_target_refuses_rows_until_unsubscribed(
        self, bad, sharded
    ):
        """An empty target has no row to check a watch's query against, so
        the watch subscribes; the rows it could not measure are refused
        before they land, naming the subscription, and nothing else breaks."""
        db = SeriesDatabase(PAA(8), index=None)
        target = ShardedEngine([db, SeriesDatabase(PAA(8), index=None)]) if sharded else db
        evaluator = ContinuousEvaluator(target)
        good_sid, notes = collect(evaluator, KnnWatch(query=np.zeros(LENGTH), k=2))
        bad_sid = evaluator.subscribe(bad)
        rows = make_db(count=3).data
        with pytest.raises(ValueError, match=bad_sid):
            evaluator.insert(rows[0])
        with pytest.raises(ValueError, match=bad_sid):
            evaluator.insert_batch(rows[:2])
        assert target.count == 0 and len(notes) == 1
        assert evaluator.unsubscribe(bad_sid) is True
        assert evaluator.insert(rows[0]) == 0
        assert evaluator.insert_batch(rows[1:]) == [1, 2]
        assert target.count == 3
        reference = target.knn_batch(np.zeros((1, LENGTH)), QueryOptions(k=2)).results[0]
        assert list(notes[-1].ids) == list(reference.ids)
        assert list(evaluator.registry.subscriptions()) == [good_sid]

    def test_unsubscribe_stops_delivery(self):
        db = make_db()
        evaluator = ContinuousEvaluator(db)
        query = np.asarray(db.data)[1] + 0.01
        sid, notes = collect(evaluator, KnnWatch(query=query, k=3))
        assert evaluator.unsubscribe(sid) is True
        evaluator.insert(query + 0.001)
        assert len(notes) == 1
        assert evaluator.unsubscribe(sid) is False
