"""Read coalescing: admitted k-NN requests share one engine call.

Every test holds the engine's first ``knn_batch`` on a
:class:`threading.Event`, pipelines more requests behind it and waits until
the server has admitted them all, so when the held call returns they are
pending together and the dispatcher must answer them as one batch.  Nothing
is timed: the tests wait on the server's admitted population, not a clock.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro import obs
from repro.engine import ExecutionMode
from repro.index import SeriesDatabase
from repro.reduction import PAA, SAPLAReducer
from repro.serving import ReproServer, encode_frame, read_frame

from .test_server import LENGTH, call, run_session

FIELDS = ("ids", "distances", "n_verified", "n_total", "generation")


def make_db(reducer, index=None, n=40):
    rng = np.random.default_rng(3)
    database = SeriesDatabase(reducer, index=index)
    database.ingest(rng.normal(size=(n, LENGTH)).cumsum(axis=1))
    return database


@pytest.fixture(scope="module")
def paa_db():
    return make_db(PAA(8))


@pytest.fixture(scope="module")
def sapla_db():
    return make_db(SAPLAReducer(12))


class HeldEngine:
    """A database whose first ``knn_batch`` waits for ``release``; every
    call is recorded as ``(n_queries, options)``."""

    def __init__(self, db):
        self._db = db
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def knn_batch(self, queries, options):
        self.calls.append((len(queries), options))
        if not self.entered.is_set():
            self.entered.set()
            self.release.wait(timeout=5)
        return self._db.knn_batch(queries, options)

    def __getattr__(self, name):
        return getattr(self._db, name)


def knn_frame(rid, queries, k=3, **options):
    queries = np.atleast_2d(queries)
    return {"id": rid, "op": "knn", "queries": queries.tolist(), "k": k, **options}


async def admitted(server, n):
    """Return once ``n`` requests are admitted and unanswered; the timeout
    only turns a server that never gets there into a failure, not a hang."""

    async def poll():
        while server.in_flight < n:
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout=10)


async def hold_and_pipeline(engine, server, reader, writer, frames, early=0):
    """Send ``frames[0]`` and wait until the engine holds it, pipeline the
    rest, read the ``early`` replies that arrive while it is held, wait until
    every other request is admitted, release, and return
    ``(early replies, every reply by id)``."""
    loop = asyncio.get_running_loop()
    writer.write(encode_frame(frames[0]))
    await writer.drain()
    await loop.run_in_executor(None, engine.entered.wait, 30)
    for frame in frames[1:]:
        writer.write(encode_frame(frame))
    await writer.drain()
    before = [await read_frame(reader) for _ in range(early)]
    await admitted(server, len(frames) - early)
    engine.release.set()
    after = [await read_frame(reader) for _ in range(len(frames) - early)]
    return before, {reply["id"]: reply for reply in before + after}


def held_session(db, frames, early=0):
    engine = HeldEngine(db)

    async def client(reader, writer, server):
        return await hold_and_pipeline(engine, server, reader, writer, frames, early)

    before, replies = run_session(engine, client)
    return engine, before, replies


def one_at_a_time(db, frames):
    async def client(reader, writer, server):
        return {frame["id"]: await call(reader, writer, frame) for frame in frames}

    return run_session(db, client)


class TestCoalescing:
    @pytest.mark.parametrize(
        "reducer,index", [(PAA(8), None), (SAPLAReducer(12), None), (SAPLAReducer(12), "dbch")]
    )
    def test_replies_equal_one_at_a_time(self, reducer, index):
        db = make_db(reducer, index)
        queries = np.asarray(db.data)[:6] + 0.01
        frames = [knn_frame(i, query) for i, query in enumerate(queries)]
        engine, _, replies = held_session(db, frames)
        assert [n for n, _ in engine.calls] == [1, 5]
        reference = one_at_a_time(db, frames)
        for rid, expected in reference.items():
            assert replies[rid]["ok"], replies[rid]
            (got,), (want,) = replies[rid]["results"], expected["results"]
            for field in FIELDS:
                assert got[field] == want[field], (rid, field)

    def test_different_k_form_separate_calls(self, paa_db):
        queries = np.asarray(paa_db.data)[:5]
        frames = [knn_frame(i, query, k=2 + i % 2) for i, query in enumerate(queries)]
        engine, _, replies = held_session(paa_db, frames)
        assert sorted((n, opts.k) for n, opts in engine.calls[1:]) == [(2, 2), (2, 3)]
        for rid, reply in replies.items():
            assert len(reply["results"][0]["ids"]) == 2 + rid % 2

    def test_a_nan_query_errors_alone(self, paa_db):
        queries = np.asarray(paa_db.data)[:4].copy()
        queries[2, 5] = np.nan
        frames = [knn_frame(i, query) for i, query in enumerate(queries)]
        engine, _, replies = held_session(paa_db, frames)
        assert not replies[2]["ok"] and replies[2]["code"] == "bad_request"
        reference = one_at_a_time(paa_db, [frames[i] for i in (0, 1, 3)])
        for rid, expected in reference.items():
            assert replies[rid]["results"] == expected["results"]
        # the batch of three raised, then each member ran alone
        assert [n for n, _ in engine.calls] == [1, 3, 1, 1, 1]

    def test_sapla_scan_batches_reach_the_engine_vectorized(self, sapla_db):
        queries = np.asarray(sapla_db.data)[:5] + 0.01
        engine, _, replies = held_session(
            sapla_db, [knn_frame(i, query) for i, query in enumerate(queries)]
        )
        assert all(reply["ok"] for reply in replies.values())
        assert [n for n, _ in engine.calls] == [1, 4]
        assert all(opts.mode is ExecutionMode.VECTORIZED for _, opts in engine.calls)

    def test_deadline_multi_query_and_sequential_requests_run_alone(self, paa_db):
        data = np.asarray(paa_db.data)
        frames = [
            knn_frame(0, data[0]),
            knn_frame(1, data[1], deadline_s=30.0),
            knn_frame(2, data[2:4]),
            knn_frame(3, data[4], mode="sequential"),
            knn_frame(4, data[5]),
            knn_frame(5, data[6]),
        ]
        engine, before, replies = held_session(paa_db, frames, early=3)
        # answered while the coalesced call was still held
        assert sorted(reply["id"] for reply in before) == [1, 2, 3]
        assert all(reply["ok"] for reply in replies.values())
        alone = sorted((n, str(opts.mode), opts.deadline_s) for n, opts in engine.calls[1:4])
        assert alone == [(1, "auto", 30.0), (1, "sequential", None), (2, "auto", None)]
        (n, opts) = engine.calls[4]  # frames 4 and 5, after the release
        assert (n, opts.mode, len(engine.calls)) == (2, ExecutionMode.VECTORIZED, 5)

    def test_acknowledged_insert_is_visible_to_the_next_knn(self):
        engine = HeldEngine(make_db(PAA(8)))
        series = np.linspace(-3.0, 3.0, LENGTH)

        async def client(reader, writer, server):
            loop = asyncio.get_running_loop()
            writer.write(encode_frame(knn_frame(0, series)))
            await writer.drain()
            await loop.run_in_executor(None, engine.entered.wait, 30)
            ack = await call(reader, writer, {"id": 1, "op": "insert", "series": series.tolist()})
            frames = [knn_frame(2 + i, series, k=1) for i in range(3)]
            for frame in frames:
                writer.write(encode_frame(frame))
            await writer.drain()
            await admitted(server, 4)
            engine.release.set()
            replies = [await read_frame(reader) for _ in range(4)]
            return ack, {reply["id"]: reply for reply in replies}

        ack, replies = run_session(engine, client)
        assert ack["ok"] and ack["id"] == 1
        assert [n for n, _ in engine.calls] == [1, 3]
        for rid in (2, 3, 4):
            (result,) = replies[rid]["results"]
            assert result["ids"] == [ack["series_id"]]
            assert result["distances"] == [0.0]
            assert result["generation"] == ack["generation"]

    def test_batch_size_histogram_sees_the_coalesced_batch(self, paa_db):
        queries = np.asarray(paa_db.data)[:5]
        with obs.capture():
            held_session(paa_db, [knn_frame(i, query) for i, query in enumerate(queries)])
            sizes = obs.registry().snapshot()["histograms"]["engine.batch_size"]
        assert sizes["count"] == 2
        assert sizes["max"] == 4.0

    def test_stop_ends_the_dispatcher_and_every_pending_request(self, paa_db):
        engine = HeldEngine(paa_db)
        data = np.asarray(paa_db.data)

        async def main():
            server = ReproServer(engine)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for i in range(5):
                writer.write(encode_frame(knn_frame(i, data[i])))
            await writer.drain()
            await admitted(server, 5)
            engine.release.set()  # the pool must finish the held call to shut down
            await asyncio.wait_for(server.stop(), timeout=10)
            writer.close()
            return server.in_flight

        assert asyncio.run(main()) == 0
