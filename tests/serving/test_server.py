"""Loopback asyncio server: protocol, pipelining, admission control.

Each test runs one :class:`repro.serving.ReproServer` on an ephemeral
loopback port inside its own event loop (``asyncio.run``), talks to it
with raw length-prefixed frames, and asserts on the response envelopes —
including the ``overloaded`` shedding path, which is driven with an engine
that blocks until the test releases it.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.reduction import PAA
from repro.serving import (
    FrameError,
    ReproServer,
    ServerConfig,
    ShardedEngine,
    encode_frame,
    read_frame,
)

LENGTH = 32


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(0)
    database = SeriesDatabase(PAA(8), index=None)
    database.ingest(rng.normal(size=(30, LENGTH)).cumsum(axis=1))
    return database


def run_session(engine, client, config=None):
    """Start a server, run ``client(reader, writer, server)``, stop it."""

    async def main():
        server = ReproServer(engine, config or ServerConfig())
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                return await client(reader, writer, server)
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await server.stop()

    return asyncio.run(main())


async def call(reader, writer, frame):
    writer.write(encode_frame(frame))
    await writer.drain()
    return await read_frame(reader)


class TestProtocol:
    def test_ping_and_stats(self, db):
        async def client(reader, writer, server):
            pong = await call(reader, writer, {"id": 1, "op": "ping"})
            stats = await call(reader, writer, {"id": 2, "op": "stats"})
            return pong, stats

        pong, stats = run_session(db, client)
        assert pong == {"id": 1, "op": "ping", "ok": True, "pong": True}
        assert stats["ok"] and stats["server"]["shards"] == 1
        assert stats["server"]["max_in_flight"] == 64

    def test_knn_bit_identical_over_the_wire(self, db):
        queries = np.asarray(db.data)[:3] + 0.01
        reference = db.knn_batch(queries, QueryOptions(k=5))

        async def client(reader, writer, server):
            return await call(
                reader,
                writer,
                {"id": 7, "op": "knn", "queries": queries.tolist(), "k": 5},
            )

        reply = run_session(db, client)
        assert reply["ok"] and reply["id"] == 7
        for wire, local in zip(reply["results"], reference.results):
            assert wire["ids"] == local.ids
            assert wire["distances"] == local.distances  # exact: JSON doubles

    def test_knn_against_sharded_engine(self, db):
        queries = np.asarray(db.data)[:2]
        reference = db.knn_batch(queries, QueryOptions(k=4))
        engine = ShardedEngine.from_database(db, 3)

        async def client(reader, writer, server):
            return await call(
                reader,
                writer,
                {"id": 1, "op": "knn", "queries": queries.tolist(), "k": 4},
            )

        reply = run_session(engine, client)
        assert reply["ok"]
        for wire, local in zip(reply["results"], reference.results):
            assert wire["ids"] == local.ids
            assert wire["distances"] == local.distances
        assert reply["results"][0]["generation"] == list(engine.generation)

    def test_range_op(self, db):
        data = np.asarray(db.data)
        radius = float(np.linalg.norm(data[0] - data[1])) + 1e-9
        reference = db.range_query(data[0], radius)

        async def client(reader, writer, server):
            return await call(
                reader,
                writer,
                {"id": 3, "op": "range", "query": data[0].tolist(), "radius": radius},
            )

        reply = run_session(db, client)
        assert reply["ok"]
        assert reply["result"]["ids"] == reference.ids
        assert reply["result"]["distances"] == reference.distances
        assert reply["result"]["generation"] == db.generation

    def test_unknown_op_and_bad_payload(self, db):
        async def client(reader, writer, server):
            bad_op = await call(reader, writer, {"id": 1, "op": "shutdown"})
            bad_req = await call(reader, writer, {"id": 2, "op": "knn", "k": 3})
            return bad_op, bad_req

        bad_op, bad_req = run_session(db, client)
        assert bad_op == {
            "id": 1,
            "ok": False,
            "code": "bad_request",
            "error": "unknown op 'shutdown'",
        }
        assert not bad_req["ok"] and bad_req["code"] == "bad_request"

    def test_pipelined_responses_matched_by_id(self, db):
        queries = np.asarray(db.data)[:4]

        async def client(reader, writer, server):
            for i, query in enumerate(queries):
                writer.write(
                    encode_frame(
                        {"id": 100 + i, "op": "knn", "queries": [query.tolist()], "k": 1}
                    )
                )
            await writer.drain()
            return [await read_frame(reader) for _ in queries]

        replies = run_session(db, client)
        by_id = {r["id"]: r for r in replies}
        assert sorted(by_id) == [100, 101, 102, 103]
        for i in range(4):
            assert by_id[100 + i]["results"][0]["ids"] == [i]  # its own nearest

    def test_oversized_frame_drops_the_connection(self, db):
        config = ServerConfig(max_frame_bytes=256)

        async def client(reader, writer, server):
            big = {"id": 1, "op": "knn", "queries": [[0.0] * 500], "k": 1}
            writer.write(encode_frame(big))  # client cap is the default 32 MiB
            await writer.drain()
            return await read_frame(reader)

        assert run_session(db, client, config) is None  # server hung up

    def test_frame_error_round_trip_helpers(self):
        with pytest.raises(FrameError):
            encode_frame({"pad": "x" * 64}, max_frame_bytes=16)


class _BlockingEngine:
    """knn_batch blocks until released; lets a test fill the admission queue."""

    def __init__(self, db):
        self._db = db
        self.release = threading.Event()

    def knn_batch(self, queries, options):
        self.release.wait(timeout=30)
        return self._db.knn_batch(queries, options)

    def range_batch(self, queries, radius):
        return self._db.range_batch(queries, radius)


class TestAdmissionControl:
    def test_sheds_beyond_queue_depth(self, db):
        engine = _BlockingEngine(db)
        config = ServerConfig(max_in_flight=1, queue_depth=1)
        query = [np.asarray(db.data)[0].tolist()]

        async def client(reader, writer, server):
            for i in range(3):
                writer.write(
                    encode_frame({"id": i, "op": "knn", "queries": query, "k": 1})
                )
            await writer.drain()
            shed = await read_frame(reader)  # the third is shed immediately
            assert server.in_flight == 2  # one executing + one waiting
            engine.release.set()
            served = [await read_frame(reader) for _ in range(2)]
            return shed, served, server.peak_in_flight

        shed, served, peak = run_session(engine, client, config)
        assert shed == {
            "id": 2,
            "ok": False,
            "code": "overloaded",
            "error": "admission queue is full; retry later",
        }
        assert sorted(r["id"] for r in served) == [0, 1]
        assert all(r["ok"] for r in served)
        assert peak == 2  # capped at max_in_flight + queue_depth

    def test_ping_and_stats_bypass_admission(self, db):
        engine = _BlockingEngine(db)
        config = ServerConfig(max_in_flight=1, queue_depth=0)
        query = [np.asarray(db.data)[0].tolist()]

        async def client(reader, writer, server):
            # queue_depth=0: every query is shed, but control ops still answer
            shed = await call(
                reader, writer, {"id": 1, "op": "knn", "queries": query, "k": 1}
            )
            pong = await call(reader, writer, {"id": 2, "op": "ping"})
            stats = await call(reader, writer, {"id": 3, "op": "stats"})
            engine.release.set()
            return shed, pong, stats

        shed, pong, stats = run_session(engine, client, config)
        assert shed["code"] == "overloaded"
        assert pong["pong"] is True
        assert stats["server"]["queue_depth"] == 0

    def test_many_pipelined_queries_all_answered(self, db):
        n = 200
        queries = np.asarray(db.data)
        reference = {
            i: db.knn_batch(queries[i % 30][None, :], QueryOptions(k=3)).results[0]
            for i in range(30)
        }
        config = ServerConfig(max_in_flight=8, queue_depth=n)

        async def client(reader, writer, server):
            for i in range(n):
                writer.write(
                    encode_frame(
                        {
                            "id": i,
                            "op": "knn",
                            "queries": [queries[i % 30].tolist()],
                            "k": 3,
                        }
                    )
                )
            await writer.drain()
            replies = [await read_frame(reader) for _ in range(n)]
            return replies, server.peak_in_flight

        replies, peak = run_session(db, client, config)
        assert len(replies) == n
        for reply in replies:
            assert reply["ok"], reply
            local = reference[reply["id"] % 30]
            assert reply["results"][0]["ids"] == local.ids
            assert reply["results"][0]["distances"] == local.distances
        assert peak > 8  # the queue really did hold a population


class TestServerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            ServerConfig(queue_depth=-1)

    def test_port_zero_picks_a_free_port(self, db):
        async def client(reader, writer, server):
            return server.port

        assert run_session(db, client) > 0
