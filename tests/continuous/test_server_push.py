"""Loopback push frames: subscribe acks, notify routing, teardown.

Runs one :class:`ReproServer` per test on an ephemeral loopback port and
speaks raw length-prefixed frames, because the interleaving matters:
``notify`` push frames carry no ``id`` and may land before or after the
response frame of the request that caused them, so the client-side
contract — route by ``op`` first — is exercised exactly as written.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.continuous import KnnWatch, SubscriptionRegistry
from repro.continuous.registry import MAGIC
from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.lifecycle.recordfile import RecordFile
from repro.reduction import PAA
from repro.serving import (
    ReproServer,
    ServerConfig,
    ShardedEngine,
    encode_frame,
    read_frame,
)
from repro.serving.server import _Channel

LENGTH = 32


def make_db(count=20, seed=0):
    rng = np.random.default_rng(seed)
    db = SeriesDatabase(PAA(8), index=None)
    db.ingest(rng.normal(size=(count, LENGTH)).cumsum(axis=1))
    return db


def run_session(engine, client, config=None):
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


async def send(writer, frame):
    writer.write(encode_frame(frame))
    await writer.drain()


async def collect_until(reader, pred, limit=50):
    """Read frames until ``pred`` matches one; returns (frames, match)."""
    frames = []
    for _ in range(limit):
        frame = await read_frame(reader)
        frames.append(frame)
        if pred(frame):
            return frames, frame
    raise AssertionError(f"no matching frame in {limit}: {frames}")


def is_notify(frame):
    return frame.get("op") == "notify"


def is_reply(rid):
    return lambda frame: frame.get("id") == rid and frame.get("op") != "notify"


class TestSubscribeLifecycle:
    def test_subscribe_acks_and_pushes_the_initial_snapshot(self):
        db = make_db()
        query = np.asarray(db.data)[0] + 0.01

        async def client(reader, writer, server):
            await send(
                writer,
                {
                    "id": 1,
                    "op": "subscribe",
                    "query": KnnWatch(query=query, k=4).to_payload(),
                },
            )
            frames, ack = await collect_until(reader, is_reply(1))
            _, push = (
                ([], next(f for f in frames if is_notify(f)))
                if any(is_notify(f) for f in frames)
                else await collect_until(reader, is_notify)
            )
            return ack, push

        ack, push = run_session(db, client)
        assert ack["ok"] and ack["subscription_id"].startswith("sub-")
        assert "id" not in push  # pushes are unsolicited: routed by op
        assert push["ok"] and push["subscription_id"] == ack["subscription_id"]
        note = push["notification"]
        reference = db.knn_batch(query[None, :], QueryOptions(k=4)).results[0]
        assert note["full"] and note["seq"] == 1
        assert note["ids"] == [int(g) for g in reference.ids]
        assert note["distances"] == [float(d) for d in reference.distances]

    def test_insert_delta_and_delete_full_rerun_are_pushed(self):
        db = make_db()
        query = np.asarray(db.data)[3] + 0.01

        async def client(reader, writer, server):
            await send(
                writer,
                {
                    "id": 1,
                    "op": "subscribe",
                    "query": KnnWatch(query=query, k=3).to_payload(),
                },
            )
            await collect_until(reader, is_reply(1))
            await collect_until(reader, is_notify)

            await send(
                writer, {"id": 2, "op": "insert", "series": (query + 0.001).tolist()}
            )
            frames, reply = await collect_until(reader, is_reply(2))
            pushes = [f for f in frames if is_notify(f)]
            if not pushes:
                _, push = await collect_until(reader, is_notify)
            else:
                push = pushes[0]
            gid = reply["series_id"]

            victim = push["notification"]["ids"][0]
            await send(writer, {"id": 3, "op": "delete", "series_id": victim})
            frames, _ = await collect_until(reader, is_reply(3))
            pushes = [f for f in frames if is_notify(f)]
            if not pushes:
                _, full_push = await collect_until(reader, is_notify)
            else:
                full_push = pushes[0]
            return gid, push["notification"], victim, full_push["notification"]

        gid, delta, victim, full = run_session(db, client)
        assert gid in delta["added"] and not delta["full"]
        assert full["full"] and victim in full["removed"]
        reference = db.knn_batch(query[None, :], QueryOptions(k=3)).results[0]
        assert full["ids"] == [int(g) for g in reference.ids]
        assert full["distances"] == [float(d) for d in reference.distances]

    def test_unsubscribe_stops_pushes(self):
        db = make_db()
        query = np.asarray(db.data)[2] + 0.01

        async def client(reader, writer, server):
            await send(
                writer,
                {
                    "id": 1,
                    "op": "subscribe",
                    "query": KnnWatch(query=query, k=3).to_payload(),
                },
            )
            _, ack = await collect_until(reader, is_reply(1))
            await collect_until(reader, is_notify)
            sid = ack["subscription_id"]

            await send(
                writer, {"id": 2, "op": "unsubscribe", "subscription_id": sid}
            )
            _, reply = await collect_until(reader, is_reply(2))
            assert reply["unsubscribed"] is True

            await send(
                writer, {"id": 3, "op": "insert", "series": (query + 0.001).tolist()}
            )
            frames, _ = await collect_until(reader, is_reply(3))
            assert not any(is_notify(f) for f in frames)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(read_frame(reader), timeout=0.3)
            return len(server.continuous.registry)

        assert run_session(db, client) == 0

    def test_stats_reports_live_subscriptions(self):
        db = make_db()
        query = np.asarray(db.data)[1] + 0.01

        async def client(reader, writer, server):
            await send(
                writer,
                {
                    "id": 1,
                    "op": "subscribe",
                    "query": KnnWatch(query=query, k=2).to_payload(),
                },
            )
            await collect_until(reader, is_reply(1))
            await send(writer, {"id": 2, "op": "stats"})
            _, stats = await collect_until(reader, is_reply(2))
            return stats

        stats = run_session(db, client)
        assert stats["server"]["subscriptions"] == 1

    def test_bad_standing_query_is_a_clean_error(self):
        async def client(reader, writer, server):
            await send(
                writer, {"id": 1, "op": "subscribe", "query": {"kind": "bogus"}}
            )
            _, reply = await collect_until(reader, is_reply(1))
            return reply

        reply = run_session(make_db(), client)
        assert reply["ok"] is False and reply["code"] == "bad_request"

    def test_a_removed_kind_is_refused_in_a_home_and_on_the_wire(self, tmp_path):
        """``subsequence`` and ``anomaly`` watches existed once.  A log that
        still registers one does not reopen (silently dropping a consumer's
        subscription would be worse), and a frame asking for one is a
        ``bad_request`` that leaves the server serving."""
        removed = {
            "subsequence": {"kind": "subsequence", "pattern": [0.0, 1.0, 0.0], "radius": 0.5},
            "anomaly": {"kind": "anomaly", "window": 8, "threshold": 1.0},
        }
        for kind, query in removed.items():
            path = tmp_path / f"{kind}.log"
            log = RecordFile(path, MAGIC, 1 << 20, json.loads)
            log.open()
            record = {"op": "subscribe", "sid": "sub-000001", "counter": 1, "from_row": 0}
            log.append(json.dumps({**record, "query": query}).encode("utf-8"))
            log.close()
            with pytest.raises(ValueError, match=f"unknown standing-query kind '{kind}'"):
                SubscriptionRegistry(path)

        db = make_db()
        query = np.asarray(db.data)[0] + 0.01

        async def client(reader, writer, server):
            replies = []
            for rid, payload in enumerate(removed.values(), start=1):
                await send(writer, {"id": rid, "op": "subscribe", "query": payload})
                replies.append((await collect_until(reader, is_reply(rid)))[1])
            await send(writer, {"id": 3, "op": "knn", "queries": [query.tolist()], "k": 2})
            replies.append((await collect_until(reader, is_reply(3)))[1])
            return replies, len(server.continuous.registry)

        (*refused, answer), registered = run_session(db, client)
        for reply, kind in zip(refused, removed):
            assert reply["ok"] is False and reply["code"] == "bad_request"
            assert kind in reply["error"]
        reference = db.knn_batch(query[None, :], QueryOptions(k=2)).results[0]
        assert answer["ok"] and answer["results"][0]["ids"] == [int(g) for g in reference.ids]
        assert registered == 0


class TestShardedPushes:
    def test_pushes_are_bit_identical_to_the_unsharded_engine(self):
        reference_db = make_db()
        sharded = ShardedEngine.from_database(make_db(), 2)
        query = np.asarray(reference_db.data)[4] + 0.01

        async def client(reader, writer, server):
            await send(
                writer,
                {
                    "id": 1,
                    "op": "subscribe",
                    "query": KnnWatch(query=query, k=4).to_payload(),
                },
            )
            await collect_until(reader, is_reply(1))
            _, push = await collect_until(reader, is_notify)
            return push["notification"]

        note = run_session(sharded, client)
        assert isinstance(note["generation"], list)  # sharded: one per shard
        reference = reference_db.knn_batch(query[None, :], QueryOptions(k=4)).results[0]
        assert note["ids"] == [int(g) for g in reference.ids]
        assert note["distances"] == [float(d) for d in reference.distances]


class TestBackpressure:
    def test_overflowing_the_notify_queue_marks_the_channel_lagged(self):
        db = make_db()
        server = ReproServer(db, ServerConfig(notify_queue=1))

        async def scenario():
            channel = _Channel(asyncio.Queue(1))
            server._enqueue(channel, object())
            assert not channel.lagged
            server._enqueue(channel, object())  # queue full: dropped
            assert channel.lagged

        asyncio.run(scenario())
