"""One facade, three backends: ``repro.client.connect`` end to end.

The same typed :class:`KnnRequest`/:class:`RangeRequest` objects must get
the same answers from an in-process database, a saved database directory,
a sharded home, and a live TCP server.
"""

import asyncio
import socket
import threading

import numpy as np
import pytest

import repro
from repro.client import (
    KnnRequest,
    LocalClient,
    QueryResult,
    RangeRequest,
    ServerError,
    TcpClient,
    connect,
)
from repro.continuous import RangeWatch
from repro.index import SeriesDatabase
from repro.lifecycle import DurabilityOptions
from repro.reduction import PAA, SAPLAReducer
from repro.serving import FrameError, ReproServer, ServerConfig, ShardedEngine
from repro.storage import DiskBackedDatabase

LENGTH = 32


def make_db(count=24):
    rng = np.random.default_rng(1)
    db = SeriesDatabase(PAA(8), index=None)
    db.ingest(rng.normal(size=(count, LENGTH)).cumsum(axis=1))
    return db


def reference_answers(db, queries, k=5):
    from repro.engine import QueryOptions

    return db.knn_batch(queries, QueryOptions(k=k)).results


def assert_matches(results, reference):
    assert len(results) == len(reference)
    for got, want in zip(results, reference):
        assert isinstance(got, QueryResult)
        assert got.ids == want.ids
        assert got.distances == want.distances


class TestRequestTypes:
    def test_knn_request_coerces_single_series(self):
        request = KnnRequest(queries=np.zeros(LENGTH), k=3)
        assert request.queries.shape == (1, LENGTH)

    def test_knn_request_validates_eagerly(self):
        with pytest.raises(ValueError):
            KnnRequest(queries=np.zeros(LENGTH), k=0)
        with pytest.raises(ValueError):
            KnnRequest(queries=np.zeros((2, 2, 2)))

    def test_range_request_validates(self):
        with pytest.raises(ValueError):
            RangeRequest(query=np.zeros((2, LENGTH)), radius=1.0)
        with pytest.raises(ValueError):
            RangeRequest(query=np.zeros(LENGTH), radius=-1.0)

    def test_payload_round_trip_is_exact(self):
        rng = np.random.default_rng(7)
        request = KnnRequest(queries=rng.normal(size=(2, LENGTH)), k=4, lookahead=2)
        back = KnnRequest.from_payload(request.to_payload())
        np.testing.assert_array_equal(back.queries, request.queries)
        assert back.k == 4 and back.lookahead == 2

    def test_query_result_payload_round_trip(self):
        result = QueryResult(
            ids=[3, 1], distances=[0.5, 1.25], n_verified=4, n_total=10,
            generation=(1, 2, 3),
        )
        back = QueryResult.from_payload(result.to_payload())
        assert back == result
        assert back.pruning_power == pytest.approx(0.4)


class TestLocalBackends:
    def test_connect_to_database_object(self):
        db = make_db()
        queries = np.asarray(db.data)[:3] + 0.01
        with connect(db) as client:
            assert isinstance(client, LocalClient)
            results = client.knn(KnnRequest(queries=queries, k=5))
        assert_matches(results, reference_answers(db, queries))
        assert db.data is not None  # borrowed backends are not torn down

    def test_connect_to_saved_directory(self, tmp_path):
        db = make_db()
        db.save(tmp_path / "db")
        queries = np.asarray(db.data)[:2]
        with connect(tmp_path / "db") as client:
            results = client.knn(KnnRequest(queries=queries, k=4))
            stats = client.stats()
        assert_matches(results, reference_answers(db, queries, k=4))
        assert stats["server"]["backend"] == "local"

    def test_connect_to_sharded_home(self, tmp_path):
        db = make_db()
        ShardedEngine.from_database(db, 3).save(tmp_path / "home")
        queries = np.asarray(db.data)[:3]
        with connect(tmp_path / "home") as client:
            assert client.database.n_shards == 3
            results = client.knn(KnnRequest(queries=queries, k=6))
            stats = client.stats()
        assert_matches(results, reference_answers(db, queries, k=6))
        assert stats["server"]["shards"] == 3

    def test_connect_rejects_unknown_targets(self, tmp_path):
        with pytest.raises(ValueError):
            connect(tmp_path / "nowhere")
        with pytest.raises(TypeError):
            connect(42)

    def test_ping(self):
        with connect(make_db()) as client:
            assert client.ping() is True


class _ServerThread:
    """Host a ReproServer on a background event loop for the sync TcpClient."""

    def __init__(self, engine, config=None):
        self.server = ReproServer(engine, config or ServerConfig())
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        started.wait(timeout=10)

    @property
    def port(self):
        return self.server.port

    def stop(self):
        async def shutdown():
            await self.server.stop()
            self.loop.stop()

        asyncio.run_coroutine_threadsafe(shutdown(), self.loop)
        self.thread.join(timeout=10)
        self.loop.close()


def _disk_db(path, data):
    db = DiskBackedDatabase(PAA(8), path, index=None)
    db.ingest(data)
    return db


@pytest.mark.parametrize("backend", ["memory", "disk", "disk-home", "sharded", "tcp"])
def test_range_and_range_watch_on_every_backend(backend, tmp_path):
    """``Client.range`` and ``subscribe(RangeWatch)`` answer the NumPy brute
    force (row-wise norm, the engine's one verification primitive) to the
    bit, whatever holds the rows."""
    data = np.asarray(make_db().data)
    query = data[0] + 0.01
    truth = np.linalg.norm(data - query, axis=1)
    radius = float(np.sort(truth)[[5, 6]].mean())
    inside = truth <= radius
    want = sorted(zip(truth[inside].tolist(), np.flatnonzero(inside).tolist()))
    host = None
    if backend == "memory":
        target = make_db()
    elif backend == "disk":
        target = _disk_db(tmp_path / "rows.bin", data)
    elif backend == "disk-home":
        _disk_db(tmp_path / "rows.bin", data).save(tmp_path / "home")
        target = tmp_path / "home"
    elif backend == "sharded":
        target = ShardedEngine.from_database(make_db(), 3)
    else:
        host = _ServerThread(make_db())
        target = f"tcp://127.0.0.1:{host.port}"
    try:
        with connect(target) as client:
            got = client.range(RangeRequest(query=query, radius=radius))
            with client.subscribe(RangeWatch(query=query, radius=radius)) as watch:
                first = watch.next(timeout=10)
    finally:
        if host is not None:
            host.stop()
    assert len(want) == 6
    assert list(zip(got.distances, got.ids)) == want
    assert first.full
    assert list(zip(first.distances, first.ids)) == want


BAD_QUERIES = {
    "all-nan": np.full(LENGTH, np.nan),
    "one-inf": np.where(np.arange(LENGTH) == 3, np.inf, 0.0),
    "too-short": np.zeros(LENGTH - 1),
    "too-long": np.zeros(LENGTH + 1),
}


@pytest.mark.parametrize("bad", sorted(BAD_QUERIES))
@pytest.mark.parametrize("backend", ["memory", "disk", "sharded", "tcp"])
def test_bad_queries_raise_one_error_on_every_backend(backend, bad, tmp_path):
    """A non-finite or wrong-length query is one ``ValueError`` (a
    ``bad_request`` over TCP) for knn and range alike.  The SAPLA Dist_LB
    scan is the path that used to answer an all-NaN query with ``[]``."""
    rng = np.random.default_rng(1)
    data = rng.normal(size=(24, LENGTH)).cumsum(axis=1)
    db = SeriesDatabase(SAPLAReducer(8), index=None)
    host = None
    if backend == "disk":
        db = DiskBackedDatabase(
            SAPLAReducer(8), tmp_path / "rows.bin", index=None
        )
    db.ingest(data)
    if backend == "sharded":
        target = ShardedEngine.from_database(db, 2)
    elif backend == "tcp":
        host = _ServerThread(ShardedEngine.from_database(db, 2))
        target = f"tcp://127.0.0.1:{host.port}"
    else:
        target = db
    query = BAD_QUERIES[bad]
    expected = ServerError if backend == "tcp" else ValueError
    message = f"queries must be finite series of length {LENGTH}"
    try:
        with connect(target) as client:
            with pytest.raises(expected, match=message) as knn_error:
                client.knn(KnnRequest(queries=query, k=3))
            with pytest.raises(expected, match=message) as range_error:
                client.range(RangeRequest(query=query, radius=5.0))
            assert client.knn(KnnRequest(queries=data[4], k=1))[0].ids == [4]
    finally:
        if host is not None:
            host.stop()
    if backend == "tcp":
        assert knn_error.value.code == range_error.value.code == "bad_request"


def _wal_bytes(home) -> int:
    return sum(path.stat().st_size for path in home.rglob("wal.log"))


@pytest.mark.parametrize("backend", ["memory", "disk", "sharded", "tcp"])
def test_a_rejected_non_finite_insert_leaves_a_durable_home_untouched(backend, tmp_path):
    """A NaN or infinite series is refused before the WAL append: the row
    count, the log and the next id stay put, and the home reopens.  (A
    logged row that cannot be reduced used to fail every later replay.)"""
    rng = np.random.default_rng(4)
    data = rng.normal(size=(64, LENGTH)).cumsum(axis=1)
    home = tmp_path / "home"
    if backend == "disk":
        db = DiskBackedDatabase(
            SAPLAReducer(8), tmp_path / "rows.bin"
        )
    else:
        db = SeriesDatabase(SAPLAReducer(8))
    db.ingest(data, bulk=True)
    if backend == "sharded":
        ShardedEngine.from_database(db, 2).save(home)
    else:
        db.save(home)
    local = client = connect(home, DurabilityOptions(fsync="always"))
    engine, host = local.database, None
    if backend == "tcp":
        host = _ServerThread(engine)
        client = connect(f"tcp://127.0.0.1:{host.port}")
    nan_row, inf_row = np.full(LENGTH, np.nan), data[0].copy()
    inf_row[5] = np.inf
    wal = _wal_bytes(home)
    try:
        for bad in (nan_row, inf_row):
            with pytest.raises(ServerError if host else ValueError) as error:
                client.insert(bad)
            if host:
                assert error.value.code == "bad_request"
        with pytest.raises(ValueError):
            engine.insert_batch(np.stack([data[1] + 0.5, nan_row]))
        assert engine.count == 64 and _wal_bytes(home) == wal
        assert client.insert(data[2] + 0.5) == 64
    finally:
        client.close()
        if host is not None:
            host.stop()
        local.close()
    with connect(home) as reopened:
        assert reopened.database.count == 65
        assert reopened.knn(KnnRequest(queries=data[2] + 0.5, k=1))[0].ids == [64]


@pytest.mark.parametrize("backend", ["memory", "disk", "sharded", "tcp"])
def test_a_non_integral_series_id_or_k_is_refused_not_truncated(backend, tmp_path):
    """``delete(2.9)`` used to delete series 2, ``delete(True)`` series 1,
    and ``k`` of 2.5 (2.7 in a wire frame) or ``True`` was served as 2 or 1;
    on the read side a page-file row or a shard was looked up the same way.
    Each is one ``TypeError`` (``bad_request`` over TCP) and nothing
    changes; NumPy integers still work."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=(10, LENGTH)).cumsum(axis=1)
    if backend == "disk":
        db = DiskBackedDatabase(PAA(8), tmp_path / "rows.bin", index=None)
    else:
        db = SeriesDatabase(PAA(8), index=None)
    db.ingest(data)
    target, host = db, None
    if backend == "sharded":
        target = ShardedEngine.from_database(db, 2)
    elif backend == "tcp":
        host = _ServerThread(ShardedEngine.from_database(db, 2))
        target = f"tcp://127.0.0.1:{host.port}"
    refused = ServerError if host else TypeError
    # the read side: a page-file row and a shard are looked up by id too
    lookup = {"disk": lambda i: db.data[i], "sharded": lambda i: target.shard_of(i)}
    if backend in lookup:
        for bad in (2.9, 2.0, True, np.float64(1.0)):
            with pytest.raises(TypeError, match="series_id must be an integer"):
                lookup[backend](bad)
        expected = data[3] if backend == "disk" else 1
        assert np.array_equal(lookup[backend](np.int64(3)), expected)
    try:
        with connect(target) as client:
            for bad in (2.9, 2.0, True, np.float64(1.0)):
                with pytest.raises(refused, match="series_id must be an integer"):
                    client.delete(bad)
            for field, bad in (("k", 2.7), ("k", True), ("lookahead", 1.5)):
                with pytest.raises(refused, match=f"{field} must be an integer"):
                    if host:
                        payload = KnnRequest(queries=data[3], k=2).to_payload()
                        client._call("knn", {**payload, field: bad})
                    else:
                        client.knn(KnnRequest(queries=data[3], **{field: bad}))
            assert [r.ids for r in client.knn(KnnRequest(queries=data, k=1))] == [
                [i] for i in range(10)
            ]
            assert client.delete(np.int64(2)) is True
            (answer,) = client.knn(KnnRequest(queries=data[2], k=np.int64(2)))
            assert len(answer.ids) == 2 and 2 not in answer.ids
    finally:
        if host is not None:
            host.stop()


def test_a_knn_frame_with_a_retired_option_gets_the_same_reply():
    """Older clients still send ``early_abandon``; the server ignores it."""
    db = make_db()
    queries = np.asarray(db.data)[:2] + 0.01
    request = KnnRequest(queries=queries, k=3)
    host = _ServerThread(db)
    try:
        with TcpClient("127.0.0.1", host.port) as client:
            current = client._call("knn", request.to_payload())
            older = client._call("knn", {**request.to_payload(), "early_abandon": False})
    finally:
        host.stop()
    assert older["results"] == current["results"]
    assert_matches([QueryResult.from_payload(r) for r in older["results"]],
                   reference_answers(db, queries, k=3))
    with pytest.raises(TypeError):
        KnnRequest(queries=queries, early_abandon=False)


class _InsertOnGather:
    """A row store whose first ``gather`` inserts a row: a mutation landing
    between a walk's planning and its verification."""

    def __init__(self, db, row):
        self.db, self.row, self.rows = db, row, db._rows
        self.during = None

    def __getattr__(self, name):  # the row-store side: the real store's
        return getattr(self.rows, name)

    def __len__(self):
        return len(self.rows)

    view = property(lambda self: self)
    shape = property(lambda self: self.rows.view.shape)

    def gather(self, series_ids):
        if self.during is None:
            inserted = self.db.insert(self.row)
            self.during = (inserted, len(self.db.entries), self.db.generation)
        return self.rows.view[np.asarray(series_ids)]


def test_range_reply_carries_the_generation_of_its_pinned_snapshot():
    db = make_db()
    query = np.asarray(db.data)[0]
    db._rows = rows = _InsertOnGather(db, query + 1e-9)
    entries, generation = len(db.entries), db.generation
    with connect(db) as client:
        reply = client.range(RangeRequest(query=query, radius=1e9))
        # mid-walk: the raw row landed, the entry list and generation did not move
        assert rows.during == (entries, entries, generation)
        assert reply.generation == generation
        assert sorted(reply.ids) == list(range(entries))
        # released: the deferred insert is visible to the next query
        assert db.generation == generation + 1
        assert entries in client.range(RangeRequest(query=query, radius=1e9)).ids


class TestTcpBackend:
    def test_tcp_client_bit_identical(self):
        db = make_db()
        queries = np.asarray(db.data)[:3] + 0.01
        reference = reference_answers(db, queries)
        host = _ServerThread(ShardedEngine.from_database(db, 2))
        try:
            with TcpClient("127.0.0.1", host.port) as client:
                assert client.ping() is True
                results = client.knn(KnnRequest(queries=queries, k=5))
                stats = client.stats()
        finally:
            host.stop()
        assert_matches(results, reference)
        assert stats["server"]["shards"] == 2

    def test_connect_tcp_url(self):
        db = make_db()
        host = _ServerThread(db)
        try:
            with connect(f"tcp://127.0.0.1:{host.port}") as client:
                assert isinstance(client, TcpClient)
                results = client.knn(KnnRequest(queries=np.asarray(db.data)[:1], k=2))
        finally:
            host.stop()
        assert results[0].ids[0] == 0

    def test_server_error_surfaces(self):
        db = make_db()
        host = _ServerThread(db)
        try:
            with connect(f"tcp://127.0.0.1:{host.port}") as client:
                with pytest.raises(ServerError):
                    # wrong series length: the engine rejects it server-side
                    client.knn(KnnRequest(queries=np.zeros(7), k=2))
        finally:
            host.stop()


@pytest.mark.parametrize(
    "body", [b"[1,2]", b"\xff\xfe", b"{not json"], ids=["not-an-object", "not-utf8", "not-json"]
)
def test_hostile_reply_body_is_a_frame_error(body):
    """A reply the shared frame decoder rejects reaches the caller as
    ``FrameError`` — never the parser's own exception."""
    listener = socket.create_server(("127.0.0.1", 0))

    def reply_once():
        conn, _ = listener.accept()
        with conn:
            conn.recv(1 << 16)  # the ping request
            conn.sendall(len(body).to_bytes(4, "big") + body)

    server = threading.Thread(target=reply_once, daemon=True)
    server.start()
    try:
        with TcpClient("127.0.0.1", listener.getsockname()[1], timeout=10) as client:
            with pytest.raises(FrameError):
                client.ping()
    finally:
        server.join(timeout=10)
        listener.close()
    assert not server.is_alive()


def test_importing_the_client_does_not_import_scipy():
    """SciPy is ~1 s and ~65 MB to import and only SAX / PAALM use it, at
    their call sites; a process that serves or queries pays for neither."""
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(repro.__file__).resolve().parents[1]
    probe = "import sys; import repro.client; sys.exit('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(src)}, timeout=120
    )
    assert done.returncode == 0
