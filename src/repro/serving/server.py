"""Stdlib-only asyncio TCP server fronting a (sharded) query engine.

:class:`ReproServer` accepts connections speaking the length-prefixed JSON
protocol of :mod:`repro.serving.protocol`, admits each query under a
two-stage admission controller, executes it on a thread pool, and writes
the response frame back — responses carry the request's ``id``, so clients
may pipeline arbitrarily many requests per connection.

**Read coalescing.**  Admitted ``knn`` requests with no deadline, in mode
``vectorized`` or ``auto`` with one query, wait in a pending list (holding
their slots); whenever its last engine calls return, one dispatcher answers
all of it, one ``knn_batch`` per distinct options.  Other requests run
alone, as does each member of a coalesced call that raised.

**Admission control.**  ``max_in_flight`` bounds the queries *executing*
concurrently; arrivals beyond it wait in an admission queue bounded by
``queue_depth``; arrivals beyond *that* are shed immediately with an
``overloaded`` error rather than queued into unbounded memory.  The
accepted in-flight population (waiting + executing) is therefore capped at
``max_in_flight + queue_depth``, and a loopback load test can hold well
over 1000 queries in flight with the defaults.  Mutations and subscription
management (``insert``/``delete``/``subscribe``/``unsubscribe``) pass
through the same two stages.

**Continuous queries.**  A ``subscribe`` request registers a standing
query with a :class:`repro.continuous.ContinuousEvaluator` wrapping the
engine; result deltas are pushed back as ``notify`` frames on the
subscriber's connection.  Each subscription gets a bounded notify queue
(``notify_queue`` frames): when a slow consumer overflows it the delta is
*dropped* (``continuous.dropped``) and, once the queue drains, the server
re-runs the subscription and pushes one ``full`` resync notification —
consumers never see a silently-patched gap, only a replacement snapshot.
Subscriptions are tied to their connection and are torn down when it
closes.  See ``docs/continuous.md`` for the delivery guarantees.

Everything is instrumented through :mod:`repro.obs`: ``server.*`` counters
(requests, sheds, errors, connections), the ``server.in_flight`` gauge and
the ``server.request_ms`` latency histogram, whose p50/p99 render through
``repro stats``, plus the ``continuous.*`` family for the subscription
path.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..client.api import KnnRequest, RangeRequest, QueryResult
from ..continuous import ContinuousEvaluator, query_from_payload
from ..engine import ExecutionMode
from .protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
)

__all__ = ["ServerConfig", "ReproServer"]

#: ops that go through the two-stage admission controller
_ADMITTED_OPS = frozenset(
    {"knn", "range", "insert", "delete", "subscribe", "unsubscribe"}
)


@dataclass(frozen=True)
class ServerConfig:
    """Validated, immutable configuration for one :class:`ReproServer`.

    Args:
        host: interface to bind (loopback by default).
        port: TCP port; 0 picks a free one (read it back from
            :attr:`ReproServer.port` after start).
        max_in_flight: admitted queries executing concurrently, alone or in
            a coalesced batch; also the thread-pool size.
        queue_depth: admitted queries allowed to *wait* for an execution
            slot; arrivals beyond this are shed with an ``overloaded``
            error.
        max_frame_bytes: per-frame size cap for both directions.
        notify_queue: per-subscription buffered push frames; a consumer
            lagging beyond this drops deltas and gets a ``full`` resync
            once it catches up.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_in_flight: int = 64
    queue_depth: int = 2048
    max_frame_bytes: int = MAX_FRAME_BYTES
    notify_queue: int = 256

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.notify_queue < 1:
            raise ValueError("notify_queue must be >= 1")


class _Channel:
    """One subscription's server-side delivery state (per connection)."""

    __slots__ = ("sid", "queue", "lagged", "task")

    def __init__(self, queue: "asyncio.Queue"):
        self.sid: "Optional[str]" = None
        self.queue = queue
        self.lagged = False
        self.task: "Optional[asyncio.Task]" = None


class ReproServer:
    """One engine behind one TCP listener — start, serve, stop.

    ``engine`` is anything with the engine query surface (``knn_batch`` +
    ``range_batch``): a :class:`repro.index.SeriesDatabase` (memory or
    disk-backed), a :class:`repro.serving.ShardedEngine`, or a pre-built
    :class:`repro.continuous.ContinuousEvaluator` wrapping one of those
    (pass the evaluator to serve a durable subscription registry).  Reads
    never mutate the engine; ``insert``/``delete`` requests do, routed
    through the evaluator so standing subscriptions see every change.
    """

    def __init__(self, engine, config: "Optional[ServerConfig]" = None):
        #: the evaluator behind mutation and subscription ops
        self.continuous = ContinuousEvaluator.over(engine)
        self.engine = self.continuous.target
        self.config = config if config is not None else ServerConfig()
        self.port: "Optional[int]" = None
        self.peak_in_flight = 0
        self._server: "Optional[asyncio.base_events.Server]" = None
        self._executor: "Optional[ThreadPoolExecutor]" = None
        self._slots: "Optional[asyncio.Semaphore]" = None
        self._waiting = 0
        self._executing = 0
        #: admitted coalescable ``knn`` requests: (queries, options, future)
        self._pending: "List[tuple]" = []
        self._dispatcher: "Optional[asyncio.Task]" = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and create the execution pool."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_in_flight, thread_name_prefix="repro-serve"
        )
        self._slots = asyncio.Semaphore(self.config.max_in_flight)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (``repro serve`` wraps this)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, end the dispatcher, cancel the requests it has
        not answered and shut the execution pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            await asyncio.gather(self._dispatcher, return_exceptions=True)
        for _, _, future in self._pending:
            future.cancel()
        self._pending = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @property
    def in_flight(self) -> int:
        """Accepted queries currently waiting or executing."""
        return self._waiting + self._executing

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Read frames for one connection; each request runs as its own task."""
        if obs.is_enabled():
            obs.count("server.connections")
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()
        channels: "Dict[str, _Channel]" = {}
        try:
            while True:
                try:
                    frame = await read_frame(reader, self.config.max_frame_bytes)
                except FrameError:
                    break  # protocol violation: drop the connection
                if frame is None:
                    break
                task = asyncio.ensure_future(
                    self._handle_request(frame, writer, write_lock, channels)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            pass  # loop teardown: the connection dies with the server
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            for channel in list(channels.values()):
                await self._close_channel(channel)
            loop = asyncio.get_event_loop()
            for sid in channels:
                # subscriptions die with their connection
                await loop.run_in_executor(self._executor, self.continuous.unsubscribe, sid)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- push-frame delivery -----------------------------------------------
    def _enqueue(self, channel: _Channel, note) -> None:
        """Queue one notification for the drainer (event-loop thread only)."""
        try:
            channel.queue.put_nowait(note)
        except asyncio.QueueFull:
            channel.lagged = True
            if obs.is_enabled():
                obs.count("continuous.dropped")

    async def _drain(self, channel: _Channel, writer, lock: asyncio.Lock) -> None:
        """Deliver one subscription's queued notifications in order."""
        loop = asyncio.get_event_loop()
        while True:
            note = await channel.queue.get()
            await self._reply(
                writer,
                lock,
                {
                    "op": "notify",
                    "ok": True,
                    "subscription_id": channel.sid,
                    "notification": note.to_payload(),
                },
            )
            if channel.lagged and channel.queue.empty():
                # consumer caught up after drops: replace its state wholesale
                channel.lagged = False
                await loop.run_in_executor(
                    self._executor, self.continuous.refresh, channel.sid
                )

    async def _close_channel(self, channel: _Channel) -> None:
        if channel.task is not None:
            channel.task.cancel()
            try:
                await channel.task
            except (asyncio.CancelledError, Exception):
                pass

    async def _reply(self, writer, lock: asyncio.Lock, message: dict) -> None:
        frame = encode_frame(message, self.config.max_frame_bytes)
        async with lock:
            writer.write(frame)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing to deliver to

    def _note_in_flight(self) -> None:
        population = self.in_flight
        if population > self.peak_in_flight:
            self.peak_in_flight = population
        if obs.is_enabled():
            obs.gauge_set("server.in_flight", population)

    async def _handle_request(
        self, frame: dict, writer, lock: asyncio.Lock, channels: "Dict[str, _Channel]"
    ) -> None:
        """Dispatch one request frame and write its response."""
        rid = frame.get("id")
        op = frame.get("op")
        if obs.is_enabled():
            obs.count("server.requests")
        if op == "ping":
            await self._reply(writer, lock, ok_response(rid, op, {"pong": True}))
            return
        if op == "stats":
            await self._reply(writer, lock, ok_response(rid, op, self._stats_body()))
            return
        if op not in _ADMITTED_OPS:
            if obs.is_enabled():
                obs.count("server.errors")
            await self._reply(
                writer, lock, error_response(rid, "bad_request", f"unknown op {op!r}")
            )
            return
        # two-stage admission: bounded executing + bounded waiting, then shed
        if self._waiting >= self.config.queue_depth:
            if obs.is_enabled():
                obs.count("server.shed")
            await self._reply(
                writer,
                lock,
                error_response(rid, "overloaded", "admission queue is full; retry later"),
            )
            return
        start = time.perf_counter()
        self._waiting += 1
        self._note_in_flight()
        await self._slots.acquire()
        self._waiting -= 1
        self._executing += 1
        try:
            body = await self._execute(op, frame, writer, lock, channels)
            message = ok_response(rid, op, body)
        except (ValueError, KeyError, TypeError, RuntimeError, FrameError) as exc:
            if obs.is_enabled():
                obs.count("server.errors")
            message = error_response(rid, "bad_request", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            if obs.is_enabled():
                obs.count("server.errors")
            message = error_response(rid, "internal", str(exc))
        finally:
            self._executing -= 1
            self._slots.release()
            self._note_in_flight()
            if obs.is_enabled():
                obs.observe(
                    "server.request_ms", (time.perf_counter() - start) * 1000.0
                )
        await self._reply(writer, lock, message)

    async def _execute(
        self, op: str, frame: dict, writer, lock: asyncio.Lock, channels
    ) -> dict:
        """Run one admitted request on the thread pool; returns the reply body."""
        loop = asyncio.get_event_loop()
        if op == "knn":
            request = KnnRequest.from_payload(frame)
            options = request.options()
            one_auto = options.mode is ExecutionMode.AUTO and len(request.queries) == 1
            answer = None
            if (one_auto or options.mode is ExecutionMode.VECTORIZED) and not options.deadline_s:
                future = loop.create_future()
                # not AUTO: it puts a multi-query adaptive scan on the lazy heap
                coalesced = replace(options, mode=ExecutionMode.VECTORIZED)
                self._pending.append((request.queries, coalesced, future))
                if self._dispatcher is None or self._dispatcher.done():
                    self._dispatcher = asyncio.ensure_future(self._dispatch())
                answer = await future
            if answer is None:  # runs alone, or its coalesced call raised
                batch = await loop.run_in_executor(
                    self._executor, self.engine.knn_batch, request.queries, options
                )
                answer = QueryResult.from_batch(batch), batch.elapsed_s
            results, elapsed_s = answer  # elapsed_s: the engine call that answered
            return {"results": [r.to_payload() for r in results], "elapsed_s": elapsed_s}
        if op == "range":
            request = RangeRequest.from_payload(frame)
            batch = await loop.run_in_executor(
                self._executor,
                self.engine.range_batch,
                request.query[None, :],
                request.radius,
            )
            return {"result": QueryResult.from_batch(batch)[0].to_payload()}
        if op == "insert":
            series = np.asarray(frame["series"], dtype=float)
            gid = await loop.run_in_executor(
                self._executor, self.continuous.insert, series
            )
            return {"series_id": int(gid), "generation": self._generation_body()}
        if op == "delete":
            deleted = await loop.run_in_executor(
                self._executor, self.continuous.delete, frame["series_id"]
            )
            return {"deleted": bool(deleted), "generation": self._generation_body()}
        if op == "unsubscribe":
            sid = str(frame["subscription_id"])
            channel = channels.pop(sid, None)
            if channel is not None:
                await self._close_channel(channel)
            dropped = await loop.run_in_executor(
                self._executor, self.continuous.unsubscribe, sid
            )
            return {"unsubscribed": bool(dropped)}
        # subscribe: register the standing query and start its drainer
        query = query_from_payload(frame["query"])
        channel = _Channel(asyncio.Queue(self.config.notify_queue))

        def sink(note):
            loop.call_soon_threadsafe(self._enqueue, channel, note)

        sid = await loop.run_in_executor(
            self._executor, self.continuous.subscribe, query, sink
        )
        channel.sid = sid
        channels[sid] = channel
        channel.task = asyncio.ensure_future(self._drain(channel, writer, lock))
        return {"subscription_id": sid}

    async def _dispatch(self) -> None:
        """Answer everything pending with one engine call per distinct
        options, until nothing is; a request stays pending until answered."""
        while self._pending:
            taken = list(self._pending)
            groups: "Dict[object, list]" = {}
            for member in taken:
                groups.setdefault(member[1], []).append(member)
            for group in groups.items():
                await self._run_group(*group)
            del self._pending[: len(taken)]

    async def _run_group(self, options, members: list) -> None:
        """One ``knn_batch`` over the members' stacked queries; each member
        gets its slice, or ``None`` (run alone) if the call raised."""
        loop = asyncio.get_running_loop()
        try:
            queries = np.concatenate([queries for queries, _, _ in members])
            batch = await loop.run_in_executor(
                self._executor, self.engine.knn_batch, queries, options
            )
            results = iter(QueryResult.from_batch(batch))
        except Exception:
            batch = None
        for queries, _, future in members:
            answer = None if batch is None else ([next(results) for _ in queries], batch.elapsed_s)
            if not future.done():
                future.set_result(answer)

    def _generation_body(self):
        generation = getattr(self.engine, "generation", None)
        return list(generation) if isinstance(generation, tuple) else generation

    def _stats_body(self) -> dict:
        """The ``stats`` op body: server state + a metrics snapshot."""
        body = {
            "server": {
                "in_flight": self.in_flight,
                "peak_in_flight": self.peak_in_flight,
                "max_in_flight": self.config.max_in_flight,
                "queue_depth": self.config.queue_depth,
                "shards": getattr(self.engine, "n_shards", 1),
                "subscriptions": len(self.continuous.registry),
            }
        }
        if obs.is_enabled():
            body["stats"] = obs.RunReport.collect(meta={"source": "repro.serving"}).to_dict()
        return body
