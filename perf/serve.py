"""``serve_tcp``: remote callers of a sharded ``python -m repro serve``.

A PAA-12 collection without an index, saved and served by a subprocess with
``--shards 2`` and default admission settings.  PAA's stacked bound makes the
engine cheap, so the ``client`` and ``serving`` layers — JSON codec,
admission, thread-pool and GIL waits, scatter-merge — do nearly all the work.

Closed loops throughout: phase ``rtt`` is one connection making blocking
``TcpClient.knn`` calls; phase ``load`` is two connections (``nproc`` is 2)
that each keep 16 single-query requests outstanding, 32 in flight, repeated a
few times with the best repeat reported.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
from typing import List

import harness
import inputs as inputs_module
from harness import Scale, ServerProcess, run_for, scratch_dir, timed
from metrics import mean, median, percentile, quietest_p50, quietest_p90
from oracle import Tally, expected_answers
from spans import ROOT, Tracer

from repro.client import KnnRequest, QueryResult, connect
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import PAA
from repro.serving import ShardedEngine
from repro.serving.protocol import encode_frame, ok_response, read_frame_blocking

RTT_SHARE = 0.4  # of --seconds on the unloaded phase, the rest on the loaded repeats


def make_inputs(seed: int, scale: Scale, seconds: float):
    return inputs_module.make_inputs(seed, scale.serve_rows, scale.length, scale.pool)


def _save_collection(scale: Scale, data, home) -> SeriesDatabase:
    db = SeriesDatabase(PAA(scale.coefficients), index=IndexKind.NONE)
    db.ingest(data)
    db.save(home)
    return db


def _set_up(scale: Scale, inputs, home, report=None):
    """Arrays -> a saved home, a listening server, a client with one answer."""
    _save_collection(scale, inputs.data, home)
    server = ServerProcess(home, scale.shards, report=report).start()
    try:
        client = connect(server.url)
        first = client.knn(KnnRequest(inputs.queries[0], k=scale.k))[0]
    except BaseException:
        server.stop()
        raise
    return server, client, first


def _knn_frame(query, k: int, request_id: int) -> bytes:
    """What ``TcpClient.knn`` puts on the wire for one query."""
    message = {"id": request_id, "op": "knn"}
    message.update(KnnRequest(query, k=k).to_payload())
    return encode_frame(message)


class _Pipeline(threading.Thread):
    """One connection keeping ``depth`` requests outstanding.

    It stops sending at ``stop_at`` or after ``limit`` requests, whichever
    comes first, then collects what is still outstanding.  Latency runs from
    the moment a request is handed to the socket.  Replies are kept raw and
    checked by the caller after the repeat.
    """

    def __init__(self, port: int, queries, scale: Scale, first: int, stop_at: float, limit: float):
        super().__init__(daemon=True)
        self.port, self.queries, self.scale = port, queries, scale
        self.next_query = first
        self.stop_at, self.limit = stop_at, limit
        self.samples: "List[tuple]" = []  # (query index, latency s, reply time, reply)
        self.error: "BaseException | None" = None

    def run(self) -> None:
        scale = self.scale
        try:
            with socket.create_connection(("127.0.0.1", self.port)) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                stream = sock.makefile("rb")
                pending = {}
                sent = 0

                def send() -> None:
                    nonlocal sent
                    index = self.next_query % len(self.queries)
                    self.next_query += scale.connections
                    frame = _knn_frame(self.queries[index], scale.k, sent)
                    pending[sent] = (index, time.perf_counter())
                    sock.sendall(frame)
                    sent += 1

                for _ in range(scale.depth):
                    send()
                while pending:
                    reply = read_frame_blocking(stream)
                    now = time.perf_counter()
                    if reply is None:
                        raise ConnectionError("server closed the connection under load")
                    index, started = pending.pop(reply["id"])
                    self.samples.append((index, now - started, now, reply))
                    if sent < self.limit and now < self.stop_at:
                        send()
        except BaseException as exc:  # surfaced by the caller after join()
            self.error = exc


def load_repeat(port: int, queries, scale: Scale, seconds=None, requests=None) -> dict:
    """One loaded repeat, bounded by time or by a total request count."""
    started = time.perf_counter()
    stop_at = started + seconds if seconds is not None else float("inf")
    limit = requests // scale.connections if requests is not None else float("inf")
    workers = [
        _Pipeline(port, queries, scale, first=c, stop_at=stop_at, limit=limit)
        for c in range(scale.connections)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120.0)
    for worker in workers:
        if worker.is_alive():
            raise RuntimeError("load connection did not finish within 120 s")
        if worker.error is not None:
            raise worker.error
    samples = [s for worker in workers for s in worker.samples]
    in_window = [s[2] for s in samples if s[2] <= stop_at]  # the drain after it is not load
    return {
        "qps": len(in_window) / (max(in_window) - started),
        "latencies": [s[1] for s in samples],
        "answers": [(s[0], s[3]) for s in samples],
    }


def _check_replies(tally: Tally, phase: str, answers, truth) -> None:
    for index, reply in answers:
        if not reply.get("ok"):
            tally.fail(phase, f"{reply.get('code')}: {reply.get('error')}")
            continue
        tally.check(phase, QueryResult.from_payload(reply["results"][0]), truth[index])


def end_to_end(workload: str, inputs, scale: Scale, seconds: float, tally: Tally) -> dict:
    queries, k = inputs.queries, scale.k
    truth = expected_answers(inputs.data, queries, k)
    pool = len(queries)
    setups = []
    with scratch_dir("serve") as scratch:
        server = client = None
        try:
            for repeat in range(scale.setup_repeats):
                if server is not None:
                    client.close()
                    server.stop()
                elapsed, (server, client, first) = timed(
                    _set_up, scale, inputs, scratch / f"home-{repeat}"
                )
                setups.append(elapsed)
                tally.check("setup", first, truth[0])

            rtts, answers = run_for(
                seconds * RTT_SHARE,
                lambda i: client.knn(KnnRequest(queries[i % pool], k=k))[0],
            )
            for i, answer in enumerate(answers):
                tally.check("rtt", answer, truth[i % pool])

            load_repeat(server.port, queries, scale, requests=4 * scale.depth)  # warm-up
            share = seconds * (1.0 - RTT_SHARE) / scale.load_repeats
            repeats = []
            for _ in range(scale.load_repeats):
                repeat = load_repeat(server.port, queries, scale, seconds=share)
                _check_replies(tally, "load", repeat["answers"], truth)
                repeats.append(repeat)
            if not server.alive():
                tally.fail("server", "the server subprocess died")
        finally:
            if client is not None:
                client.close()
            if server is not None:
                server.stop()
    return {
        "setup_s": median(setups),
        "query_p50_ms": quietest_p50(rtts) * 1e3,
        "query_p90_ms": quietest_p90(rtts) * 1e3,
        "throughput_per_s": max(r["qps"] for r in repeats),
        "peak_rss_mb": harness.peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def replay_request(tracer: Tracer, sharded, query, k: int, op_id: int):
    """One served request with no wire and no queue: codec, scatter, engine."""
    with tracer.op(op_id):
        with tracer.span("client.encode"):
            request_frame = _knn_frame(query, k, op_id)
        with tracer.span("serving.request_decode"):
            frame = read_frame_blocking(io.BytesIO(request_frame))
            request = KnnRequest.from_payload(frame)
        with tracer.span("serving.knn_batch"):
            batch = sharded.knn_batch(request.queries, request.options())
        with tracer.span("serving.reply_encode"):
            body = {
                "results": [r.to_payload() for r in QueryResult.from_batch(batch)],
                "elapsed_s": batch.elapsed_s,
            }
            reply_frame = encode_frame(ok_response(frame["id"], "knn", body))
        with tracer.span("client.decode"):
            reply = read_frame_blocking(io.BytesIO(reply_frame))
            answers = [QueryResult.from_payload(item) for item in reply["results"]]
    # the reply carries the engine's elapsed_s, whose digits vary from call to
    # call; count it as "0.0" so that reply bytes repeat exactly
    reply_bytes = len(reply_frame) - len(json.dumps(batch.elapsed_s)) + len("0.0")
    return answers[0], len(request_frame), reply_bytes


def _rtt_sample(url: str, sample, k: int, tally: Tally, truth, phase: str) -> "List[float]":
    with connect(url) as client:
        for query in sample[:4]:
            client.knn(KnnRequest(query, k=k))
        latencies = []
        for i, query in enumerate(sample):
            elapsed, reply = timed(client.knn, KnnRequest(query, k=k))
            latencies.append(elapsed)
            tally.check(phase, reply[0], truth[i])
    return latencies


def traced(workload: str, inputs, scale: Scale, tally: Tally, tracer: Tracer) -> dict:
    queries, k = inputs.queries, scale.k
    truth = expected_answers(inputs.data, queries, k)
    sample = queries[: scale.trace_sample]
    out: dict = {}
    with scratch_dir("serve-trace") as scratch:
        home = scratch / "home"
        out["io.save_s"], db = timed(_save_collection, scale, inputs.data, home)
        out["io.stored_bytes_per_user_byte"] = harness.directory_bytes(home) / inputs.data.nbytes
        out["io.representation_bytes_per_row"] = (
            (home / "representations.json").stat().st_size / len(inputs.data)
        )

        # the in-process half: the server's per-request work, replayed without wire or queue
        sharded = ShardedEngine.from_database(db, scale.shards)
        for query in queries[-4:]:
            sharded.knn_batch(query[None, :], KnnRequest(query, k=k).options())
            db.knn_batch(query[None, :], KnnRequest(query, k=k).options())
        request_bytes, reply_bytes, engine, scattered = [], [], [], []
        for i, query in enumerate(sample):
            answer, sent, received = replay_request(tracer, sharded, query, k, i)
            tally.check("traced.replay", answer, truth[i])
            request_bytes.append(sent)
            reply_bytes.append(received)
            options = KnnRequest(query, k=k).options()
            engine.append(timed(db.knn_batch, query[None, :], options)[0])
            scattered.append(timed(sharded.knn_batch, query[None, :], options)[0])
        sharded.close()
        n = len(sample)
        self_s = tracer.self_seconds()
        service_s = sum(tracer.durations(ROOT)) / n

        # the real server: plain for the latencies a caller sees, then with --report
        # (observability on inside it) for what only the server can count
        probes = queries[: 5 * scale.trace_sample]
        with ServerProcess(home, scale.shards) as server:
            out["serving.startup_s"] = server.startup_s
            untraced = _rtt_sample(server.url, probes, k, tally, truth, "traced.rtt")
            load_repeat(server.port, queries, scale, requests=4 * scale.depth)
            loaded = load_repeat(server.port, queries, scale, requests=scale.trace_load_requests)
            _check_replies(tally, "traced.load", loaded["answers"], truth)
            if not server.alive():
                tally.fail("server", "the server subprocess died")
        with ServerProcess(home, scale.shards, report=scratch / "server_report.json") as server:
            observed = _rtt_sample(server.url, probes, k, tally, truth, "traced.rtt_report")
            watched = load_repeat(server.port, queries, scale, requests=scale.trace_load_requests)
            _check_replies(tally, "traced.load_report", watched["answers"], truth)
            with connect(server.url) as client:
                stats = client.stats()
            if not server.alive():
                tally.fail("server", "the server subprocess died")

    metrics = stats.get("stats", {})  # the server's RunReport: counters, histograms
    out.update({
        "client.encode_ms": self_s["client.encode"] / n * 1e3,
        "client.decode_ms": self_s["client.decode"] / n * 1e3,
        "serving.request_decode_ms": self_s["serving.request_decode"] / n * 1e3,
        "serving.reply_encode_ms": self_s["serving.reply_encode"] / n * 1e3,
        "serving.request_bytes": mean(request_bytes),
        "serving.reply_bytes": mean(reply_bytes),
        "serving.scatter_overhead_ms": median([s - e for s, e in zip(scattered, engine)]) * 1e3,
        "engine.knn_batch_ms": median(engine) * 1e3,
        "serving.service_ms": service_s * 1e3,
        "serving.queue_share": 1.0 - service_s / median(loaded["latencies"]),
        "serving.rtt_p99_ms": percentile(untraced, 99) * 1e3,
        "serving.load_p50_ms": median(loaded["latencies"]) * 1e3,
        "serving.load_p99_ms": percentile(loaded["latencies"], 99) * 1e3,
        "serving.peak_in_flight": stats["server"]["peak_in_flight"],
        "serving.server_request_ms_p50": _histogram_p50(metrics, "server.request_ms"),
        "serving.shed": _counter(metrics, "server.shed"),
        "serving.errors": _counter(metrics, "server.errors"),
        # what the replayed service time leaves of an unloaded round trip: wire, event loop, thread hop
        "trace.unattributed_share": 1.0 - service_s / mean(untraced),
        # the same calls against the server with observability on
        "trace.overhead_share": median(observed) / median(untraced) - 1.0,
        "process.peak_rss_mb": harness.peak_rss_mb(),
    })
    return out


def _counter(metrics: dict, name: str) -> float:
    return float(metrics.get("counters", {}).get(name, 0))


def _histogram_p50(metrics: dict, name: str) -> float:
    return float(metrics.get("histograms", {}).get(name, {}).get("p50", 0.0))
