"""The TCP backend: a blocking client for ``repro serve``.

Speaks the length-prefixed JSON frame protocol of
:mod:`repro.serving.protocol` over one socket.  The client is synchronous
and issues one request at a time (the server supports pipelining; the
``serving`` workload of :mod:`repro.experiments` exercises that path);
responses are matched by the echoed request id.

Unsolicited ``notify`` push frames — standing-subscription deltas — may
arrive interleaved with responses at any time, so every frame read first
routes by ``op``: notify frames land in their subscription's inbox (a
:class:`repro.client.Subscription` drains it), everything else matches
the pending request id.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from ..continuous import Notification, StandingQuery
from ..serving.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameError,
    decode_body,
    encode_frame,
    frame_length,
)
from .api import KnnRequest, QueryResult, RangeRequest
from .local import Client
from .subscription import Subscription

__all__ = ["TcpClient", "ServerError"]


class ServerError(RuntimeError):
    """The server answered with an error envelope.

    ``code`` is the machine-readable cause: ``"overloaded"`` (shed by
    admission control — retry later), ``"bad_request"`` or ``"internal"``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class TcpClient(Client):
    """A connected client for one ``repro serve`` endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: "Optional[float]" = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self._max_frame_bytes = max_frame_bytes
        self._sock = socket.create_connection((host, port), timeout)
        # frames are parsed out of an owned buffer (never socket.makefile):
        # a recv that times out mid-frame leaves the partial bytes here, so
        # the next read resumes with framing intact instead of a poisoned
        # buffered reader
        self._buffer = bytearray()
        self._next_id = 0
        self._closed = False
        self._inboxes: "Dict[str, Deque[Notification]]" = {}

    def _read_frame(self) -> "Optional[dict]":
        """One frame off the socket, honouring its current timeout setting."""
        while True:
            if len(self._buffer) >= HEADER_BYTES:
                end = HEADER_BYTES + frame_length(
                    bytes(self._buffer[:HEADER_BYTES]), self._max_frame_bytes
                )
                if len(self._buffer) >= end:
                    body = bytes(self._buffer[HEADER_BYTES:end])
                    del self._buffer[:end]
                    return decode_body(body)
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                if self._buffer:
                    raise FrameError("connection closed mid-frame")
                return None  # clean close between frames
            self._buffer.extend(chunk)

    def _route_notify(self, frame: dict) -> "Optional[str]":
        """File one push frame into its subscription inbox; returns the sid."""
        sid = frame.get("subscription_id")
        inbox = self._inboxes.get(sid)
        if inbox is None:
            return None  # already unsubscribed: drop the straggler
        inbox.append(Notification.from_payload(frame["notification"]))
        return sid

    def _call(self, op: str, payload: "Optional[dict]" = None) -> dict:
        """One request/response round trip; raises :class:`ServerError` on failure."""
        if self._closed:
            raise RuntimeError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        message = {"id": request_id, "op": op}
        if payload:
            message.update(payload)
        self._sock.sendall(encode_frame(message, self._max_frame_bytes))
        while True:
            response = self._read_frame()
            if response is None:
                raise ConnectionError("server closed the connection mid-request")
            if response.get("op") == "notify":
                self._route_notify(response)
                continue
            if response.get("id") == request_id:
                break
        if not response.get("ok"):
            raise ServerError(
                response.get("code", "internal"), response.get("error", "unknown error")
            )
        return response

    def knn(self, request: KnnRequest) -> "List[QueryResult]":
        """Answer a batch k-NN request over the wire."""
        response = self._call("knn", request.to_payload())
        return [QueryResult.from_payload(item) for item in response["results"]]

    def range(self, request: RangeRequest) -> QueryResult:
        """Answer a radius query over the wire."""
        response = self._call("range", request.to_payload())
        return QueryResult.from_payload(response["result"])

    # -- mutation + continuous surface -----------------------------------
    def insert(self, series) -> int:
        """Insert one series over the wire; returns its global id."""
        payload = {"series": [float(v) for v in series]}
        return int(self._call("insert", payload)["series_id"])

    def delete(self, series_id: int) -> bool:
        """Tombstone one series id over the wire; the server refuses a
        non-integral id with ``bad_request``."""
        if isinstance(series_id, np.generic):  # JSON carries its Python value
            series_id = series_id.item()
        return bool(self._call("delete", {"series_id": series_id})["deleted"])

    def subscribe(self, query: StandingQuery) -> Subscription:
        """Register a standing query; deltas arrive as push frames."""
        response = self._call("subscribe", {"query": query.to_payload()})
        sid = str(response["subscription_id"])
        self._inboxes[sid] = deque()
        return Subscription(sid, self, lambda timeout: self._fetch_notify(sid, timeout))

    def unsubscribe(self, subscription_id: str) -> bool:
        """Drop a standing query; its inbox is discarded."""
        response = self._call("unsubscribe", {"subscription_id": subscription_id})
        self._inboxes.pop(subscription_id, None)
        return bool(response["unsubscribed"])

    def _fetch_notify(self, sid: str, timeout: "Optional[float]") -> Notification:
        """Next notification for ``sid`` — drain the inbox, then the socket.

        Only safe from the thread using this client (the client is
        single-threaded by contract); other subscriptions' frames read
        here land in their own inboxes.
        """
        inbox = self._inboxes.get(sid)
        if inbox is None:
            raise StopIteration  # unsubscribed while iterating
        if inbox:
            return inbox.popleft()
        previous = self._sock.gettimeout()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            while True:
                try:
                    frame = self._read_frame()
                except socket.timeout:
                    raise TimeoutError(
                        f"no notification for {sid} within {timeout}s"
                    ) from None
                if frame is None:
                    raise ConnectionError("server closed the connection")
                if frame.get("op") == "notify" and self._route_notify(frame) == sid:
                    return inbox.popleft()
        finally:
            if timeout is not None:
                self._sock.settimeout(previous)

    def stats(self) -> dict:
        """Server state (in-flight, peaks, shards) plus its metrics snapshot."""
        response = self._call("stats")
        return {key: response[key] for key in ("server", "stats") if key in response}

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._call("ping").get("pong"))

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._sock.close()
