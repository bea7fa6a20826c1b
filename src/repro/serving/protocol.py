"""Length-prefixed JSON framing for the TCP serving protocol.

Every message — request or response — is one *frame*: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON.  Requests carry
``{"id": <client-chosen int>, "op": <operation>, ...payload}``; responses
echo the ``id`` (so clients may pipeline many requests per connection and
match answers out of order) and carry ``{"ok": true, ...body}`` or
``{"ok": false, "code": <machine code>, "error": <human message>}``.

Operations and their payloads (see :mod:`repro.client.api` for the
dataclasses the payloads mirror):

===============  ==============================================  =======================
op               request payload                                 ok-response body
===============  ==============================================  =======================
``knn``          :meth:`repro.client.KnnRequest.to_payload`      ``results`` (list of
                                                                 :class:`QueryResult`
                                                                 payloads)
``range``        :meth:`repro.client.RangeRequest.to_payload`    ``result`` (one
                                                                 :class:`QueryResult`
                                                                 payload)
``insert``       ``series`` (list of floats)                     ``series_id``,
                                                                 ``generation``
``delete``       ``series_id``                                   ``deleted``,
                                                                 ``generation``
``subscribe``    ``query`` (a standing-query payload, see        ``subscription_id``
                 :func:`repro.continuous.query_from_payload`)
``unsubscribe``  ``subscription_id``                             ``unsubscribed``
``stats``        —                                               ``stats`` (metrics
                                                                 snapshot), ``server``
``ping``         —                                               ``pong: true``
===============  ==============================================  =======================

**Push frames.**  After a ``subscribe``, the server writes unsolicited
``notify`` frames on the same connection whenever the standing query's
result changes: ``{"op": "notify", "ok": true, "subscription_id": ...,
"notification": <Notification payload>}``.  Push frames carry **no**
``id`` key — they answer no request — so pipelining clients must route
frames by ``op`` before matching ids (see
:meth:`repro.client.TcpClient._call`).  Delivery order per subscription
follows notification ``seq``; see ``docs/continuous.md`` for backpressure
and resync semantics.

JSON serialises doubles via their shortest round-trip repr, so distances
survive the wire bit-for-bit — the serving tests assert byte-identical
answers against the in-process engine (and the continuous tests assert
the same for pushed deltas).
"""

from __future__ import annotations

import json
import struct
from typing import Optional

__all__ = [
    "FrameError",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "decode_body",
    "encode_frame",
    "frame_length",
    "read_frame",
    "read_frame_blocking",
    "error_response",
    "ok_response",
]

#: default ceiling on one frame's JSON body (guards the server's memory)
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: size of the length prefix in front of every frame body
HEADER_BYTES = _HEADER.size


class FrameError(ValueError):
    """A malformed, oversized or truncated frame."""


def encode_frame(message: dict, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame: 4-byte big-endian length + UTF-8 JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise FrameError(f"frame of {len(body)} bytes exceeds the {max_frame_bytes} cap")
    return _HEADER.pack(len(body)) + body


def frame_length(header: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """The body length a complete header announces, checked against the cap.

    The one length check every reader shares — the two stream readers here
    and :class:`repro.client.TcpClient`'s owned-buffer loop.
    """
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameError(f"frame of {length} bytes exceeds the {max_frame_bytes} cap")
    return length


def decode_body(body: bytes) -> dict:
    """A complete frame body as its message; :class:`FrameError` unless it
    is UTF-8 JSON holding an object."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError("frame body must be a JSON object")
    return message


async def read_frame(reader, max_frame_bytes: int = MAX_FRAME_BYTES) -> "Optional[dict]":
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean end-of-stream (connection closed between
    frames); raises :class:`FrameError` on truncation mid-frame or an
    oversized/malformed body.
    """
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise FrameError("connection closed mid-header") from exc
    try:
        body = await reader.readexactly(frame_length(header, max_frame_bytes))
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return decode_body(body)


def read_frame_blocking(stream, max_frame_bytes: int = MAX_FRAME_BYTES) -> "Optional[dict]":
    """Read one frame from a blocking binary file-like (``socket.makefile('rb')``)."""
    header = stream.read(_HEADER.size)
    if not header:
        return None  # clean close between frames
    if len(header) != _HEADER.size:
        raise FrameError("connection closed mid-header")
    length = frame_length(header, max_frame_bytes)
    body = stream.read(length)
    if len(body) != length:
        raise FrameError("connection closed mid-frame")
    return decode_body(body)


def ok_response(request_id, op: str, body: "Optional[dict]" = None) -> dict:
    """A success envelope echoing the request id."""
    message = {"id": request_id, "op": op, "ok": True}
    if body:
        message.update(body)
    return message


def error_response(request_id, code: str, error: str) -> dict:
    """A failure envelope: machine-readable ``code`` + human ``error``."""
    return {"id": request_id, "ok": False, "code": code, "error": error}
