"""An HTTP/JSON gateway in front of the TCP server core.

:class:`HttpGateway` exposes the same operations as the line protocol
over plain HTTP/1.1 — stdlib asyncio only, no new dependencies — so
anything that can speak HTTP (curl, a browser, a load balancer's
health check) can talk to a serving session::

    POST /v1/query       {"q": "? ancestor(ann, X).", "strategy": "magic"}
    POST /v1/add_facts   {"pred": "parent", "rows": [[["s","ann"], ["s","bob"]]]}
    POST /v1/remove_facts, /v1/explain, /v1/checkpoint
    GET  /v1/stats, /v1/ping, /

Request bodies are exactly the JSON objects of
:mod:`repro.server.protocol` minus the ``op`` (taken from the path);
responses are the protocol's response objects as JSON bodies, encoded
by the line protocol's own :func:`~repro.server.protocol.encode_json`
(so a memoized answer list is spliced in as its text here too).  Success
is 200; a failed operation maps its ``etype`` to a status —
``ProtocolError`` 400, ``TimeoutError`` 504, anything else 500 — with
the protocol error object as the body either way.

The gateway owns **no** session state: every request funnels through
the shared :meth:`LDLServer.handle_request`, so HTTP traffic takes the
same read-write lock, answer cache, metrics, and in-flight drain
accounting as line-protocol traffic, and the two can serve one session
simultaneously.

Admission control and backpressure:

* ``max_connections`` — a connection over the limit is answered with
  one ``503`` and closed before any request is read;
* ``max_inflight`` — a request that would push the gateway's dispatched
  requests over the limit is answered ``503 Retry-After: 1`` *without*
  touching the core (the connection survives; a well-behaved client
  backs off);
* ``max_body_bytes`` — a declared body over the limit is answered
  ``413`` and the connection closed (the body is never read);
* responses are written through ``await writer.drain()``, so a slow
  reader stalls only its own connection, bounded by the transport's
  write buffer, instead of buffering unboundedly in the process.

Rejections are counted per reason in the shared
:class:`~repro.observe.ServerMetrics` (``rejections`` in ``stats``).
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING

from repro.server import protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.server import LDLServer

#: ops reachable with GET (no body, read-only, cheap)
GET_OPS = frozenset({"stats", "ping"})

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _status_of(response: dict) -> int:
    """The HTTP status a protocol response maps to."""
    if response.get("ok"):
        return 200
    etype = response.get("etype", "")
    if etype == "ProtocolError":
        return 400
    if etype == "TimeoutError":
        return 504
    return 500


def _encode_http(
    status: int, payload: dict, extra_headers: tuple[str, ...] = (), close: bool = False
) -> bytes:
    body = protocol.encode_json(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *extra_headers,
    ]
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _error_payload(message: str, etype: str = "ProtocolError") -> dict:
    return {"ok": False, "error": message, "etype": etype}


class HttpGateway:
    """Serve :class:`LDLServer` operations over HTTP/1.1."""

    def __init__(
        self,
        core: "LDLServer",
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 128,
        max_inflight: int = 64,
        max_body_bytes: int | None = None,
    ) -> None:
        self.core = core
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.max_body_bytes = (
            core.max_request_bytes if max_body_bytes is None else max_body_bytes
        )
        self._connections = 0
        self._inflight = 0
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "HttpGateway":
        """Bind and start accepting; resolves the ephemeral port."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=max(self.max_body_bytes, 1 << 16),
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting and close the remaining connections.

        In-flight requests already dispatched to the core are covered
        by the core's own drain accounting
        (:meth:`LDLServer.track_request`); idle keep-alive connections
        are simply closed.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()

    # -- connection handling -----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._connections >= self.max_connections:
            self.core.metrics.record_rejection("connections")
            writer.write(
                _encode_http(
                    503,
                    _error_payload(
                        f"gateway connection limit ({self.max_connections}) "
                        "reached; retry later",
                        etype="ServerError",
                    ),
                    extra_headers=("Retry-After: 1",),
                    close=True,
                )
            )
            try:
                await writer.drain()
            finally:
                writer.close()
            return
        self._connections += 1
        self._writers.add(writer)
        self.core.metrics.connection_opened()
        try:
            while not self._stopping:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client vanished; nothing left to answer
        finally:
            self._connections -= 1
            self._writers.discard(writer)
            self.core.metrics.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one HTTP request; returns whether to keep the connection."""
        try:
            request_line = await reader.readline()
        except ValueError:
            writer.write(
                _encode_http(
                    431, _error_payload("request line too long"), close=True
                )
            )
            await writer.drain()
            return False
        if not request_line or not request_line.strip():
            return False
        try:
            method, path, _version = request_line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            writer.write(
                _encode_http(
                    400, _error_payload("malformed request line"), close=True
                )
            )
            await writer.drain()
            return False

        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                writer.write(
                    _encode_http(
                        431, _error_payload("header too long"), close=True
                    )
                )
                await writer.drain()
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        wants_close = headers.get("connection", "").lower() == "close"

        async def respond(status: int, payload: dict, *extra: str) -> bool:
            close = wants_close or status in (400, 413, 431)
            writer.write(
                _encode_http(status, payload, extra_headers=extra, close=close)
            )
            # backpressure: a slow reader stalls this connection here,
            # bounded by the transport buffer, instead of queueing
            # responses in memory.
            await writer.drain()
            return not close

        op, error = self._route(method, path)
        if error is not None:
            # discard any declared body so a keep-alive connection stays
            # aligned on the next request boundary
            length = headers.get("content-length")
            if length is not None:
                try:
                    nbytes = int(length)
                except ValueError:
                    nbytes = -1
                if 0 <= nbytes <= self.max_body_bytes:
                    await reader.readexactly(nbytes)
                else:
                    status, payload = error
                    writer.write(_encode_http(status, payload, close=True))
                    await writer.drain()
                    return False
            return await respond(*error)

        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                nbytes = int(length)
            except ValueError:
                nbytes = -1
            if nbytes < 0:
                return await respond(
                    400, _error_payload("malformed Content-Length")
                )
            if nbytes > self.max_body_bytes:
                self.core.metrics.record_rejection("body")
                return await respond(
                    413,
                    _error_payload(
                        f"body of {nbytes} bytes exceeds the "
                        f"{self.max_body_bytes}-byte limit"
                    ),
                )
            body = await reader.readexactly(nbytes)
        elif method == "POST":
            return await respond(
                411, _error_payload("POST requires Content-Length")
            )

        if op is None:  # GET /: describe the API
            return await respond(
                200,
                {
                    "ok": True,
                    "ops": sorted(protocol.OPS),
                    "get": sorted(GET_OPS),
                },
            )

        if body:
            try:
                request = json.loads(body)
            except ValueError as exc:
                return await respond(
                    400, _error_payload(f"body is not valid JSON: {exc}")
                )
            if not isinstance(request, dict):
                return await respond(
                    400, _error_payload("body must be a JSON object")
                )
        else:
            request = {}
        request["op"] = op

        # admission control: refuse before dispatching, so an already
        # saturated core never grows an unbounded internal queue.
        if self._inflight >= self.max_inflight:
            self.core.metrics.record_rejection("admission")
            return await respond(
                503,
                _error_payload(
                    f"gateway at its in-flight limit ({self.max_inflight}); "
                    "retry later",
                    etype="ServerError",
                ),
                "Retry-After: 1",
            )

        self._inflight += 1
        try:
            with self.core.track_request():
                response = await self.core.handle_request(request)
                return await respond(_status_of(response), response)
        finally:
            self._inflight -= 1

    @staticmethod
    def _route(
        method: str, path: str
    ) -> tuple[str | None, tuple[int, dict] | None]:
        """Map method+path to an op; ``(None, None)`` is the index."""
        path = path.split("?", 1)[0]
        if path in ("/", ""):
            if method != "GET":
                return None, (405, _error_payload("use GET for /"))
            return None, None
        if not path.startswith("/v1/"):
            return None, (404, _error_payload(f"unknown path {path!r}"))
        op = path[len("/v1/") :]
        if op not in protocol.OPS:
            return None, (
                404,
                _error_payload(
                    f"unknown op {op!r} (expected one of {protocol.OPS})"
                ),
            )
        if method == "GET":
            if op not in GET_OPS:
                return None, (
                    405,
                    _error_payload(f"{op} requires POST"),
                )
            return op, None
        if method != "POST":
            return None, (405, _error_payload(f"unsupported method {method}"))
        return op, None


__all__ = ["HttpGateway", "GET_OPS"]
