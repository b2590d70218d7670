"""Tests for the HTTP/JSON gateway (repro.server.gateway)."""

import http.client
import json
import socket

import pytest

from repro import LDL
from repro.api import to_term
from repro.errors import ServerError
from repro.server.cache import AnswerCache
from repro.server.gateway import HttpGateway
from repro.storage.codec import encode_term
from tests.test_server import ServerThread

ANCESTRY = """
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
"""


class GatewayThread(ServerThread):
    """A ServerThread that also runs an HttpGateway on the same loop."""

    def __init__(self, session, gateway_kwargs=None, **kwargs):
        super().__init__(session, **kwargs)
        self._gateway_kwargs = gateway_kwargs or {}
        self.gateway = None

    async def _main(self):
        await self.server.start()
        self.gateway = HttpGateway(self.server, **self._gateway_kwargs)
        await self.gateway.start()
        self._started.set()
        try:
            await self.server.serve(handle_signals=False)
        finally:
            await self.gateway.stop()

    @property
    def http_port(self):
        return self.gateway.port

    def connection(self):
        return http.client.HTTPConnection("127.0.0.1", self.http_port, timeout=10)

    def request(self, method, path, body=None, conn=None):
        """One HTTP exchange; returns (status, decoded-json, connection)."""
        c = conn or self.connection()
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        c.request(method, path, payload, headers)
        response = c.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None, c


def ancestry_session():
    db = LDL(ANCESTRY)
    db.facts("par", [("ann", "bob"), ("bob", "cal")])
    return db


def rows(*value_rows):
    return [[encode_term(to_term(v)) for v in row] for row in value_rows]


class TestRoutesAndOps:
    def test_ops_over_http(self):
        with GatewayThread(ancestry_session(), cache=None) as gt:
            status, body, conn = gt.request("GET", "/v1/ping")
            assert (status, body["ok"]) == (200, True)

            # keep-alive: same connection serves the whole session
            status, body, _ = gt.request("GET", "/", conn=conn)
            assert status == 200
            assert "query" in body["ops"] and "ping" in body["get"]

            status, body, _ = gt.request(
                "POST", "/v1/query", {"q": "? anc(ann, X)."}, conn=conn
            )
            assert status == 200 and body["count"] == 2

            status, body, _ = gt.request(
                "POST",
                "/v1/add_facts",
                {"pred": "par", "rows": rows(("cal", "dot"))},
                conn=conn,
            )
            assert status == 200 and body["count"] == 1

            status, body, _ = gt.request(
                "POST",
                "/v1/query",
                {"q": "? anc(ann, X).", "strategy": "magic"},
                conn=conn,
            )
            assert status == 200 and body["count"] == 3

            status, body, _ = gt.request(
                "POST",
                "/v1/remove_facts",
                {"pred": "par", "rows": rows(("cal", "dot"))},
                conn=conn,
            )
            assert status == 200 and body["count"] == 1

            status, body, _ = gt.request(
                "POST", "/v1/explain", {"fact": "anc(ann, cal)."}, conn=conn
            )
            assert status == 200 and body["derivation"]

            status, body, _ = gt.request("GET", "/v1/stats", conn=conn)
            assert status == 200
            assert body["stats"]["server"]["requests_total"] >= 6

    def test_http_errors(self):
        with GatewayThread(ancestry_session(), cache=None) as gt:
            status, body, conn = gt.request("GET", "/v1/nope")
            assert status == 404 and body["ok"] is False

            status, body, _ = gt.request("GET", "/v1/query", conn=conn)
            assert status == 405 and "POST" in body["error"]

            status, body, _ = gt.request("POST", "/v1/stats", body={}, conn=conn)
            assert status == 200  # GET ops still accept POST bodies

            status, body, _ = gt.request("DELETE", "/v1/query", body={}, conn=conn)
            assert status == 405

            # a failed op surfaces the protocol error object with a status
            status, body, _ = gt.request(
                "POST", "/v1/query", {"q": "not a query"}, conn=conn
            )
            assert status == 500 and body["ok"] is False and body["etype"]

            # POST with no Content-Length at all
            raw = gt.connection()
            raw.putrequest("POST", "/v1/ping", skip_accept_encoding=True)
            raw.endheaders()
            response = raw.getresponse()
            assert response.status == 411

    def test_non_boolean_cache_field_is_a_protocol_error(self):
        """Regression: ``"cache": "false"`` was truthy, so the request
        was silently served from the cache; both transports refuse it."""
        with GatewayThread(ancestry_session(), cache=AnswerCache()) as gt:
            ask = {"q": "? anc(ann, X)."}
            for bad in ("false", 0, None, [False]):
                status, body, _ = gt.request("POST", "/v1/query", {**ask, "cache": bad})
                assert status == 400, bad
                assert body["etype"] == "ProtocolError" and "'cache'" in body["error"]
                with gt.client() as tcp:
                    with pytest.raises(ServerError) as exc_info:
                        tcp.call("query", **ask, cache=bad)
                    assert exc_info.value.etype == "ProtocolError"
            assert gt.request("POST", "/v1/query", {**ask, "cache": False})[1]["cache"] == "off"
            stats = gt.request("GET", "/v1/stats")[1]["stats"]
            assert stats["answer_cache"]["hits"] + stats["answer_cache"]["misses"] == 0

    def test_malformed_body_is_400_and_closes(self):
        with GatewayThread(ancestry_session(), cache=None) as gt:
            conn = gt.connection()
            conn.request(
                "POST",
                "/v1/query",
                "{not json",
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            json.loads(response.read())

    def test_negative_content_length_is_400_and_closes(self):
        """Regression: a routed request passed a negative Content-Length
        to ``readexactly``, which raised, so the client got no reply."""
        with GatewayThread(ancestry_session(), cache=None) as gt:
            for path in ("/v1/ping", "/v1/query"):
                with socket.create_connection(
                    ("127.0.0.1", gt.http_port), timeout=10
                ) as sock:
                    sock.sendall(
                        f"POST {path} HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
                        .encode("ascii")
                    )
                    raw = sock.makefile("rb").read()  # until the gateway closes
                head, _, body = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), raw
                assert b"Connection: close" in head
                assert json.loads(body)["error"] == "malformed Content-Length"
            status, stats, conn = gt.request("GET", "/v1/stats")
            conn.close()
            assert status == 200 and stats["stats"]["server"]["errors_total"] == 0


class TestLimits:
    def test_connection_limit_rejects_with_503(self):
        with GatewayThread(
            ancestry_session(), cache=None, gateway_kwargs={"max_connections": 1}
        ) as gt:
            status, _, first = gt.request("GET", "/v1/ping")
            assert status == 200  # holds the only slot (keep-alive)
            status, body, second = gt.request("GET", "/v1/ping")
            assert status == 503
            assert body["etype"] == "ServerError"
            second.close()
            # the admitted connection keeps working
            status, _, _ = gt.request("GET", "/v1/ping", conn=first)
            assert status == 200
            first.close()
            stats = gt.request("GET", "/v1/stats")[1]["stats"]
            assert stats["server"]["rejections"]["connections"] >= 1

    def test_inflight_limit_rejects_before_dispatch(self):
        with GatewayThread(
            ancestry_session(), cache=None, gateway_kwargs={"max_inflight": 0}
        ) as gt:
            status, body, conn = gt.request("GET", "/v1/ping")
            assert status == 503
            assert "in-flight" in body["error"]
            # the connection survives an admission rejection
            status, body, _ = gt.request("GET", "/", conn=conn)
            assert status == 200

    def test_oversized_body_is_413(self):
        with GatewayThread(
            ancestry_session(), cache=None, gateway_kwargs={"max_body_bytes": 64}
        ) as gt:
            big = {"q": "? anc(ann, X)." + "x" * 200}
            status, body, _ = gt.request("POST", "/v1/query", big)
            assert status == 413
            assert "64-byte limit" in body["error"]
            stats = gt.request("GET", "/v1/stats")[1]["stats"]
            assert stats["server"]["rejections"]["body"] >= 1


class TestSharedCore:
    def test_http_and_tcp_share_session_cache_and_metrics(self):
        cache = AnswerCache()
        with GatewayThread(ancestry_session(), cache=cache) as gt:
            ask = {"q": "? anc(ann, X)."}
            assert gt.request("POST", "/v1/query", ask)[1]["cache"] == "miss"
            assert gt.request("POST", "/v1/query", ask)[1]["cache"] == "hit"
            # a write over the line protocol invalidates the HTTP hit
            with gt.client() as tcp:
                tcp.add_facts("par", [("cal", "dot")])
                response = gt.request("POST", "/v1/query", ask)[1]
                assert response["cache"] == "miss"
                assert response["count"] == 3
                # ...and the refilled entry serves TCP clients too
                assert tcp.call("query", **ask)["cache"] == "hit"
            stats = gt.request("GET", "/v1/stats")[1]["stats"]
            assert stats["answer_cache"]["hits"] >= 2
            assert stats["server"]["cache"]["invalidation_events"] >= 1


def test_memo_hit_bodies_are_compact_json_of_the_reply():
    """Over real HTTP exchanges: a miss, the first hit (which builds the
    wire memo) and a memo hit.  Both hits send the same bytes, each body
    is its own compact re-encoding, and the stats count the memo hit."""
    with GatewayThread(ancestry_session(), cache=AnswerCache()) as gt:
        bodies = []
        conn = gt.connection()
        for _ in range(3):
            conn.request(
                "POST", "/v1/query", json.dumps({"q": "? anc(ann, X).", "id": "é"}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            bodies.append(response.read())
        conn.close()
        replies = [json.loads(body) for body in bodies]
        assert [r["cache"] for r in replies] == ["miss", "hit", "hit"]
        assert bodies[1] == bodies[2]
        for body in bodies:
            assert body == json.dumps(
                json.loads(body), separators=(",", ":")
            ).encode("ascii")
        _, stats, conn = gt.request("GET", "/v1/stats")
        conn.close()
        cache = stats["stats"]["answer_cache"]
        assert cache["memo_hits"] == 1
        assert cache["memo_bytes"] == len(
            json.dumps(replies[2]["answers"], separators=(",", ":"))
        )
