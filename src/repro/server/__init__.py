"""Concurrent network serving for LDL1 sessions.

An :class:`LDLServer` exposes one shared :class:`repro.api.LDL` session
over TCP, speaking a newline-delimited JSON protocol (one request
object per line, one response object per line; see
:mod:`repro.server.protocol`).  Concurrent queries proceed in parallel
under a reader lock while updates serialize through the writer side of
a :class:`~repro.server.rwlock.ReadWriteLock`, so every response
reflects a consistent model.  :class:`Client` is the matching blocking
client used by the tests, the benchmarks, and the CLI smoke scripts.

    from repro import LDL
    from repro.server import LDLServer, Client

    server = LDLServer(LDL("anc(X, Y) <- parent(X, Y)."), port=0)
    # ... server.serve() in an asyncio loop / `repro serve` in a shell
    with Client("127.0.0.1", server.port) as client:
        client.add_facts("parent", [("ann", "bob")])
        client.query("? anc(ann, X).")   # [{'X': 'bob'}]

Queries are answered through a subsumption-aware, version-invalidated
:class:`AnswerCache` by default (``LDLServer(session, cache=None)``
serves without one), and :class:`HttpGateway` puts an HTTP/JSON
facade — with connection limits, admission control, and backpressure —
in front of the same server core (``repro serve --http``).
"""

from repro.server.cache import AnswerCache
from repro.server.client import Client
from repro.server.gateway import HttpGateway
from repro.server.protocol import (
    DEFAULT_PORT,
    MAX_REQUEST_BYTES,
    decode_request,
    encode_message,
)
from repro.server.rwlock import ReadWriteLock
from repro.server.server import LDLServer, serve

__all__ = [
    "AnswerCache",
    "Client",
    "DEFAULT_PORT",
    "HttpGateway",
    "LDLServer",
    "MAX_REQUEST_BYTES",
    "ReadWriteLock",
    "decode_request",
    "encode_message",
    "serve",
]
