"""The asyncio TCP server over one shared LDL session.

One :class:`LDLServer` wraps one :class:`repro.api.LDL` session and
serves the newline-delimited JSON protocol of
:mod:`repro.server.protocol`.  Concurrency discipline:

* a query whose exact cache entry already holds its wire answers is
  answered on the event loop, under the read lock — a dict lookup and
  a write of the reply with the memo's JSON text spliced in
  (:func:`repro.server.protocol.encode_json`); every other request
  runs its (blocking) session call in the event loop's default
  executor, so slow evaluations never stall the accept loop;
* reads (``query``, ``explain``, ``stats``) hold the shared side of a
  :class:`~repro.server.rwlock.ReadWriteLock` and overlap freely;
* writes (``add_facts``, ``remove_facts``, ``checkpoint``) hold the
  exclusive side, serializing against the incremental model — a reader
  therefore always observes a model some prefix of the update stream
  produced, never a half-applied batch;
* each request is bounded by ``request_timeout`` seconds and
  ``max_request_bytes`` on the wire; violations produce an error
  response (and, for oversized lines, a closed connection).  For a
  *write* the budget covers waiting for the write lock only: once the
  blocking mutation has been handed to an executor thread it cannot be
  cancelled, so the lock is held until the thread actually finishes and
  the response reports the true outcome — a late write is a slow
  success, never a "timed out but maybe applied" lie, and no reader can
  observe the half-applied batch a cancelled-but-still-running mutation
  would otherwise expose;
* SIGTERM/SIGINT trigger graceful shutdown: stop accepting, drain
  in-flight requests (tracked from first byte dispatched to last byte
  drained), and checkpoint a durable session so the next start restores
  from the snapshot instead of replaying the WAL.

Request failures are *responses*, not connection teardowns: a parse
error in one query leaves the connection serving the next.

Queries are served through the session's :class:`AnswerCache` when one
is attached (the default; ``cache=None`` serves without one): hot
queries hit cached answer rows, misses populate the cache from the
durable store's maintained model (by on-demand magic evaluation in an
in-memory session, which has none), and every write invalidates
exactly the entries whose support intersects the predicates the
update's :class:`~repro.engine.maintain.DeltaBatch` actually changed.
"""

from __future__ import annotations

import asyncio
import gc
import signal
import time
from contextlib import contextmanager
from functools import partial

from repro.api import LDL
from repro.errors import ProtocolError
from repro.observe import ServerMetrics
from repro.parser.parser import parse_query
from repro.program.rule import Query
from repro.server import protocol
from repro.server.cache import AnswerCache
from repro.server.rwlock import ReadWriteLock

#: Ops that only read the model (shared lock) vs. mutate it (exclusive).
READ_OPS = frozenset({"query", "explain", "stats", "ping"})
WRITE_OPS = frozenset({"add_facts", "remove_facts", "checkpoint"})


class LDLServer:
    """Serve one LDL session to many concurrent TCP clients."""

    def __init__(
        self,
        session: LDL,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        request_timeout: float = 30.0,
        max_request_bytes: int = protocol.MAX_REQUEST_BYTES,
        metrics: ServerMetrics | None = None,
        shutdown_grace: float = 5.0,
        cache: AnswerCache | None | str = "auto",
    ) -> None:
        self.session = session
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.max_request_bytes = max_request_bytes
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.shutdown_grace = shutdown_grace
        if cache == "auto":
            cache = AnswerCache()
        self.cache = cache
        if self.cache is not None:
            self.cache.bind_session(session, register=False)
            session.add_delta_listener(self._on_invalidation)
        self._lock = ReadWriteLock()
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._active_requests = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "LDLServer":
        """Bind and start accepting; resolves the ephemeral port."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=self.max_request_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def request_stop(self) -> None:
        """Ask :meth:`serve` to shut down (signal- and thread-safe)."""
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if self._loop is not None and running is not self._loop:
            self._loop.call_soon_threadsafe(self._stop.set)
        else:
            self._stop.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    async def serve(self, handle_signals: bool = True) -> None:
        """Run until :meth:`request_stop`, then shut down gracefully."""
        if self._server is None:
            await self.start()
        if handle_signals:
            self.install_signal_handlers()
        await self._stop.wait()
        await self.shutdown()

    async def shutdown(self, checkpoint: bool = True) -> None:
        """Stop accepting, drain in-flight work, checkpoint if durable."""
        if self._server is not None:
            self._server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.shutdown_grace
        while self._active_requests and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if checkpoint and self.session.store is not None:
            async with self._lock.write():
                await loop.run_in_executor(None, self.session.checkpoint)

    # -- connection handling -----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        self.metrics.connection_opened()
        try:
            while not self._stop.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # line exceeded max_request_bytes: report and hang up
                    # (the rest of the oversized line is unrecoverable).
                    oversize = ProtocolError(
                        f"request exceeds {self.max_request_bytes} bytes"
                    )
                    writer.write(
                        protocol.encode_message(
                            protocol.error_response(None, oversize)
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # the request counts as in flight until its response is
                # drained, so graceful shutdown never closes a writer
                # between computing an answer and delivering it.
                with self.track_request():
                    response = await self._handle_line(line)
                    writer.write(protocol.encode_message(response))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-conversation; nothing to answer
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            self.metrics.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @contextmanager
    def track_request(self):
        """Count one request as in flight for graceful-drain purposes.

        Callers (the line protocol and the HTTP gateway) hold this from
        dispatch until the response bytes are drained to the socket.
        """
        self._active_requests += 1
        try:
            yield
        finally:
            self._active_requests -= 1

    async def _handle_line(self, line: bytes) -> dict:
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            return protocol.error_response(None, exc)
        return await self.handle_request(request)

    async def handle_request(self, request: dict) -> dict:
        """Dispatch one decoded request; shared by every transport."""
        op = request["op"]
        self.metrics.request_started(op)
        start = time.perf_counter()
        try:
            response = await self._dispatch(op, request)
        except asyncio.TimeoutError:
            response = protocol.error_response(
                request,
                TimeoutError(
                    f"{op} exceeded the {self.request_timeout}s request timeout"
                ),
            )
        except Exception as exc:  # noqa: BLE001 - becomes the error response
            response = protocol.error_response(request, exc)
        self.metrics.request_finished(
            op, time.perf_counter() - start, ok=response.get("ok", False)
        )
        return response

    async def _dispatch(self, op: str, request: dict) -> dict:
        if op in WRITE_OPS:
            return await self._dispatch_write(op, request)
        # reads are side-effect free: cancelling one mid-executor merely
        # abandons a thread whose result is discarded, so the whole
        # read — lock wait included — runs under the request budget.
        return await asyncio.wait_for(
            self._dispatch_read(op, request), self.request_timeout
        )

    async def _dispatch_read(self, op: str, request: dict) -> dict:
        async with self._lock.read():
            if op == "query":
                return await self._query(request)
            return await self._run_op(op, request)

    async def _query(self, request: dict) -> dict:
        """Answer a query; called holding the read lock.

        The query is parsed here, once.  A query whose wire answers an
        earlier exact hit memoized is answered on the loop; everything
        else goes to the executor with the parsed query.
        """
        text = request.get("q")
        if not isinstance(text, str):
            raise ProtocolError("query needs a 'q' string")
        use_cache = request.get("cache", True)
        if not isinstance(use_cache, bool):
            raise ProtocolError(f"'cache' must be true or false, not {use_cache!r}")
        strategy = request.get("strategy", "seminaive")
        query = parse_query(text)
        cache = self.cache if use_cache else None
        answers = None if cache is None else cache.memoized(query)
        if answers is not None:
            served = "hit"
            self.metrics.record_cache(served)
        else:
            answers, served = await self._in_executor(
                self._answer, query, strategy, cache
            )
        return protocol.ok_response(
            request, answers=answers, count=len(answers), cache=served
        )

    async def _dispatch_write(self, op: str, request: dict) -> dict:
        """Run a mutation with torn-state-free timeout semantics.

        The request budget bounds *waiting for the write lock*.  Once
        the blocking session call is handed to an executor thread,
        cancellation cannot stop it — the thread would keep mutating
        after the lock was released, and readers could observe a
        half-applied batch while the client was told the write timed
        out.  So past that point the lock is simply held until the
        mutation finishes, and the response reports what actually
        happened (see the regression tests in tests/test_server.py).
        """
        try:
            await asyncio.wait_for(
                self._lock.acquire_write(), self.request_timeout
            )
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"{op} waited longer than the {self.request_timeout}s "
                "request timeout for the write lock; nothing was applied"
            ) from None
        mutation = asyncio.ensure_future(self._run_op(op, request))
        try:
            return await asyncio.shield(mutation)
        except asyncio.CancelledError:
            # this request's coroutine was cancelled (connection
            # teardown): the mutation is already running and must still
            # complete before the lock can be released.
            mutation.add_done_callback(
                lambda t: t.cancelled() or t.exception()
            )
            if not mutation.done():
                await asyncio.wait([mutation])
            raise
        finally:
            await self._lock.release_write()

    @staticmethod
    async def _in_executor(func, *args):
        """Run a blocking call in the loop's default executor."""
        fut = asyncio.get_running_loop().run_in_executor(None, partial(func, *args))
        try:
            return await fut
        except asyncio.CancelledError:
            # a timed-out read abandons its executor thread; consume the
            # eventual result so its exception is never logged as
            # unretrieved (a cancelled future has none to consume).
            fut.add_done_callback(lambda f: f.cancelled() or f.exception())
            raise

    async def _run_op(self, op: str, request: dict) -> dict:
        if op == "ping":
            return protocol.ok_response(request, pong=True)
        if op == "explain":
            fact = request.get("fact")
            if not isinstance(fact, str):
                raise ProtocolError("explain needs a 'fact' string")
            derivation = await self._in_executor(self.session.explain, fact)
            return protocol.ok_response(
                request,
                derivation=None if derivation is None else derivation.format(),
            )
        if op == "stats":
            stats = await self._in_executor(self._stats)
            return protocol.ok_response(request, stats=stats)
        if op == "add_facts":
            atoms = protocol.atoms_of_request(request)
            await self._in_executor(self.session.add_atoms, atoms)
            return protocol.ok_response(request, count=len(atoms))
        if op == "remove_facts":
            atoms = protocol.atoms_of_request(request)
            await self._in_executor(self.session.remove_atoms, atoms)
            return protocol.ok_response(request, count=len(atoms))
        if op == "checkpoint":
            nbytes = await self._in_executor(self.session.checkpoint)
            return protocol.ok_response(request, bytes=nbytes)
        raise ProtocolError(f"unknown op {op!r}")  # unreachable after decode

    # -- blocking helpers (run in executor threads) ------------------------

    def _on_invalidation(self, invalidation) -> None:
        """Session delta listener: invalidate the cache, count it."""
        dropped = self.cache.apply_invalidation(invalidation)
        self.metrics.record_cache("invalidation_events")
        if dropped:
            self.metrics.record_cache("invalidated", dropped)

    def _answer(
        self, query: Query, strategy: str, cache: AnswerCache | None
    ) -> tuple[list[dict], str]:
        """Answer a query in wire form (``{variable: tagged tree}``).

        Returns ``(answers, how)`` where ``how`` reports the cache
        outcome (``hit``/``hit-subsumed``/``miss``/``unsatisfiable``)
        or ``"off"`` when the cache was absent or bypassed — cached or
        not, the answers are identical (property-tested).
        """
        if cache is not None:
            answers, served = cache.answers(query, wire=True)
            self.metrics.record_cache(served)
            return answers, served
        if strategy == "magic":
            bindings = self.session.query_magic(query).answers()
        else:
            bindings = self.session.model(strategy).answers(query)
        return [protocol.encode_binding(b) for b in bindings], "off"

    def _stats(self) -> dict:
        session = self.session
        store = session.store
        out = {
            "server": self.metrics.report(),
            "answer_cache": None if self.cache is None else self.cache.report(),
            "session": {
                "rules": len(session.program),
                "edb_facts": session.edb_size,
                "model_facts": len(session.database()),
                "durable": store is not None,
            },
        }
        if store is not None:
            out["session"]["store"] = {
                "path": store.path,
                "restore_mode": store.stats.restore_mode,
                "wal_records_replayed": store.stats.wal_records_replayed,
                "compactions": store.stats.compactions,
            }
            out["session"]["maintenance"] = store.model.maintenance.report()
        # the engine pauses the cyclic collector while it builds or
        # repairs a model (repro.util.gc_paused): a leaked pause, or a
        # tail made of collections, shows here.
        out["runtime"] = {
            "gc_enabled": gc.isenabled(),
            "gc_collections": [g["collections"] for g in gc.get_stats()],
        }
        return out


async def _serve_session(session: LDL, **kwargs) -> LDLServer:
    server = LDLServer(session, **kwargs)
    await server.start()
    await server.serve()
    return server


def serve(
    session: LDL,
    host: str = "127.0.0.1",
    port: int = protocol.DEFAULT_PORT,
    **kwargs,
) -> None:
    """Blocking convenience entry point: serve until SIGTERM/SIGINT."""
    asyncio.run(_serve_session(session, host=host, port=port, **kwargs))
