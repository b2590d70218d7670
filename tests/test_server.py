"""Tests for the concurrent TCP server (repro.server)."""

import asyncio
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import LDL
from repro.engine.compiled import compile_program
from repro.errors import ProtocolError, ServerError
from repro.server import Client, LDLServer, ReadWriteLock
from repro.server import protocol

ROOT = Path(__file__).resolve().parents[1]

TC_PROGRAM = """
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
"""


def norm(answers):
    """Order-independent form of a query answer list."""
    return sorted(tuple(sorted(b.items())) for b in answers)


class ServerThread:
    """An LDLServer running on a background event-loop thread."""

    def __init__(self, session, **kwargs):
        kwargs.setdefault("port", 0)
        self.server = LDLServer(session, **kwargs)
        self._started = threading.Event()
        self._failure = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by __enter__/__exit__
            self._failure = exc
            self._started.set()

    async def _main(self):
        await self.server.start()
        self._started.set()
        # signal handlers only work on the main thread
        await self.server.serve(handle_signals=False)

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(10), "server did not start"
        if self._failure is not None:
            raise self._failure
        return self

    def __exit__(self, *exc):
        self.server.request_stop()
        self._thread.join(10)
        assert not self._thread.is_alive(), "server did not shut down"
        if self._failure is not None:
            raise self._failure

    @property
    def port(self):
        return self.server.port

    def client(self, **kwargs):
        return Client("127.0.0.1", self.port, **kwargs)


class TestProtocol:
    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request(b"? anc(ann, X).\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request(b"[1, 2]\n")

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request(b'{"op": "drop_tables"}\n')

    def test_binding_roundtrip(self):
        from repro.api import to_term

        binding = {"X": to_term(("a", frozenset({1, 2})))}
        assert protocol.decode_binding(
            json.loads(json.dumps(protocol.encode_binding(binding)))
        ) == binding

    def test_error_response_echoes_id(self):
        out = protocol.error_response({"id": 7}, ValueError("boom"))
        assert out == {
            "ok": False, "error": "boom", "etype": "ValueError", "id": 7,
        }


class TestReadWriteLock:
    def test_readers_overlap_writer_exclusive(self):
        async def main():
            lock = ReadWriteLock()
            peak_readers = 0
            writes = 0

            async def reader():
                nonlocal peak_readers
                async with lock.read():
                    peak_readers = max(peak_readers, lock.readers)
                    assert not lock.writer_active
                    await asyncio.sleep(0.01)

            async def writer():
                nonlocal writes
                async with lock.write():
                    assert lock.readers == 0
                    assert lock.writer_active
                    writes += 1
                    await asyncio.sleep(0.01)

            await asyncio.gather(
                reader(), reader(), writer(), reader(), writer()
            )
            assert peak_readers >= 2
            assert writes == 2
            assert lock.readers == 0 and not lock.writer_active

        asyncio.run(main())

    def test_waiting_writer_blocks_new_readers(self):
        async def main():
            lock = ReadWriteLock()
            order = []

            async def long_reader():
                async with lock.read():
                    order.append("r1")
                    await asyncio.sleep(0.05)

            async def writer():
                await asyncio.sleep(0.01)  # let the reader in first
                async with lock.write():
                    order.append("w")

            async def late_reader():
                await asyncio.sleep(0.02)  # after the writer queued
                async with lock.read():
                    order.append("r2")

            await asyncio.gather(long_reader(), writer(), late_reader())
            # writer preference: r2 arrived while w waited, so w goes first
            assert order == ["r1", "w", "r2"]

        asyncio.run(main())


class TestServerRequests:
    def test_basic_ops(self):
        # through the default answer cache, then without one
        for kwargs in ({}, {"cache": None}):
            session = LDL(TC_PROGRAM)
            with ServerThread(session, **kwargs) as st, st.client() as client:
                assert client.ping()
                assert client.add_facts("e", [(1, 2), (2, 3)]) == 2
                assert client.query("? t(1, X).") == [{"X": 2}, {"X": 3}]
                assert client.query("? t(1, X).", strategy="magic") == [
                    {"X": 2}, {"X": 3},
                ]
                assert "t(1, 3)" in client.explain("t(1, 3)")
                assert client.remove_facts("e", [(2, 3)]) == 1
                assert client.query("? t(1, X).") == [{"X": 2}]

    def test_request_failure_keeps_connection(self):
        with ServerThread(LDL(TC_PROGRAM)) as st, st.client() as client:
            with pytest.raises(ServerError) as exc_info:
                client.query("this is not a query")
            assert exc_info.value.etype == "ParseError"
            with pytest.raises(ServerError):
                client.call("query")  # missing 'q'
            with pytest.raises(ServerError) as exc_info:
                client.checkpoint()  # no --db behind this session
            assert exc_info.value.etype == "EvaluationError"
            assert client.ping()  # connection still serving

    def test_add_facts_of_another_arity_fails(self):
        with ServerThread(LDL(TC_PROGRAM)) as st, st.client() as client:
            with pytest.raises(ServerError) as exc_info:
                client.add_facts("e", [(1, 2), (3,)])
            assert exc_info.value.etype == "WellFormednessError"
            assert client.query("? t(X, Y).") == []

    def test_malformed_line_gets_error_response(self):
        with ServerThread(LDL(TC_PROGRAM)) as st:
            with socket.create_connection(("127.0.0.1", st.port), 5) as sock:
                f = sock.makefile("rwb")
                f.write(b"not json\n")
                f.flush()
                response = json.loads(f.readline())
                assert response["ok"] is False
                assert response["etype"] == "ProtocolError"
                # the connection survives a malformed line
                f.write(b'{"op": "ping"}\n')
                f.flush()
                assert json.loads(f.readline())["ok"] is True

    def test_oversized_request_rejected(self):
        with ServerThread(
            LDL(TC_PROGRAM), max_request_bytes=256
        ) as st:
            with socket.create_connection(("127.0.0.1", st.port), 5) as sock:
                f = sock.makefile("rwb")
                f.write(b'{"op": "query", "q": "' + b"x" * 1024 + b'"}\n')
                f.flush()
                response = json.loads(f.readline())
                assert response["ok"] is False
                assert "256 bytes" in response["error"]
                assert f.readline() == b""  # server hung up

    def test_stats_op(self):
        session = LDL(TC_PROGRAM)
        with ServerThread(session) as st, st.client() as client:
            client.add_facts("e", [(1, 2)])
            client.query("? t(X, Y).")
            stats = client.stats()
            server = stats["server"]
            assert server["requests"]["add_facts"] == 1
            assert server["requests"]["query"] == 1
            # the stats request itself is counted as started
            assert server["in_flight"] == 1
            assert server["connections_opened"] == 1
            assert server["latency"]["count"] == 2
            assert server["errors_total"] == 0
            assert stats["session"]["rules"] == 2
            assert stats["session"]["edb_facts"] == 1
            assert stats["session"]["durable"] is False

    def test_request_timeout(self):
        with ServerThread(
            LDL(TC_PROGRAM), request_timeout=0.0
        ) as st, st.client() as client:
            with pytest.raises(ServerError) as exc_info:
                client.query("? t(X, Y).")
            assert exc_info.value.etype == "TimeoutError"


class TestConcurrency:
    WRITERS = 4
    READERS = 4
    ROWS_PER_WRITER = 6

    def test_interleaved_clients_consistent_with_scratch_eval(self):
        """≥ 8 concurrent clients; answers match a from-scratch run."""
        session = LDL(TC_PROGRAM)
        errors = []
        start = threading.Barrier(self.WRITERS + self.READERS)

        def writer(st, i):
            try:
                with st.client() as client:
                    start.wait(10)
                    base = i * 100
                    for k in range(self.ROWS_PER_WRITER):
                        client.add_facts("e", [(base + k, base + k + 1)])
                        # read-your-writes through the shared model
                        assert {"Y": base + k + 1} in client.query(
                            f"? t({base + k}, Y)."
                        )
                    # removals interleave too; deterministic final EDB
                    client.remove_facts("e", [(base, base + 1)])
            except Exception as exc:  # noqa: BLE001 - reported by main thread
                errors.append(exc)

        def reader(st):
            try:
                with st.client() as client:
                    start.wait(10)
                    for _ in range(8):
                        for binding in client.query("? e(X, Y)."):
                            assert binding["Y"] == binding["X"] + 1
                        client.query("? t(X, 103).", strategy="magic")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        with ServerThread(session) as st:
            threads = [
                threading.Thread(target=writer, args=(st, i))
                for i in range(self.WRITERS)
            ] + [
                threading.Thread(target=reader, args=(st,))
                for _ in range(self.READERS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not errors, errors
            with st.client() as client:
                served = client.query("? t(X, Y).")
                stats = client.stats()

        # the final EDB is deterministic: every row each writer added,
        # minus the one it removed
        fresh = LDL(TC_PROGRAM)
        for i in range(self.WRITERS):
            base = i * 100
            fresh.facts(
                "e",
                [
                    (base + k, base + k + 1)
                    for k in range(1, self.ROWS_PER_WRITER)
                ],
            )
        assert norm(served) == norm(fresh.query("? t(X, Y)."))
        assert stats["server"]["in_flight"] == 1  # just the stats call
        assert stats["server"]["errors_total"] == 0


class TestConcurrentColdReads:
    """Cold bound queries share one prepared rewrite and the live EDB
    relations; nothing a read does may be visible to the next one."""

    CLIENTS = 8

    def test_cold_bound_queries_share_live_relations(self, tmp_path):
        from repro.server.cache import AnswerCache
        from repro.workloads.social import SOCIAL_PROGRAM, social_network

        edb = social_network(users=24, follows_per_user=3, interests=3, seed=5)
        session = LDL(SOCIAL_PROGRAM, path=str(tmp_path / "db"))
        session.add_atoms(edb)
        oracle = LDL(SOCIAL_PROGRAM)
        oracle.add_atoms(edb)
        follows = session.store.database.get_relation("follows")
        rows_before = len(follows)
        indexes_before = set(follows._id_indexes)
        cow_before = follows._cow
        errors, answers = [], {}
        start = threading.Barrier(self.CLIENTS)

        def reader(st, i):
            try:
                with st.client() as client:
                    start.wait(10)
                    for user in (f"u{i}", f"u{i + 8}", f"u{i + 16}"):
                        for q in (
                            f"? influences({user}, X).",
                            f"? recommend({user}, X).",
                            f"? audience({user}, N).",
                        ):
                            response = client.call("query", q=q)
                            assert response["cache"] == "miss", q
                            answers[q] = client.query(q)
            except Exception as exc:  # noqa: BLE001 - reported by main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerThread(session, cache=AnswerCache(capacity=8)) as st:
                threads = [
                    threading.Thread(target=reader, args=(st, i))
                    for i in range(self.CLIENTS)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                    assert not t.is_alive(), "reader never finished"
                with st.client() as client:
                    stats = client.stats()
        finally:
            sys.setswitchinterval(interval)
            session.close()
        assert not errors, errors
        assert len(answers) == self.CLIENTS * 9
        for q, served in answers.items():
            assert norm(served) == norm(oracle.query(q)), q
        # three query forms, however many users asked
        forms = compile_program(session.program)._prepared
        assert sorted((pred, adornment) for _, pred, adornment in forms) == [
            ("audience", "bf"), ("influences", "bf"), ("recommend", "bf"),
        ]
        assert stats["answer_cache"]["magic_fallbacks"] == {}
        # the live relation: same rows, indexes only ever added, and no
        # copy-on-write flag left behind by any reader
        assert len(follows) == rows_before
        assert set(follows._id_indexes) >= indexes_before
        assert follows._cow == cow_before


class CountingExecutor(ThreadPoolExecutor):
    """A default executor that counts what is submitted to it."""

    def __init__(self):
        super().__init__(max_workers=4)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class GatedReadSession(LDL):
    """A session whose model access waits for ``gate`` once one is set."""

    gate = None

    def model(self, strategy="seminaive"):
        if self.gate is not None:
            assert self.gate.wait(10), "gate never opened"
        return super().model(strategy)


class TestLoopHits:
    """Exact hits with a wire memo are answered on the event loop."""

    @staticmethod
    def in_process(session):
        """A server never listening, driven on a loop of the test's own
        through ``handle_request`` (the entry every transport shares)."""
        from repro.server.cache import AnswerCache

        server = LDLServer(session, cache=AnswerCache())
        executor = CountingExecutor()
        loop = asyncio.new_event_loop()
        loop.set_default_executor(executor)
        return server, executor, loop

    @staticmethod
    def close(loop):
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    def test_warmed_exact_hit_makes_no_executor_submission(self):
        session = LDL(TC_PROGRAM)
        session.facts("e", [(1, 2), (2, 3)])
        server, executor, loop = self.in_process(session)

        def ask(**fields):
            request = {"op": "query", "q": "? t(1, X).", **fields}
            return loop.run_until_complete(server.handle_request(request))

        try:
            miss, first_hit = ask(), ask()
            assert (miss["cache"], first_hit["cache"]) == ("miss", "hit")
            before = executor.submitted
            assert before == 2
            warm = [ask() for _ in range(5)]
            assert executor.submitted == before
            for reply in [first_hit] + warm:
                assert protocol.encode_message(reply) == protocol.encode_message(
                    {**miss, "cache": "hit"}
                )
            # the metrics count loop hits exactly as executor hits
            assert server.cache.report()["hits"] == 6
            stats = server.metrics.report()
            assert stats["cache"]["hit"] == 6
            assert stats["requests"]["query"] == 7
            assert stats["latency"]["count"] == 7
            # a bypass, or a query with no memo yet, still goes out
            assert ask(cache=False)["cache"] == "off"
            assert ask(q="? t(2, X).")["cache"] == "miss"
            assert executor.submitted == before + 2
        finally:
            self.close(loop)

    def test_hit_queued_behind_a_writer_sees_the_write(self):
        session = GatedReadSession(TC_PROGRAM)
        session.facts("e", [(1, 2), (2, 3)])
        server, _, loop = self.in_process(session)
        done = []

        def query(text, **fields):
            return server.handle_request({"op": "query", "q": text, **fields})

        async def until(condition):
            for _ in range(5000):
                if condition():
                    return
                await asyncio.sleep(0.001)
            raise AssertionError("condition never held")

        async def scenario():
            assert (await query("? t(1, X)."))["cache"] == "miss"
            assert (await query("? t(1, X)."))["cache"] == "hit"  # memoized
            session.gate = threading.Event()
            # a slow reader holds the read lock ...
            reader = asyncio.ensure_future(query("? e(X, Y).", cache=False))
            await until(lambda: server._lock.readers == 1)
            # ... so the writer waits, and writer preference queues the hit
            writer = asyncio.ensure_future(server.handle_request({
                "op": "add_facts", "pred": "e", "rows": [[["n", 3], ["n", 4]]],
            }))
            await until(lambda: server._lock._writers_waiting == 1)
            hit = asyncio.ensure_future(query("? t(1, X)."))
            for name, task in (("writer", writer), ("hit", hit)):
                task.add_done_callback(lambda _, name=name: done.append(name))
            await asyncio.sleep(0.05)
            assert not hit.done(), "a hit overtook a waiting writer"
            session.gate.set()
            return await reader, await writer, await hit

        try:
            reader, writer, hit = loop.run_until_complete(scenario())
        finally:
            session.gate = None
            self.close(loop)
        assert reader["ok"] and writer["ok"], (reader, writer)
        assert done == ["writer", "hit"]
        # the write invalidated the entry: post-write rows, refilled
        assert hit["cache"] == "miss"
        assert [b["X"] for b in hit["answers"]] == [["n", 2], ["n", 3], ["n", 4]]

    def test_wire_memo_is_built_on_first_hit_only(self):
        session = LDL(TC_PROGRAM)
        session.facts("e", [(1, 2), (2, 3)])
        server, _, loop = self.in_process(session)

        def ask(text):
            request = {"op": "query", "q": text}
            return loop.run_until_complete(server.handle_request(request))

        def memos():
            return {key: dict(entry.wire) for key, entry in server.cache._entries.items()}

        try:
            for text in ("? t(1, X).", "? t(2, X).", "? t(X, Y)."):
                assert ask(text)["cache"] == "miss"
            assert len(memos()) == 3
            assert all(not wire for wire in memos().values())
            ask("? t(Y, X).")  # a hit under other names
            ask("? t(X, X).")  # a hit, but not plain: nothing to memoize
            free = ("t", "ff", ())
            assert set(memos()[free]) == {("Y", "X")}
            assert sum(bool(wire) for wire in memos().values()) == 1
            # invalidation drops the memo with its entry
            loop.run_until_complete(server.handle_request({
                "op": "add_facts", "pred": "e", "rows": [[["n", 3], ["n", 4]]],
            }))
            assert memos() == {}
        finally:
            self.close(loop)


class SlowReadSession(LDL):
    """A session whose model access stalls — a deliberately slow query."""

    read_delay = 0.6

    def model(self, strategy="seminaive"):
        time.sleep(self.read_delay)
        return super().model(strategy)


class SlowWriteSession(LDL):
    """A session that applies a multi-atom batch with a stall inside,
    so a cancelled-but-still-running mutation has a wide window in
    which readers could observe the half-applied batch."""

    write_delay = 0.8

    def add_atoms(self, atoms):
        atoms = list(atoms)
        for i, atom in enumerate(atoms):
            if i:
                time.sleep(self.write_delay)
            super().add_atoms([atom])
        return self


class StallOnceSession(LDL):
    """A session whose first on-demand read computes its rows, then
    stalls before returning them — a read that outlives its timeout."""

    stall = 0.8

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stalled = threading.Event()

    def on_demand_rows(self, text):
        rows = super().on_demand_rows(text)
        if not self.stalled.is_set():
            time.sleep(self.stall)
            self.stalled.set()
        return rows


class TestConsistencyBugfixes:
    """Regression tests for the drain/timeout consistency bugs.

    Each of these fails on the pre-fix server: the drain loop polled a
    counter nothing incremented, a write timeout released the lock
    while the mutation kept running in its executor thread, and a
    client-side socket timeout left the connection desynchronized.
    """

    def test_graceful_drain_completes_inflight_query(self):
        """request_stop() must not close a connection mid-request."""
        session = SlowReadSession(TC_PROGRAM)
        session.facts("e", [(1, 2)])
        answers = []
        failures = []

        with ServerThread(session, cache=None, shutdown_grace=10.0) as st:
            def slow_query():
                try:
                    with st.client() as client:
                        answers.append(client.query("? t(1, X)."))
                except Exception as exc:  # noqa: BLE001 - asserted below
                    failures.append(exc)

            t = threading.Thread(target=slow_query)
            t.start()
            time.sleep(0.2)  # the query is now in flight
            st.server.request_stop()
            t.join(10)
        assert not failures, failures
        assert answers == [[{"X": 2}]]

    def test_write_timeout_never_exposes_half_applied_batch(self):
        """A write outliving the request budget still applies atomically.

        The budget bounds waiting for the write lock; once the mutation
        runs, the lock is held to completion and the response reports
        the true outcome.  Readers must only ever observe 0 or 2 of the
        2-row batch — 1 means the timeout released the lock under a
        live mutation.
        """
        session = SlowWriteSession(TC_PROGRAM)
        observed = set()
        write_response = {}
        reader_failures = []

        with ServerThread(
            session, cache=None, request_timeout=0.25
        ) as st:
            def writer():
                with st.client(timeout=30) as client:
                    write_response["count"] = client.add_facts(
                        "e", [(1, 2), (2, 3)]
                    )

            def reader():
                try:
                    with st.client(timeout=30) as client:
                        deadline = time.time() + 3
                        while time.time() < deadline:
                            try:
                                rows = client.query("? e(X, Y).")
                            except ServerError as exc:
                                # blocked behind the held write lock
                                # past the read budget: retry
                                assert exc.etype == "TimeoutError"
                                continue
                            observed.add(len(rows))
                            if len(rows) == 2:
                                return
                            time.sleep(0.01)
                except Exception as exc:  # noqa: BLE001
                    reader_failures.append(exc)

            threads = [
                threading.Thread(target=writer),
                threading.Thread(target=reader),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        assert not reader_failures, reader_failures
        # the true outcome, not a "timed out but maybe applied" lie
        assert write_response == {"count": 2}
        assert 1 not in observed, f"reader saw a torn batch: {observed}"
        assert 2 in observed

    def test_timed_out_read_leaves_no_stale_fill(self, caplog):
        """A read abandoned by its timeout finishes after a write has
        invalidated the cache: its pre-write rows must not be cached,
        and the abandoned executor future logs nothing."""
        session = StallOnceSession(TC_PROGRAM)
        session.facts("e", [(1, 2)])
        caplog.set_level(logging.ERROR)
        with ServerThread(session, request_timeout=0.2) as st:
            with st.client(timeout=30) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.query("? t(1, Y).")
                assert exc_info.value.etype == "TimeoutError"
                assert client.add_facts("e", [(2, 3)]) == 1
                assert session.stalled.wait(10)
                deadline = time.time() + 10
                while st.server.cache.misses < 1 and time.time() < deadline:
                    time.sleep(0.01)  # the abandoned fill has returned
                answers = client.query("? t(1, Y).")
        assert norm(answers) == norm([{"Y": 2}, {"Y": 3}])
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_client_timeout_poisons_connection(self):
        """A timed-out client call raises ProtocolError and the
        connection refuses further use instead of desyncing."""
        session = SlowReadSession(TC_PROGRAM)
        session.facts("e", [(1, 2)])
        with ServerThread(session, cache=None) as st:
            client = st.client(timeout=0.2)
            try:
                with pytest.raises(ProtocolError) as exc_info:
                    client.query("? t(1, X).")
                assert "timed out" in str(exc_info.value)
                # the late response is unreadable: the connection is
                # poisoned, not silently reused
                with pytest.raises(ProtocolError) as exc_info:
                    client.ping()
                assert "poisoned" in str(exc_info.value)
            finally:
                client.close()

    def test_client_rejects_idless_response(self):
        """An id-less response never matches a pending request."""
        with ServerThread(LDL(TC_PROGRAM)) as st:
            with st.client() as client:
                # desync the stream: the server answers this garbage
                # line with an id-less error response
                client._file.write(b"not json\n")
                client._file.flush()
                with pytest.raises(ProtocolError):
                    client.ping()  # reads the id-less error
                with pytest.raises(ProtocolError):
                    client.ping()  # and the connection is now poisoned


def start_serve(tmp_path, *extra, fsync="always"):
    """Launch ``repro serve`` as a subprocess; returns (proc, port)."""
    program = tmp_path / "prog.ldl"
    if not program.exists():
        program.write_text(TC_PROGRAM)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(program),
            "--port", "0", "--db", str(tmp_path / "db"),
            "--fsync", fsync, *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(ROOT),
    )
    banner = []
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner.append(line)
        match = re.search(r"% serving on [^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise AssertionError(f"server did not come up:\n{''.join(banner)}")


class TestDurableServer:
    def test_sigterm_checkpoints_then_restart_restores_snapshot(
        self, tmp_path
    ):
        proc, port = start_serve(tmp_path)
        try:
            with Client("127.0.0.1", port) as client:
                client.add_facts("e", [(1, 2), (2, 3)])
                assert client.query("? t(1, X).") == [{"X": 2}, {"X": 3}]
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "% shutdown: durable session checkpointed" in out

        # the restarted server restores from the snapshot — no WAL replay
        proc2, port2 = start_serve(tmp_path)
        try:
            with Client("127.0.0.1", port2) as client:
                assert client.query("? t(1, X).") == [{"X": 2}, {"X": 3}]
                store = client.stats()["session"]["store"]
                assert store["restore_mode"] == "snapshot"
                assert store["wal_records_replayed"] == 0
        finally:
            proc2.send_signal(signal.SIGTERM)
            proc2.communicate(timeout=30)

    def test_sigkill_mid_traffic_recovers_via_wal(self, tmp_path):
        proc, port = start_serve(tmp_path)
        acknowledged = []
        try:
            with Client("127.0.0.1", port) as client:
                for k in range(25):
                    client.add_facts("e", [(k, k + 1)])
                    acknowledged.append((k, k + 1))
                    if k == 17:
                        proc.kill()  # SIGKILL: no checkpoint, WAL only
                        break
        except (ProtocolError, OSError):
            pass  # the kill may race the next request
        proc.communicate(timeout=30)
        assert acknowledged, "no write was acknowledged before the kill"

        # every acknowledged write must survive via WAL replay
        with LDL(TC_PROGRAM, path=str(tmp_path / "db")) as revived:
            assert revived.store.stats.wal_records_replayed > 0
            rows = {
                (b["X"], b["Y"]) for b in revived.query("? e(X, Y).")
            }
            assert set(acknowledged) <= rows
