"""The process under test, seen from outside.

Every workload measures a process other than the load generator: a
real ``python -m repro serve`` for ``serve_*``, ``batch_worker.py`` for
``batch_*``.  This module starts it on its own core, talks to it, and
reads its CPU time and peak memory from ``/proc``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
REPO = LEDGER.parent
SRC = REPO / "src"
OUT = LEDGER / "out"

_TICK = os.sysconf("SC_CLK_TCK")


class LedgerError(Exception):
    """The benchmark cannot run (bad environment, dead process)."""


def check_environment() -> None:
    """Production defaults only: any ``REPRO_*`` knob changes what runs."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        raise LedgerError(f"unset {', '.join(knobs)}: the ledger measures defaults")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LedgerError(f"no program to measure: {SRC / 'repro'} is missing")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Cores:
    """Generator on one allowed core, process under test on another."""

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self.pinned = len(self.allowed) >= 2
        self.generator = {self.allowed[0]} if self.pinned else set(self.allowed)
        self.under_test = {self.allowed[1]} if self.pinned else set(self.allowed)

    def pin_generator(self) -> None:
        os.sched_setaffinity(0, self.generator)

    def unpin(self) -> None:
        os.sched_setaffinity(0, self.allowed)

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        """Start a child that inherits the under-test core."""
        os.sched_setaffinity(0, self.under_test)
        try:
            return subprocess.Popen(argv, env=child_env(), **kwargs)
        finally:
            os.sched_setaffinity(0, self.generator)

    def describe(self) -> dict:
        return {
            "cpus_allowed": len(self.allowed),
            "affinity": self.allowed,
            "pinned": self.pinned,
            "generator_cpus": sorted(self.generator),
            "under_test_cpus": sorted(self.under_test),
        }


def cpu_seconds(pid: int) -> float:
    """user+sys CPU of ``pid`` and its waited-for children."""
    with open(f"/proc/{pid}/stat") as handle:
        # the command name may hold spaces; fields restart after ")"
        fields = handle.read().rsplit(")", 1)[1].split()
    utime, stime, cutime, cstime = (int(fields[i]) for i in (11, 12, 13, 14))
    return (utime + stime + cutime + cstime) / _TICK


def cpu_clock(pid: int) -> float:
    """CPU seconds ``pid`` (all its threads) has run, to the nanosecond.

    The per-process CPU-time clock (``clock_getcpuclockid(3)``): fine
    enough to tell whether the process ran during a 2 ms window, which
    the 10 ms ticks of ``/proc/<pid>/stat`` are not.
    """
    return time.clock_gettime((~pid << 3) | 2)


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise LedgerError(f"no VmHWM for pid {pid}")


def wait_gone(proc: subprocess.Popen, sig: int | None, timeout: float = 60.0) -> None:
    """Signal (if asked), then wait for the process to end."""
    if proc.poll() is None and sig is not None:
        proc.send_signal(sig)
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


class Http:
    """One keep-alive HTTP/1.1 connection; one outstanding request."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, op: str, body: bytes | None = None) -> tuple[int, bytes]:
        """POST ``body`` (or GET) ``/v1/<op>``; returns status and body."""
        if body is None:
            head = f"GET /v1/{op} HTTP/1.1\r\nHost: ledger\r\n\r\n".encode()
        else:
            head = (
                f"POST /v1/{op} HTTP/1.1\r\nHost: ledger\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
        self.sock.sendall(head)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        header, _, rest = self.buffer.partition(b"\r\n\r\n")
        lines = header.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.buffer = rest
        while len(self.buffer) < length:
            self._fill()
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise LedgerError("server closed the connection mid-response")
        self.buffer += chunk

    def call(self, op: str, payload: dict | None = None) -> dict:
        """A request that must succeed (set-up and teardown traffic)."""
        body = None if payload is None else json.dumps(payload).encode()
        status, raw = self.request(op, body)
        reply = json.loads(raw)
        if status != 200 or not reply.get("ok"):
            raise LedgerError(f"{op} failed with {status}: {raw[:200]!r}")
        return reply

    def close(self) -> None:
        self.sock.close()


class Server:
    """A ``python -m repro serve`` subprocess with production defaults."""

    def __init__(self, cores: Cores, program: Path, db: Path | None) -> None:
        argv = [sys.executable, "-m", "repro", "serve", str(program),
                "--port", "0", "--http", "0"]
        if db is not None:
            argv += ["--db", str(db), "--fsync", "always"]
        self.proc = cores.spawn(argv, stdout=subprocess.PIPE, text=True)
        self.pid = self.proc.pid
        self.line_port = self.http_port = None
        while self.http_port is None:
            line = self.proc.stdout.readline()
            if not line:
                wait_gone(self.proc, None)
                raise LedgerError("server exited before it was serving")
            if line.startswith("% serving on"):
                self.line_port = int(line.split(":")[1].split()[0])
            elif line.startswith("% http gateway on"):
                self.http_port = int(line.rsplit(":", 1)[1])
        self.http = Http(self.http_port)

    def stop(self, sig: int = signal.SIGKILL) -> None:
        self.http.close()
        wait_gone(self.proc, sig)


def facts_payload(rows) -> dict:
    """``add_facts``/``remove_facts`` body for symbol-constant rows."""
    return {"facts": [[pred, [["s", a] for a in args]] for pred, args in rows]}


def serve_setup(cores: Cores, program: Path, db: Path, rows, first_query: str,
                mark=lambda step, pid: None) -> tuple[Server, float]:
    """The ``serve_*`` set-up, timed: what a deployment pays before its
    first answer, twice over (first start, then restart from snapshot).

    empty store -> bulk load -> first query -> checkpoint -> SIGTERM ->
    cold reopen from the snapshot -> first answered query.  ``mark`` is
    told when each step ends, and the pid of the server that is then
    idle (None when none runs); the caller subtracts what it spends
    there.
    """
    query = {"q": first_query}
    start = time.perf_counter()
    server = Server(cores, program, db)
    mark("start_empty", server.pid)
    server.http.call("add_facts", facts_payload(rows))
    mark("bulk_load", server.pid)
    server.http.call("query", query)
    mark("first_query", server.pid)
    server.http.call("checkpoint", {})
    mark("checkpoint", server.pid)
    server.stop(signal.SIGTERM)
    if server.proc.returncode != 0:
        raise LedgerError(f"server exited {server.proc.returncode} on SIGTERM")
    mark("sigterm", None)
    server = Server(cores, program, db)
    mark("reopen", server.pid)
    server.http.call("query", query)
    mark("first_answer", server.pid)
    return server, time.perf_counter() - start
