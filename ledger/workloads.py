"""The five workloads: how each is set up, what its op is, how an
answer is checked, and the untraced run that yields the end-to-end
metrics.

Run shape, all workloads: closed loop, one client, one outstanding op;
set-up (repeated, median reported), a fixed count of discarded warm-up
ops, then a measured phase of fixed wall length.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
from calibrate import Calibrator
from oracle import Oracle, answer_values
from sut import (
    LEDGER,
    Cores,
    LedgerError,
    Server,
    cpu_seconds,
    facts_payload,
    peak_rss_mb,
    serve_setup,
    wait_gone,
)

#: op latency needs this many samples before its 90th percentile has
#: ten samples beyond it
P90_MIN_SAMPLES = 100


@dataclass
class Request:
    op: str  # protocol op, the path under /v1/
    payload: dict
    check: Callable[[dict], bool]
    kind: str  # "read", "insert" or "delete": the per-type latency split


@dataclass
class Measured:
    """What one run observed, before it is reduced to metrics."""

    setup_times: list[float] = field(default_factory=list)
    setup_factors: list[float] = field(default_factory=list)  # speed during each
    latencies: list[float] = field(default_factory=list)  # seconds per op
    moments: list[float] = field(default_factory=list)  # when each op began
    op_factors: list[float] = field(default_factory=list)  # speed at each op
    #: the measured phase cut into slices at op boundaries:
    #: (cpu seconds, speed factor)
    slices: list[tuple[float, float]] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # first few, for the report
    rss_mb: float = 0.0
    speed_samples: int = 0  # kernel samples kept, set-ups included
    speed_discarded: int = 0  # dropped: the process under test was not idle
    phase_wall_s: float = 0.0
    model_facts: int = 0
    notes: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def record(self, requests: list[Request], latency: float, parts: list[float],
               problem: str | None) -> None:
        """One measured ``serve_*`` op, as ``run_op`` returned it."""
        self.attempted += 1
        self.latencies.append(latency)
        for request, part in zip(requests, parts):
            self.by_kind.setdefault(request.kind, []).append(part)
        if problem:
            self.fail(problem)


#: the measured phase is cut into this many slices, and CPU time is
#: rescaled slice by slice: one factor cannot describe a phase that was
#: fast for its first half and slow for its second
SLICES = 12


class Phase:
    """Book-keeping of one measured phase: slices, CPU, speed."""

    def __init__(self, out: Measured, speed: Calibrator, pid: int, seconds: float) -> None:
        self.out, self.speed, self.pid, self.seconds = out, speed, pid, seconds
        speed.sample(pid)
        self.start = time.perf_counter()
        self.marks = [(self.start, cpu_seconds(pid), 0)]  # (when, cpu, ops so far)

    def running(self) -> bool:
        return time.perf_counter() - self.start < self.seconds

    def op_done(self) -> None:
        """Call after each op: samples speed, closes a slice when due."""
        self.speed.sample(self.pid, force=False)
        now = time.perf_counter()
        if now - self.marks[-1][0] >= self.seconds / SLICES:
            self.marks.append((now, cpu_seconds(self.pid), len(self.out.latencies)))

    def close(self) -> None:
        out, speed = self.out, self.speed
        end = time.perf_counter()
        if self.marks[-1][2] < len(out.latencies):
            self.marks.append((end, cpu_seconds(self.pid), len(out.latencies)))
        out.phase_wall_s = end - self.start
        out.rss_mb = peak_rss_mb(self.pid)
        out.speed_samples, out.speed_discarded = len(speed.samples), speed.discarded
        out.op_factors = speed.factors_for(out.moments)
        for (t0, cpu0, _), (t1, cpu1, _) in zip(self.marks, self.marks[1:]):
            out.slices.append((cpu1 - cpu0, speed.factor_between(t0, t1)))


class ServeDriver:
    """Inputs, op stream and answer checks of one ``serve_*`` workload."""

    def __init__(self, name: str, seed: int, sizes: dict, tmp: Path) -> None:
        self.name = name
        self.tmp = tmp
        self.data = gen.Dataset(seed, **sizes)
        self.rows = self.data.rows()
        self.program_text = gen.PROGRAMS[sizes["program"]]
        self.program_path = tmp / "program.ldl"
        self.program_path.write_text(self.program_text)
        if name == "serve_hot":
            self.stream = self.data.hot_stream(sizes["hot"])
        elif name == "serve_cold":
            self.stream = self.data.cold_stream()
        else:
            self.stream = self.data.write_stream()
        self.oracle = Oracle(self.program_text, self.rows)
        self._stores = 0

    def setup(self, cores: Cores, mark=lambda step, pid: None) -> tuple[Server, float, Path]:
        """One timed set-up on a store directory of its own."""
        self._stores += 1
        db = self.tmp / f"store{self._stores}"
        server, seconds = serve_setup(
            cores, self.program_path, db, self.rows,
            f"? influences({gen.user(0)}, X).", mark,
        )
        return server, seconds, db

    # -- ops ---------------------------------------------------------------

    def next_op(self) -> list[Request]:
        item = next(self.stream)
        if self.name == "serve_write":
            return self._write_op(*item)
        return self._profile_op(item)

    def _read(self, pred: str, u: int, var: str, expected: frozenset) -> Request:
        return Request(
            "query",
            {"q": f"? {pred}({gen.user(u)}, {var})."},
            lambda reply: answer_values(reply, var) == expected,
            "read",
        )

    def _profile_op(self, u: int) -> list[Request]:
        """A profile page: three bound queries about one user."""
        oracle = self.oracle
        return [
            self._read("influences", u, "X", oracle.expect_influences(u)),
            self._read("recommend", u, "X", oracle.expect_recommend(u)),
            self._read("audience", u, "N", oracle.expect_audience(u)),
        ]

    def _write_op(self, a: int, b: int) -> list[Request]:
        """follow -> read -> unfollow -> read.

        Each read is two queries about ``b``: ``influences`` (recursive,
        refilled by on-demand magic) and ``audience`` (grouping).  On a
        strongly connected graph the closure cannot grow, so
        ``audience`` -- which must read 5, then 4 -- is what catches a
        cache entry the write failed to invalidate.
        """
        oracle = self.oracle
        edge = facts_payload([("follows", (gen.user(a), gen.user(b)))])
        one = lambda reply: reply.get("count") == 1  # noqa: E731
        return [
            Request("add_facts", edge, one, "insert"),
            self._read("influences", b, "X", oracle.expect_influences(b, (a, b))),
            self._read("audience", b, "N", oracle.expect_audience(b, (a, b))),
            Request("remove_facts", edge, one, "delete"),
            self._read("influences", b, "X", oracle.expect_influences(b)),
            self._read("audience", b, "N", oracle.expect_audience(b)),
        ]


def run_op(server: Server, requests: list[Request]) -> tuple[float, list[float], str | None]:
    """Send one op's requests back to back; check them afterwards.

    Returns the op latency (first byte sent to last byte received), the
    per-request latencies, and what failed (None when all is well).
    """
    bodies = [json.dumps(r.payload).encode() for r in requests]
    http = server.http
    replies = []
    parts = []
    start = time.perf_counter()
    for request, body in zip(requests, bodies):
        sent = time.perf_counter()
        replies.append(http.request(request.op, body))
        parts.append(time.perf_counter() - sent)
    latency = time.perf_counter() - start
    for request, (status, raw) in zip(requests, replies):
        if status != 200:
            return latency, parts, f"{request.op} -> HTTP {status}: {raw[:120]!r}"
        reply = json.loads(raw)
        if not reply.get("ok") or not request.check(reply):
            return latency, parts, f"wrong answer to {request.payload}"
    return latency, parts, None


def run_serve(name: str, seed: int, sizes: dict, seconds: float, cores: Cores,
              tmp: Path) -> Measured:
    driver = ServeDriver(name, seed, sizes, tmp)
    out = Measured(model_facts=driver.oracle.model_facts)
    speed = Calibrator(cores)
    server = db = None
    try:
        for _ in range(sizes["setups"]):
            if server is not None:
                server.stop()
            began = time.perf_counter()
            speed.sample(None)
            spent = speed.spent
            # the server is idle between set-up steps: sample at each,
            # and take the time that costs back out of the set-up's
            server, elapsed, db = driver.setup(cores, lambda step, pid: speed.sample(pid))
            out.setup_times.append(elapsed - (speed.spent - spent))
            out.setup_factors.append(speed.factor_between(began, time.perf_counter()))
        for _ in range(sizes["warmup"]):
            _, _, problem = run_op(server, driver.next_op())
            if problem:
                raise LedgerError(f"warm-up op failed: {problem}")
        phase = Phase(out, speed, server.pid, seconds)
        while phase.running():
            requests = driver.next_op()
            out.moments.append(time.perf_counter())
            out.record(requests, *run_op(server, requests))
            phase.op_done()
        phase.close()
        stats = server.http.call("stats")["stats"]
        out.notes["server"] = stats["server"]
        out.notes["answer_cache"] = stats["answer_cache"]
        if stats["server"]["errors_total"] or stats["server"]["rejections"]:
            out.fail(f"server counted errors/rejections: {stats['server']}")
        if name == "serve_write":
            crash_check(driver, cores, server, db, out)
    finally:
        if server is not None:
            server.stop(signal.SIGKILL)
    return out


#: ops run between the restart and the SIGKILL of ``serve_write``
CRASH_TAIL_OPS = 3


def crash_check(driver: ServeDriver, cores: Cores, server: Server, db: Path,
                out: Measured) -> float:
    """SIGTERM -> restart -> a few more ops -> SIGKILL -> reopen here.

    Every write was acknowledged, so snapshot plus WAL tail must bring
    back exactly the generated EDB (each follow was unfollowed) and a
    model equal to the from-scratch evaluation.  Returns the reopen time.

    The graceful restart checkpoints, which keeps the tail short:
    replaying a record costs what the write cost, and replaying the
    whole phase would take as long as the phase.  It is a restart and
    not a ``checkpoint`` request because of a defect this check found:
    a checkpoint resets the WAL, LSNs start over, and ``AnswerCache``
    entries stamped with the old, larger LSNs outlive every later
    invalidation -- the next read of that key is stale (see README).
    A new process has an empty cache.
    """
    from repro.api import from_term
    from repro.parser.parser import parse_program
    from repro.storage.store import DurableStore

    def plain(atoms) -> set:
        return {(a.pred, tuple(from_term(t) for t in a.args)) for a in atoms}

    server.stop(signal.SIGTERM)
    if server.proc.returncode != 0:
        raise LedgerError(f"server exited {server.proc.returncode} on SIGTERM")
    server = Server(cores, driver.program_path, db)
    try:
        for _ in range(CRASH_TAIL_OPS):
            out.attempted += 1
            _, _, problem = run_op(server, driver.next_op())
            if problem:
                out.fail(problem)
    finally:
        server.stop(signal.SIGKILL)

    program = parse_program(driver.program_text).program
    start = time.perf_counter()
    store = DurableStore(program, db, fsync="always").open()
    elapsed = time.perf_counter() - start
    try:
        out.attempted += 1
        if plain(store.edb_facts) != {(p, args) for p, args in driver.rows}:
            out.fail("after SIGKILL the reopened EDB differs from the expected EDB")
        elif plain(store.database.atoms()) != plain(driver.oracle.database.atoms()):
            out.fail("after SIGKILL the reopened model differs from scratch evaluation")
        out.notes["reopen"] = {
            "seconds": elapsed,
            "restore_mode": store.stats.restore_mode,
            "wal_records_replayed": store.stats.wal_records_replayed,
        }
    finally:
        store.close()
    return elapsed


def check_batch_answer(oracle: Oracle, program: str, u: int, values: list) -> bool:
    expected = getattr(oracle, gen.BATCH_PRED[program]).get(gen.user(u), frozenset())
    return frozenset(values) == expected


def run_batch(name: str, seed: int, sizes: dict, seconds: float, cores: Cores,
              quick: bool) -> Measured:
    data = gen.Dataset(seed, **sizes)
    oracle = Oracle(gen.PROGRAMS[sizes["program"]], data.rows())
    out = Measured(model_facts=oracle.model_facts)
    speed = Calibrator(cores)
    argv = [sys.executable, str(LEDGER / "batch_worker.py"), name, str(seed),
            "1" if quick else "0"]
    worker = None
    try:
        for _ in range(sizes["setups"]):
            if worker is not None:
                wait_gone(worker, signal.SIGKILL)
            began = time.perf_counter()
            speed.sample(None)
            start = time.perf_counter()
            worker = cores.spawn(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
            )
            if worker.stdout.readline().strip() != "ready":
                raise LedgerError("batch worker died during set-up")
            out.setup_times.append(time.perf_counter() - start)
            speed.sample(worker.pid)
            out.setup_factors.append(speed.factor_between(began, time.perf_counter()))
        phase = Phase(out, speed, worker.pid, seconds)
        while phase.running():
            out.moments.append(time.perf_counter())
            worker.stdin.write("op\n")
            worker.stdin.flush()
            reply = worker.stdout.readline()
            if not reply:
                raise LedgerError("batch worker died mid-run")
            op = json.loads(reply)
            out.attempted += 1
            out.latencies.append(op["s"])
            if not check_batch_answer(oracle, sizes["program"], op["u"], op["x"]):
                out.fail(f"wrong answer for user {op['u']}")
            phase.op_done()
        phase.close()
        worker.stdin.write("exit\n")
        worker.stdin.flush()
        wait_gone(worker, None)
        if worker.returncode != 0:
            raise LedgerError(f"batch worker exited {worker.returncode}")
    finally:
        if worker is not None:
            wait_gone(worker, signal.SIGKILL)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def end_to_end(measured: Measured) -> dict:
    """The six end-to-end metrics, ``{name: (value, unit)}``.

    Times are at nominal speed: each is divided by the speed factor in
    force when it was measured (see ``calibrate.py``): per op for
    latencies, per slice for CPU time, per set-up for ``setup_s``.
    """
    ops = len(measured.latencies)
    latencies = [t / f for t, f in zip(measured.latencies, measured.op_factors)]
    setups = [t / f for t, f in zip(measured.setup_times, measured.setup_factors)]
    cpu = sum(cpu / factor for cpu, factor in measured.slices)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "cpu_ms_per_op": (cpu / ops * 1e3, "ms"),
        "peak_rss_mb": (measured.rss_mb, "MB"),
    }


def raw_times(measured: Measured) -> dict:
    """The same times as the clock read them, and the factors applied."""
    ops = len(measured.latencies)
    return {
        "setup_s": statistics.median(measured.setup_times),
        "ops_per_s": ops / sum(measured.latencies),
        "op_p50_ms": statistics.median(measured.latencies) * 1e3,
        "op_p90_ms": percentile(measured.latencies, 90) * 1e3,
        "cpu_ms_per_op": sum(cpu for cpu, _ in measured.slices) / ops * 1e3,
        "speed_factor_slices": [factor for _, factor in measured.slices],
        "speed_factor_setups": measured.setup_factors,
        "speed_samples": measured.speed_samples,
        "speed_samples_discarded": measured.speed_discarded,
    }


def client_metrics(measured: Measured) -> dict:
    """Tails and the per-request-type split: reported, never gated."""
    def p50_ms(kind: str) -> float:
        values = measured.by_kind.get(kind)
        return statistics.median(values) * 1e3 if values else 0.0

    return {
        "client.op_p99_ms": (percentile(measured.latencies, 99) * 1e3, "ms"),
        "client.op_max_ms": (max(measured.latencies) * 1e3, "ms"),
        "client.samples": (len(measured.latencies), "count"),
        "client.insert_p50_ms": (p50_ms("insert"), "ms"),
        "client.delete_p50_ms": (p50_ms("delete"), "ms"),
        "client.read_after_write_p50_ms": (
            p50_ms("read") if "insert" in measured.by_kind else 0.0, "ms",
        ),
    }
