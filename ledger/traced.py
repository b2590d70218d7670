"""The traced run: where one op of a workload spends its time.

The process under test is never instrumented (tracing inside ``src/``
is a later issue).  Instead each replayed op runs twice:

* on the real process, untraced, which gives its wall time ``W``;
* on a *shadow* in this process: the same objects the process under
  test is made of, built and driven through their public entry points,
  with a span around each public callable of an instance.  Nothing of
  the request path is written out again here, so a step added to the
  real server is a step of the shadow.

``server.residual_ms`` is ``W`` minus the shadow's duration: what the
real path adds that the shadow does not have (HTTP gateway and framing,
socket, a second process).  ``trace.unattributed_share`` is the share of
``W`` no layer span accounts for: the residual plus the shadow's own
glue.  Every other op is replayed with the tracer off, and
``trace.overhead_ratio`` compares the two halves.

The isolated layer probes (``probes.py``) run afterwards.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import statistics
import time
from pathlib import Path

import gen
import probes
from batch_worker import batch_op
from oracle import Oracle, atoms_of
from spans import Tracer, by_op
from sut import OUT, Cores, LedgerError, facts_payload
from workloads import (
    Measured,
    ServeDriver,
    check_batch_answer,
    client_metrics,
    crash_check,
    run_op,
)

ROOT = "shadow.op"


class Shadow:
    """A second server in this process, which never listens.

    The durable session ``repro serve --db DIR --fsync always`` builds,
    under a real ``LDLServer``.  Each request goes through
    ``decode_request``, the server's ``handle_request`` (the entry point
    "shared by every transport": lock, executor thread, session call,
    counters) on a loop of the shadow's own, and ``encode_message``.
    Spans below ``handle_request`` come from wrapping public methods of
    the instances it works on.  One request is outstanding at a time, so
    the executor thread's spans nest inside the waiting caller's.
    """

    def __init__(self, program_text: str, db: Path, tracer: Tracer) -> None:
        from repro.api import LDL
        from repro.server.server import LDLServer

        self.tracer = tracer
        with tracer.span("api.LDL"):  # parses the program, opens the store
            self.session = LDL(program_text, path=str(db), fsync="always")
        self.server = LDLServer(self.session)
        self.loop = asyncio.new_event_loop()
        store, cache = self.session.store, self.server.cache
        for owner, method, name in (
            (cache, "answers", "server.cache.answers"),
            (cache, "apply_invalidation", "server.cache.apply_invalidation"),
            (self.session, "on_demand_rows", "magic.on_demand_rows"),
            (store.wal, "append", "storage.wal.append"),
            (store.model, "add_facts", "engine.maintain.add_facts"),
            (store.model, "remove_facts", "engine.maintain.remove_facts"),
            (store, "checkpoint", "storage.store.checkpoint"),
        ):
            setattr(owner, method, tracer.wrap(name, getattr(owner, method)))

    def request(self, op: str, payload: dict) -> dict:
        from repro.server import protocol

        span = self.tracer.span
        line = protocol.encode_message({"op": op, **payload})
        with span("server.protocol.decode_request"):
            request = protocol.decode_request(line)
        with span("server.server.handle_request"):
            response = self.loop.run_until_complete(self.server.handle_request(request))
        with span("server.protocol.encode_message"):
            protocol.encode_message(response)
        return response

    def close(self) -> None:
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.session.close()


class Replay:
    """Per-op observations of a traced replay."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.real = Measured()  # the untraced real ops: wall times, failures
        self.shadow_s: dict[int, float] = {}  # op -> shadow duration
        self.traced_ops: set[int] = set()

    def shadow_op(self, op: int, func) -> None:
        """Run ``func`` as the shadow of op ``op``; even ops are traced."""
        tracer = self.tracer
        tracer.enabled = op % 2 == 0
        tracer.op = op
        if tracer.enabled:
            self.traced_ops.add(op)
        start = time.perf_counter()
        with tracer.span(ROOT):
            func()
        self.shadow_s[op] = time.perf_counter() - start
        tracer.enabled = True
        tracer.op = None

    def metrics(self) -> tuple[dict, list[str], list[dict]]:
        """The trace metrics, the ranked where-the-time-goes lines, and
        the per-op record they were computed from."""
        spans_of = by_op(self.tracer.spans)
        wall = self.real.latencies
        residual, unattributed, layer_totals, per_op = [], [], {}, []
        for op in sorted(self.traced_ops):
            names = spans_of[op]
            layers = {n: s for n, s in names.items() if n not in (ROOT, "<root>")}
            # the shadow's duration as shadow_op's own clock read it,
            # not as the spans add up: the tests compare the two
            residual.append(wall[op] - self.shadow_s[op])
            unattributed.append((wall[op] - sum(layers.values())) / wall[op])
            per_op.append({"op": op, "wall_s": wall[op], "shadow_s": self.shadow_s[op],
                           "residual_s": residual[-1]})
            for name, seconds in layers.items():
                layer_totals[name] = layer_totals.get(name, 0.0) + seconds
        untraced = [s for op, s in self.shadow_s.items() if op not in self.traced_ops]
        traced = [self.shadow_s[op] for op in self.traced_ops]
        overhead = (
            statistics.median(traced) / statistics.median(untraced)
            if traced and untraced else 1.0
        )
        count = max(1, len(self.traced_ops))
        mean_wall = statistics.mean(wall[op] for op in self.traced_ops)
        ranked = [
            f"where one op goes ({count} traced ops, mean wall "
            f"{mean_wall * 1e3:.3f} ms, self time per op):"
        ]
        accounted = 0.0
        for name, total in sorted(layer_totals.items(), key=lambda kv: -kv[1]):
            share = total / count / mean_wall
            accounted += total / count
            ranked.append(f"  {name:40s} {total / count * 1e3:10.3f} ms {share:7.1%}")
        ranked.append(
            f"  {'(unattributed: residual + shadow glue)':40s} "
            f"{(mean_wall - accounted) * 1e3:10.3f} ms "
            f"{(mean_wall - accounted) / mean_wall:7.1%}"
        )
        return {
            "server.residual_ms": (statistics.median(residual) * 1e3, "ms"),
            "trace.unattributed_share": (statistics.median(unattributed), "ratio"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }, ranked, per_op


def replay_serve(name, seed, sizes, seconds, cores: Cores, tmp: Path, replay: Replay) -> dict:
    driver = ServeDriver(name, seed, sizes, tmp)
    # the oracle's model would make every collection in this process
    # walk a second copy of the database, which the server does not hold
    gc.collect()
    gc.freeze()
    tracer, real = replay.tracer, replay.real
    real.model_facts = driver.oracle.model_facts
    tracer.op = "setup"
    last = time.perf_counter()

    def mark(step: str, pid: int | None) -> None:
        nonlocal last
        now = time.perf_counter()
        tracer.spans.append({"name": f"setup.{step}", "op": "setup", "parent": None,
                             "start": last, "end": now})
        last = now

    server, elapsed, db = driver.setup(cores, mark)
    real.setup_times.append(elapsed)
    shadow = Shadow(driver.program_text, tmp / "shadow-store", tracer)
    try:
        with tracer.span("shadow.bulk_load"):
            shadow.request("add_facts", facts_payload(driver.rows))
        tracer.op = None

        def both(op: int | None) -> None:
            requests = driver.next_op()
            latency, parts, problem = run_op(server, requests)
            if op is None:  # warm-up: both sides, nothing recorded
                tracer.enabled = False
                for r in requests:
                    shadow.request(r.op, r.payload)
                tracer.enabled = True
                if problem:
                    raise LedgerError(f"warm-up op failed: {problem}")
                return
            real.record(requests, latency, parts, problem)

            def shadowed() -> None:
                for r in requests:
                    reply = shadow.request(r.op, r.payload)
                    if not reply.get("ok") or not r.check(reply):
                        real.fail(f"shadow: wrong answer to {r.payload}")

            replay.shadow_op(op, shadowed)

        for _ in range(sizes["warmup"]):
            both(None)
        start = time.perf_counter()
        op = 0
        while op < 2 or time.perf_counter() - start < seconds:
            both(op)
            op += 1
        tracer.op = "teardown"
        with tracer.span("server.server.stats"):
            stats = server.http.call("stats")["stats"]
        # the reopen after the crash is this workload's store.open
        reopen_s = (
            crash_check(driver, cores, server, db, real) if name == "serve_write" else None
        )
    finally:
        shadow.close()
        server.stop(signal.SIGKILL)
    cache = stats["answer_cache"]
    counts = stats["server"]
    writes = counts["requests"].get("add_facts", 0) + counts["requests"].get("remove_facts", 0)
    out = {
        "server.cache.hit_ratio": (cache["hit_rate"], "ratio"),
        "server.cache.subsumed": (cache["subsumed"], "count"),
        "server.cache.entries_invalidated_per_write": (
            cache["entries_invalidated"] / writes if writes else 0.0, "count",
        ),
        "server.gateway.rejected": (sum(counts["rejections"].values()), "count"),
        "server.server.errors": (counts["errors_total"], "count"),
    }
    if counts["errors_total"] or counts["rejections"]:
        real.fail(f"server counted errors/rejections: {counts}")
    if reopen_s is not None:
        out["storage.store.open_ms"] = (reopen_s * 1e3, "ms")
    return out


def replay_batch(name, seed, sizes, seconds, replay: Replay) -> dict:
    from repro.terms.term import clear_intern_table

    data = gen.Dataset(seed, **sizes)
    rows = data.rows()
    kind = sizes["program"]
    text = gen.PROGRAMS[kind]
    oracle = Oracle(text, rows)
    real = replay.real
    real.model_facts = oracle.model_facts
    users = data.cold_stream()

    def fresh_atoms():
        clear_intern_table()
        return atoms_of(rows)

    start = time.perf_counter()
    op = 0
    while op < 2 or time.perf_counter() - start < seconds:
        u = next(users)
        query = f"? {gen.BATCH_PRED[kind]}({gen.user(u)}, X)."
        atoms = fresh_atoms()
        began = time.perf_counter()
        answers = batch_op(text, atoms, query)
        real.latencies.append(time.perf_counter() - began)
        real.attempted += 1
        if not check_batch_answer(oracle, kind, u, [a["X"] for a in answers]):
            real.fail(f"wrong answer for user {u}")
        atoms = fresh_atoms()

        def shadowed() -> None:
            answers = batch_op(text, atoms, query, replay.tracer.span)
            if not check_batch_answer(oracle, kind, u, [a["X"] for a in answers]):
                real.fail(f"shadow: wrong answer for user {u}")

        replay.shadow_op(op, shadowed)
        op += 1
    # no server in a batch op: its counters are exactly zero
    return {
        "server.cache.hit_ratio": (0.0, "ratio"),
        "server.cache.subsumed": (0, "count"),
        "server.cache.entries_invalidated_per_write": (0.0, "count"),
        "server.gateway.rejected": (0, "count"),
        "server.server.errors": (0, "count"),
    }


def run(workload: str, seed: int, sizes: dict, seconds: float, cores: Cores,
        tmp: Path, quick: bool):
    """Replay, then probe; returns what ``run.run_once`` assembles."""
    replay = Replay()
    # half the requested phase: every op runs twice (real, then shadow)
    budget = seconds / 2
    if workload.startswith("serve_"):
        own = replay_serve(workload, seed, sizes, budget, cores, tmp, replay)
    else:
        own = replay_batch(workload, seed, sizes, budget, replay)
    trace_metrics, ranked, per_op = replay.metrics()
    metrics = probes.run(seed, cores, tmp, quick)
    metrics.update(own)
    metrics.update(trace_metrics)
    metrics.update(client_metrics(replay.real))

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace_{workload}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "columns": ["name", "op", "parent", "start", "end"],
        "spans": [[s["name"], s["op"], s["parent"], s["start"], s["end"]]
                  for s in replay.tracer.spans],
    }) + "\n")
    real = replay.real
    extra = {
        "ranked": ranked,
        "per_op": per_op,
        "trace_file": str(trace_file),
        "traced_ops": len(replay.traced_ops),
        "replayed_ops": len(real.latencies),
        "setup_times_s": real.setup_times,
        "model_facts": real.model_facts,
        "notes": real.notes,
    }
    return metrics, real.attempted, real.failed, real.failures, extra
