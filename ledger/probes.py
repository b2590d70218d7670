"""Isolated layer probes: every layer, one at a time, through its
public functions.

All probes run on one reduced instance -- the full social program over
``gen.PROBE`` users, seeded like the workload -- so a layer metric
means the same thing in every workload's traced run and a change to a
layer shows up under that layer's name whichever workload is traced.
(The workload's *own* ops are broken down by the span replay in
``traced.py``.)  The instance is small because several probes need two
full evaluations for one ratio, and a recursive delete on the full
300-user closure takes seconds.

Times are per call, medians of a few repetitions; counts repeat
exactly.
"""

from __future__ import annotations

import signal
import socket
import statistics
import time
from pathlib import Path

import gen
from oracle import atoms_of
from sut import Cores, LedgerError, Server

SAMPLE_USERS = 8  # users the per-query probes are averaged over


def timed(func, reps: int = 1):
    """Median seconds of ``reps`` calls, and the last result."""
    times = []
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


class _NoOpHooks:
    """Hooks that observe everything and record nothing: the price of
    the observing code path itself."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


def run(seed: int, cores: Cores, tmp: Path, quick: bool) -> dict:
    sizes = dict(gen.PROBE, **(gen.QUICK if quick else {}))
    data = gen.Dataset(seed, **sizes)
    rows = data.rows()
    text = gen.PROGRAMS["social"]
    reps = 2 if quick else 5
    out, program, atoms = front_end(text, rows, reps)
    engine_metrics, model = engine(program, atoms, cores, reps)
    out.update(engine_metrics)
    out.update(magic(program, atoms, data))
    out.update(maintenance(program, atoms, data, reps))
    out.update(storage(program, atoms, model, tmp, reps))
    out.update(serving(text, atoms, data, cores, tmp, quick))
    return out


def front_end(text: str, rows, reps: int):
    """Parse, stratify, intern; also returns the program and the atoms."""
    from repro.parser.parser import parse_program
    from repro.program.stratify import stratify
    from repro.terms.term import clear_intern_table

    parse_s, parsed = timed(lambda: parse_program(text), reps * 4)
    program = parsed.program
    stratify_s, _ = timed(lambda: stratify(program), reps * 4)

    def fresh_atoms():
        clear_intern_table()
        start = time.perf_counter()
        atoms = atoms_of(rows)
        return time.perf_counter() - start, atoms

    samples = [fresh_atoms() for _ in range(reps)]
    intern_s = statistics.median(s for s, _ in samples)
    return {
        "parser.parse_program_ms": (parse_s * 1e3, "ms"),
        "program.stratify_ms": (stratify_s * 1e3, "ms"),
        "terms.intern_us_per_fact": (intern_s / len(rows) * 1e6, "us"),
    }, program, samples[-1][1]


def engine(program, atoms, cores: Cores, reps: int):
    """Bottom-up evaluation and its parts; also returns the model."""
    from repro.engine import evaluate
    from repro.engine.grouping import apply_grouping_rules
    from repro.engine.relation import Relation, decode_row
    from repro.observe import MetricsCollector
    from repro.terms.term import id_table_size

    # the run with the median wall time supplies the SCC split, so the
    # split adds up to engine.evaluate_ms.  (A MetricsCollector makes the
    # recursive SCC several times slower; it is used for plan compile
    # time only.)
    runs = sorted((timed(lambda: evaluate(program, edb=atoms)) for _ in range(reps)),
                  key=lambda run: run[0])
    plain_s, result = runs[len(runs) // 2]
    grouping_heads = {r.head.pred for r in program.proper_rules() if r.is_grouping()}
    scc = {"recursive": 0.0, "grouping": 0.0, "other": 0.0}
    for layer in result.layer_stats:
        for component in layer.sccs:
            if component.recursive:
                scc["recursive"] += component.seconds
            elif grouping_heads & component.preds:
                scc["grouping"] += component.seconds
            else:
                scc["other"] += component.seconds
    metrics = MetricsCollector()
    evaluate(program, edb=atoms, metrics=metrics)
    derived = sum(
        s.grouping_facts + s.fixpoint.facts_derived for s in result.layer_stats
    )

    tuple_s, _ = timed(lambda: evaluate(program, edb=atoms, executor="tuple"))
    hooks_s, _ = timed(lambda: evaluate(program, edb=atoms, hooks=_NoOpHooks()), 2)
    # forked workers inherit the affinity: give them every allowed core
    cores.unpin()
    try:
        workers_s, _ = timed(lambda: evaluate(program, edb=atoms, workers=2), 2)
    finally:
        cores.pin_generator()

    grouping_rules = [r for r in program.proper_rules() if r.is_grouping()]
    grouping_s, _ = timed(
        lambda: apply_grouping_rules(grouping_rules, result.database), reps
    )

    # relation kernels on the closure's own ID rows
    id_rows = list(result.database.id_rows("influences"))

    def add_rows():
        relation = Relation("probe", 2)
        relation.add_rows(id_rows, decode_row)
        return relation

    add_s, relation = timed(add_rows, reps)
    keys = [args[0] for args in list(relation)[:: max(1, len(relation) // 2000)]]
    relation.lookup((0,), (keys[0],))  # build the index outside the timer

    def probe():
        lookup = relation.lookup
        for key in keys:
            lookup((0,), (key,))

    probe_s, _ = timed(probe, reps)
    return {
        "engine.evaluate_ms": (plain_s * 1e3, "ms"),
        "engine.plan.compile_ms": (metrics.phases.get("plan", 0.0) * 1e3, "ms"),
        "engine.scc_recursive_ms": (scc["recursive"] * 1e3, "ms"),
        "engine.scc_grouping_ms": (scc["grouping"] * 1e3, "ms"),
        "engine.scc_other_ms": (scc["other"] * 1e3, "ms"),
        "engine.facts_derived": (derived, "count"),
        "engine.rounds": (result.total_iterations, "count"),
        "engine.firings": (result.total_firings, "count"),
        "engine.grouping.apply_ms": (grouping_s * 1e3, "ms"),
        "engine.relation.add_rows_us_per_row": (add_s / len(id_rows) * 1e6, "us"),
        "engine.relation.probe_us_per_key": (probe_s / len(keys) * 1e6, "us"),
        "engine.exec.tuple_ratio": (tuple_s / plain_s, "ratio"),
        "engine.shard.workers2_ratio": (workers_s / plain_s, "ratio"),
        "observe.hooks_on_ratio": (hooks_s / plain_s, "ratio"),
        "terms.id_table_size": (id_table_size(), "count"),
    }, result.database


def sample_users(data: gen.Dataset) -> list[str]:
    return [gen.user(u) for u in range(0, data.users, max(1, data.users // SAMPLE_USERS))]


def magic(program, atoms, data: gen.Dataset) -> dict:
    from repro.magic.evaluate import evaluate_magic
    from repro.magic.rewrite import magic_rewrite
    from repro.parser.parser import parse_query

    users = sample_users(data)
    out = {}
    facts = answers = 0
    for pred, var in (("influences", "X"), ("recommend", "X"), ("audience", "N")):
        times = []
        for u in users:
            query = parse_query(f"? {pred}({u}, {var}).")
            seconds, result = timed(
                lambda: evaluate_magic(program, query, edb=atoms)
            )
            times.append(seconds)
            if pred == "influences":
                facts += result.total_facts
                answers += len(result.answers())
        out[f"magic.{pred}_ms"] = (statistics.median(times) * 1e3, "ms")
    query = parse_query(f"? influences({users[0]}, X).")
    rewrite_s, _ = timed(lambda: magic_rewrite(program, query), 10)
    out["magic.rewrite_ms"] = (rewrite_s * 1e3, "ms")
    # facts the rewritten program materializes per answer it returns
    out["magic.facts_per_answer"] = (facts / max(1, answers), "ratio")
    return out


def maintenance(program, atoms, data: gen.Dataset, reps: int) -> dict:
    from repro.engine.incremental import IncrementalModel

    stream = data.write_stream()
    edges = [next(stream) for _ in range(min(reps, 3))]
    model = IncrementalModel(program, edb=atoms)
    oracle = IncrementalModel(program, edb=atoms, maintain="recompute")
    insert, delete, recompute, touched = [], [], [], []
    for a, b in edges:
        edge = atoms_of([("follows", (gen.user(a), gen.user(b)))])
        for apply, times in ((model.add_facts, insert), (model.remove_facts, delete)):
            seconds, stats = timed(lambda: apply(edge))
            times.append(seconds)
            # net change plus the work DRed and counting did to find it
            touched.append(
                len(model.last_delta) + stats.overdeleted + stats.rederived
                + stats.count_adjusted
            )
        oracle.add_facts(edge)
        seconds, _ = timed(lambda: oracle.remove_facts(edge))
        recompute.append(seconds)
    delete_s = statistics.median(delete)
    return {
        "maintain.insert_ms": (statistics.median(insert) * 1e3, "ms"),
        "maintain.delete_ms": (delete_s * 1e3, "ms"),
        "maintain.delete_over_recompute_ratio": (
            delete_s / statistics.median(recompute), "ratio",
        ),
        "maintain.facts_touched_per_write": (statistics.mean(touched), "count"),
    }


def storage(program, atoms, model, tmp: Path, reps: int) -> dict:
    from repro.storage import codec
    from repro.storage.snapshot import load_snapshot, program_fingerprint, write_snapshot
    from repro.storage.store import DurableStore
    from repro.storage.wal import WriteAheadLog

    out = {}
    single = [[atom] for atom in atoms[:30]]
    for policy, name in (("always", "append_ms"), ("never", "append_nosync_ms")):
        path = tmp / f"probe-{policy}.wal"
        with WriteAheadLog(path, fsync=policy) as wal:
            times = [timed(lambda: wal.append("add", batch))[0] for batch in single]
        out[f"storage.wal.{name}"] = (statistics.median(times) * 1e3, "ms")
    with WriteAheadLog(tmp / "probe-bulk.wal", fsync="never") as wal:
        before = wal.size_bytes
        wal.append("add", atoms)
        out["storage.wal.bytes_per_fact"] = (
            (wal.size_bytes - before) / len(atoms), "B",
        )

    encode_s, encoded = timed(lambda: [codec.encode_atom(a) for a in atoms], reps)
    decode_s, _ = timed(lambda: [codec.decode_atom(e) for e in encoded], reps)
    out["storage.codec.encode_us_per_atom"] = (encode_s / len(atoms) * 1e6, "us")
    out["storage.codec.decode_us_per_atom"] = (decode_s / len(atoms) * 1e6, "us")

    snapshot = tmp / "probe-snapshot.jsonl"
    model_atoms = model.sorted_atoms()
    fingerprint = program_fingerprint(program)
    write_s, nbytes = timed(
        lambda: write_snapshot(snapshot, fingerprint, atoms, model_atoms), 2
    )
    load_s, _ = timed(lambda: load_snapshot(snapshot), 2)
    out["storage.snapshot.write_ms"] = (write_s * 1e3, "ms")
    out["storage.snapshot.load_ms"] = (load_s * 1e3, "ms")
    out["storage.snapshot.bytes_per_fact"] = (
        nbytes / (len(atoms) + len(model_atoms)), "B",
    )

    # a store as a crash leaves it: a snapshot plus one WAL record
    db = tmp / "probe-store"
    store = DurableStore(program, db, fsync="always").open()
    store.add_facts(atoms[:-1])
    checkpoint_s, _ = timed(store.checkpoint)
    store.add_facts(atoms[-1:])
    store.close()
    store = DurableStore(program, db, fsync="always")
    open_s, _ = timed(store.open)
    store.close()
    out["storage.store.checkpoint_ms"] = (checkpoint_s * 1e3, "ms")
    out["storage.store.open_ms"] = (open_s * 1e3, "ms")
    return out


def serving(text: str, atoms, data: gen.Dataset, cores: Cores, tmp: Path,
            quick: bool) -> dict:
    from repro.api import LDL
    from repro.parser.parser import parse_query
    from repro.server import protocol
    from repro.server.cache import AnswerCache

    users = sample_users(data)
    session = LDL(text)
    session.add_atoms(atoms)
    session.model()
    cache = AnswerCache().bind_session(session)
    queries = [parse_query(f"? influences({u}, X).") for u in users]
    miss_s = statistics.median(timed(lambda: cache.answers(q))[0] for q in queries)
    hit_s = statistics.median(
        timed(lambda: cache.answers(q), 5)[0] for q in queries
    )
    bindings, _ = cache.answers(queries[0])
    response = protocol.ok_response(
        {"id": 1}, answers=[protocol.encode_binding(b) for b in bindings],
        count=len(bindings), cache="hit",
    )
    line = protocol.encode_message({"op": "query", "id": 1, "q": f"? influences({users[0]}, X)."})
    decode_s, _ = timed(lambda: protocol.decode_request(line), 200)
    encode_s, _ = timed(lambda: protocol.encode_message(response), 200)

    # transport round trips against a bare server: ping touches no data
    program_path = tmp / "probe-program.ldl"
    program_path.write_text(text)
    pings = 50 if quick else 300
    server = Server(cores, program_path, None)
    try:
        # the same bare-socket client on both transports, so the
        # difference is the gateway's and not a client library's
        with socket.create_connection(("127.0.0.1", server.line_port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")

            def line_ping():
                sock.sendall(b'{"op":"ping"}\n')
                return reader.readline()

            line_s, pong = timed(line_ping, pings)
            if b'"pong":true' not in pong:
                raise LedgerError(f"line protocol ping answered {pong!r}")
        http_s, _ = timed(lambda: server.http.request("ping"), pings)
    finally:
        server.stop(signal.SIGTERM)
    return {
        "server.cache.miss_ms": (miss_s * 1e3, "ms"),
        "server.cache.hit_us": (hit_s * 1e6, "us"),
        "server.protocol.decode_us": (decode_s * 1e6, "us"),
        "server.protocol.encode_us": (encode_s * 1e6, "us"),
        "server.server.line_rtt_ms": (line_s * 1e3, "ms"),
        "server.gateway.http_rtt_ms": (http_s * 1e3, "ms"),
        "server.gateway.overhead_ms": ((http_s - line_s) * 1e3, "ms"),
    }
