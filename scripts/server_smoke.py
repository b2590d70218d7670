#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve`` (used by CI).

Starts the server as a real subprocess on a temp durable store — line
protocol plus HTTP gateway (``--http 0``) — runs a scripted client
session (updates, queries under every strategy, an explain, stats),
drives the answer cache through a full hit/invalidate/hit cycle over
both protocols (plus a miss, first hit and wire-memo hit over HTTP,
whose two hit bodies must be byte-identical; a query whose variable
names sort against their positions, whose hits must answer like its
miss; and bound queries a free query's entry serves as subsumed
hits), checkpoints and checks
the cyclic collector is enabled again, SIGTERMs it, and then
restarts to assert the graceful
shutdown checkpointed: the second start must restore from the snapshot
with zero WAL records replayed and still answer the same queries.

Exit code 0 on success; prints the failing step otherwise.

Run:  PYTHONPATH=src python scripts/server_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.server import Client  # noqa: E402

PROGRAM = """
% transitive closure over a base relation
t(X, Y) <- e(X, Y).
t(X, Y) <- e(X, Z), t(Z, Y).
"""


def start_server(
    program: Path, db: Path, http_port: bool = False
) -> tuple[subprocess.Popen, int, int | None]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    argv = [
        sys.executable, "-m", "repro", "serve", str(program),
        "--port", "0", "--db", str(db),
    ]
    if http_port:
        argv += ["--http", "0"]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(ROOT),
    )
    banner: list[str] = []
    port = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner.append(line)
        match = re.search(r"% serving on [^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            if not http_port:
                return proc, port, None
            continue
        match = re.search(r"% http gateway on [^:]+:(\d+)", line)
        if match and port is not None:
            return proc, port, int(match.group(1))
    proc.kill()
    raise SystemExit(f"FAIL: server did not start:\n{''.join(banner)}")


def stop_server(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: server exited {proc.returncode}:\n{out}")
    return out


def check(label: str, condition: bool) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {label}")
    print(f"ok: {label}")


def http_raw(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP exchange: the status and the raw response body."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def http_call(port: int, method: str, path: str, body: dict | None = None):
    status, raw = http_raw(port, method, path, body)
    return status, json.loads(raw)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="ldl1-server-smoke-"))
    try:
        program = workdir / "prog.ldl"
        program.write_text(PROGRAM)
        db = workdir / "db"

        proc, port, http_port = start_server(program, db, http_port=True)
        try:
            with Client("127.0.0.1", port) as client:
                check("ping", client.ping())
                check(
                    "add_facts",
                    client.add_facts("e", [(1, 2), (2, 3), (3, 4)]) == 3,
                )
                expected = [{"X": 2}, {"X": 3}, {"X": 4}]
                check("query", client.query("? t(1, X).") == expected)
                check(
                    "magic query",
                    client.query("? t(1, X).", strategy="magic") == expected,
                )
                check("remove_facts", client.remove_facts("e", [(3, 4)]) == 1)
                check(
                    "query after removal",
                    client.query("? t(1, X).") == expected[:2],
                )
                check(
                    "explain",
                    "t(1, 3)" in (client.explain("t(1, 3)") or ""),
                )
                stats = client.stats()
                check(
                    "stats",
                    stats["server"]["errors_total"] == 0
                    and stats["session"]["durable"],
                )

                # HTTP gateway: same session over HTTP/1.1
                status, body = http_call(http_port, "GET", "/v1/ping")
                check("http ping", status == 200 and body["ok"])
                status, body = http_call(
                    http_port, "POST", "/v1/query", {"q": "? t(1, X)."}
                )
                check("http query", status == 200 and body["count"] == 2)
                status, body = http_call(http_port, "GET", "/v1/nope")
                check("http 404", status == 404 and not body["ok"])

                # answer cache: hit, precise invalidate, hit again
                ask = {"q": "? t(1, X)."}
                first = client.call("query", **ask)["cache"]
                second = client.call("query", **ask)["cache"]
                check(
                    "cache hit cycle",
                    first in ("miss", "hit") and second == "hit",
                )
                client.add_facts("e", [(3, 4)])
                status, body = http_call(
                    http_port, "POST", "/v1/query", ask
                )
                check(
                    "cache invalidated by write",
                    status == 200
                    and body["cache"] == "miss"
                    and body["count"] == 3,
                )
                check(
                    "cache refill hit over http",
                    http_call(http_port, "POST", "/v1/query", ask)[1]["cache"]
                    == "hit",
                )

                # wire memo over http: a miss, the first hit (it builds
                # the memo) and a memo hit; both hits send the same
                # bytes, each its own compact re-encoding
                memo_ask = {"q": "? t(X, 4)."}
                raws = [
                    http_raw(http_port, "POST", "/v1/query", memo_ask)
                    for _ in range(3)
                ]
                memo_body = raws[2][1]
                check(
                    "memo hit body is the first hit's, compact json",
                    [status for status, _ in raws] == [200, 200, 200]
                    and [json.loads(raw)["cache"] for _, raw in raws]
                    == ["miss", "hit", "hit"]
                    and memo_body == raws[1][1]
                    and memo_body
                    == json.dumps(
                        json.loads(memo_body), separators=(",", ":")
                    ).encode("utf-8"),
                )
                client.remove_facts("e", [(3, 4)])
                cache_stats = client.stats()["answer_cache"]
                check(
                    "cache stats",
                    cache_stats["hits"] >= 2
                    and cache_stats["memo_hits"] >= 1
                    and cache_stats["entries_invalidated"] >= 1,
                )
                # a durable server reads its misses from the maintained
                # model: a fill by magic here is a silent fallback
                check(
                    "cache fills read the model, never magic",
                    cache_stats["fills"]["magic"] == 0
                    and cache_stats["fills"]["model"] >= 1,
                )

                # variable names out of position order: answers sort by
                # name, not by row; e(5, 0) makes the two orders differ
                client.add_facts("e", [(5, 0)])
                swapped = {"q": "? t(Y, X)."}
                miss = client.call("query", **swapped)
                hit = client.call("query", **swapped)
                status, http_hit = http_call(
                    http_port, "POST", "/v1/query", swapped
                )
                uncached = client.call("query", **swapped, cache=False)
                check(
                    "out-of-order names: hits answer like the miss",
                    status == 200
                    and [miss["cache"], hit["cache"], http_hit["cache"]]
                    == ["miss", "hit", "hit"]
                    and miss["answers"]
                    == hit["answers"]
                    == http_hit["answers"]
                    == uncached["answers"],
                )

                # subsumption: a free query's entry answers bound ones
                free = client.call("query", q="? t(X, Y).")
                line_bound = client.call("query", q="? t(2, X).")
                status, http_bound = http_call(
                    http_port, "POST", "/v1/query", {"q": "? t(5, X)."}
                )
                check(
                    "subsumed hits over line and http answer like cache off",
                    status == 200
                    and free["cache"] in ("miss", "hit")
                    and line_bound["cache"] == http_bound["cache"]
                    == "hit-subsumed"
                    and line_bound["answers"]
                    == client.call(
                        "query", q="? t(2, X).", cache=False
                    )["answers"]
                    and http_bound["answers"]
                    == client.call(
                        "query", q="? t(5, X).", cache=False
                    )["answers"]
                    and http_bound["count"] == 1,
                )

                # the engine pauses the cyclic collector only while it
                # builds or repairs a model: after the writes above and
                # a checkpoint it must be back on
                client.checkpoint()
                runtime = client.stats()["runtime"]
                check(
                    "collector enabled after writes and checkpoint",
                    runtime["gc_enabled"] is True
                    and len(runtime["gc_collections"]) == 3,
                )
        finally:
            out = stop_server(proc)
        check(
            "graceful shutdown checkpointed",
            "% shutdown: durable session checkpointed" in out,
        )

        # restart: must come back from the snapshot, no WAL replay
        proc, port, _ = start_server(program, db)
        try:
            with Client("127.0.0.1", port) as client:
                check(
                    "restart answers",
                    client.query("? t(1, X).") == [{"X": 2}, {"X": 3}],
                )
                store = client.stats()["session"]["store"]
                check(
                    "snapshot restore",
                    store["restore_mode"] == "snapshot"
                    and store["wal_records_replayed"] == 0,
                )
        finally:
            stop_server(proc)
        print("server smoke test passed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
