"""Command-line interface: run LDL1 programs from files.

Usage::

    python -m repro program.ldl                 # run file, answer its queries
    python -m repro program.ldl -q '? p(X).'    # ad-hoc query
    python -m repro program.ldl --strategy magic
    python -m repro program.ldl --dump anc      # print a predicate's extension
    python -m repro --check program.ldl         # parse/check/stratify only
    python -m repro serve program.ldl --db DIR  # serve the session over TCP

A program file contains rules, facts, and optional queries in concrete
LDL1 syntax (``%`` comments).  Queries in the file are answered in
order; ``-q`` adds more.

The ``serve`` subcommand starts the concurrent query server
(:mod:`repro.server`): it loads the program (restoring durable state
when ``--db`` is given), prints the bound address, and serves until
SIGTERM/SIGINT, checkpointing a durable session on the way out.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.api import LDL
from repro.engine.compiled import compile_program
from repro.errors import LDLError
from repro.observe import MetricsCollector
from repro.parser import parse_query
from repro.terms.pretty import format_atom, format_query


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LDL1: logic database language with sets and negation",
    )
    parser.add_argument("file", help="program file (LDL1 concrete syntax)")
    parser.add_argument(
        "-q",
        "--query",
        action="append",
        default=[],
        metavar="QUERY",
        help="ad-hoc query, e.g. '? anc(a, X).' (repeatable)",
    )
    parser.add_argument(
        "-s",
        "--strategy",
        choices=("naive", "seminaive", "magic"),
        default="seminaive",
        help="evaluation strategy (default: seminaive)",
    )
    parser.add_argument(
        "--dump",
        action="append",
        default=[],
        metavar="PRED",
        help="print the full extension of a predicate (repeatable)",
    )
    parser.add_argument(
        "--edb",
        action="append",
        default=[],
        metavar="PRED=FILE",
        help="load base facts for PRED from a CSV/TSV file (repeatable)",
    )
    parser.add_argument(
        "--explain",
        action="append",
        default=[],
        metavar="FACT",
        help="print a derivation tree for a ground fact (repeatable)",
    )
    parser.add_argument(
        "--ldl15",
        action="store_true",
        help="accept LDL1.5 constructs and compile them to base LDL1",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="only parse, well-formedness-check, and show the layering",
    )
    parser.add_argument(
        "--repl",
        action="store_true",
        help="after loading, read queries/rules interactively from stdin",
    )
    parser.add_argument(
        "--db",
        metavar="PATH",
        help="durable database directory: restore state from it on start, "
        "write-ahead-log every fact added through the session",
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "batch", "never"),
        default="always",
        help="WAL durability policy for --db (default: always)",
    )
    parser.add_argument(
        "--magic-plan",
        action="append",
        default=[],
        metavar="QUERY",
        help="print the magic-sets rewrite for a query (repeatable)",
    )
    parser.add_argument(
        "--save",
        action="append",
        default=[],
        metavar="PRED=FILE",
        help="write a computed predicate's extension to CSV/TSV (repeatable)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print evaluation statistics and per-phase times",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record engine events and print a per-layer trace summary",
    )
    return parser


def _print_answers(query, answers, echo) -> None:
    echo(format_query(query))
    if not answers:
        echo("  no")
        return
    if not query.atom.variables():
        echo("  yes")
        return
    for binding in answers:
        rendered = ", ".join(
            f"{name} = {value!r}" for name, value in sorted(binding.items())
        )
        echo(f"  {rendered}")


def run(argv: list[str] | None = None, out=None, stdin=None) -> int:
    """Entry point; returns a process exit code.

    ``out`` and ``stdin`` allow tests to capture/feed the interaction.
    """
    if out is not None:
        # allow tests to capture output without patching sys.stdout
        def echo(*args):
            print(*args, file=out, flush=True)
    else:
        def echo(*args):
            print(*args, flush=True)

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return run_serve(argv[1:], echo)

    args = build_arg_parser().parse_args(argv)
    try:
        source = Path(args.file).read_text()
    except OSError as exc:
        echo(f"error: cannot read {args.file}: {exc}")
        return 2

    session = None
    metrics = MetricsCollector() if args.stats else None
    try:
        session = LDL(
            source,
            ldl15=args.ldl15,
            trace=args.trace,
            path=args.db,
            fsync=args.fsync,
            metrics=metrics,
        )
        if args.db:
            stats = session.store.stats
            echo(
                f"% durable store {args.db}: {stats.restore_mode} start, "
                f"{stats.wal_records_replayed} WAL records replayed"
            )
        for spec in args.edb:
            pred, _, filename = spec.partition("=")
            if not filename:
                echo(f"error: --edb expects PRED=FILE, got {spec!r}")
                return 2
            from repro.data import load_delimited

            session.add_atoms(load_delimited(filename, pred))
        program = session.program
        if args.check:
            from repro.program.analyze import analyze

            compile_program(program)  # checks and layers, or raises
            report = analyze(program)
            echo("ok: " + report.format())
            return 0
        for query_text in args.magic_plan:
            from repro.terms.pretty import format_rule

            mp = session.query_magic(parse_query(query_text)).magic_program
            echo(f"% magic plan for {query_text}")
            for rule in mp.magic_rules:
                echo(f"  [magic]    {format_rule(rule)}")
            for rule in mp.modified_rules:
                echo(f"  [modified] {format_rule(rule)}")
            for rule in mp.deferred_rules:
                echo(f"  [deferred] {format_rule(rule)}")
            echo(f"  [seed]     {format_atom(mp.seed)}")

        queries = list(session.pending_queries)
        queries.extend(parse_query(text) for text in args.query)
        for query in queries:
            answers = session.query(query, strategy=args.strategy)
            _print_answers(query, answers, echo)
        for pred in args.dump:
            db = session.database(
                "seminaive" if args.strategy == "magic" else args.strategy
            )
            echo(f"% extension of {pred}:")
            for atom in db.sorted_atoms(pred):
                echo(f"  {format_atom(atom)}.")
        for fact_text in args.explain:
            derivation = session.explain(fact_text)
            if derivation is None:
                echo(f"% {fact_text}: not in the model")
            else:
                echo(derivation.format())
        for spec in args.save:
            pred, _, filename = spec.partition("=")
            if not filename:
                echo(f"error: --save expects PRED=FILE, got {spec!r}")
                return 2
            from repro.data import dump_delimited

            db = session.database(
                "seminaive" if args.strategy == "magic" else args.strategy
            )
            count = dump_delimited(db.sorted_atoms(pred), filename)
            echo(f"% wrote {count} {pred} rows to {filename}")
        if args.repl:
            repl(session, stdin or sys.stdin, echo, strategy=args.strategy)
            return 0
        if (
            not queries
            and not args.dump
            and not args.explain
            and not args.magic_plan
            and not args.save
        ):
            db = session.database(
                "seminaive" if args.strategy == "magic" else args.strategy
            )
            echo(f"% computed model: {len(db)} facts")
            for atom in db.sorted_atoms():
                echo(f"  {format_atom(atom)}.")
        if args.stats and args.strategy != "magic":
            result = session.model(
                "seminaive" if args.strategy == "magic" else args.strategy
            )
            echo(
                f"% stats: {result.total_facts} facts, "
                f"{result.total_iterations} iterations, "
                f"{result.total_firings} rule firings, "
                f"{len(result.layering)} layers"
            )
            echo(
                "% phases: "
                + " ".join(
                    f"{name}={seconds * 1000:.2f}ms"
                    for name, seconds in sorted(metrics.phases.items())
                )
            )
        if args.trace:
            if args.strategy != "magic":
                # make sure at least one evaluation happened to record
                session.model(args.strategy)
            echo(session.trace.format_summary())
    except LDLError as exc:
        echo(f"error: {exc}")
        return 1
    finally:
        if session is not None:
            if session.store is not None:
                # persist the computed model so the next start restores
                # it from the snapshot instead of re-running the fixpoint
                session.checkpoint()
            session.close()
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    from repro.server.protocol import DEFAULT_PORT, MAX_REQUEST_BYTES

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve an LDL1 session over TCP "
        "(newline-delimited JSON protocol)",
    )
    parser.add_argument(
        "file",
        nargs="?",
        help="program file loaded into the served session (optional)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port; 0 picks an ephemeral port, printed on start "
        f"(default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--db",
        metavar="PATH",
        help="durable database directory backing the served session",
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "batch", "never"),
        default="always",
        help="WAL durability policy for --db (default: always)",
    )
    parser.add_argument(
        "--ldl15",
        action="store_true",
        help="accept LDL1.5 constructs in the program file",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request processing budget (default: 30)",
    )
    parser.add_argument(
        "--http",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="PORT",
        help="also serve an HTTP/JSON gateway on PORT (no PORT picks "
        "an ephemeral one, printed on start)",
    )
    parser.add_argument(
        "--http-max-connections",
        type=int,
        default=128,
        metavar="N",
        help="gateway connection limit; over-limit connections get one "
        "503 and are closed (default: 128)",
    )
    parser.add_argument(
        "--http-max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="gateway admission limit on dispatched requests; the rest "
        "get 503 + Retry-After (default: 64)",
    )
    parser.add_argument(
        "--cache",
        choices=("on", "off"),
        default="on",
        help="answer caching (default: on)",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=256,
        metavar="N",
        help="answer-cache entry budget, evicted LRU (default: 256)",
    )
    parser.add_argument(
        "--max-request-bytes",
        type=int,
        default=MAX_REQUEST_BYTES,
        metavar="BYTES",
        help=f"largest accepted request line (default: {MAX_REQUEST_BYTES})",
    )
    return parser


def run_serve(argv: list[str], echo) -> int:
    """The ``serve`` subcommand: run the TCP server until a signal."""
    import asyncio

    from repro.server.cache import AnswerCache
    from repro.server.gateway import HttpGateway
    from repro.server.server import LDLServer

    args = build_serve_parser().parse_args(argv)
    source = ""
    if args.file:
        try:
            source = Path(args.file).read_text()
        except OSError as exc:
            echo(f"error: cannot read {args.file}: {exc}")
            return 2

    session = None
    try:
        session = LDL(source, ldl15=args.ldl15, path=args.db, fsync=args.fsync)
        if args.db:
            stats = session.store.stats
            echo(
                f"% durable store {args.db}: {stats.restore_mode} start, "
                f"{stats.wal_records_replayed} WAL records replayed"
            )
        server = LDLServer(
            session,
            host=args.host,
            port=args.port,
            request_timeout=args.request_timeout,
            max_request_bytes=args.max_request_bytes,
            cache=AnswerCache(args.cache_capacity) if args.cache == "on" else None,
        )

        async def main() -> None:
            await server.start()
            echo(f"% serving on {server.host}:{server.port} (pid {os.getpid()})")
            gateway = None
            if args.http is not None:
                gateway = HttpGateway(
                    server,
                    host=args.host,
                    port=args.http,
                    max_connections=args.http_max_connections,
                    max_inflight=args.http_max_inflight,
                )
                await gateway.start()
                echo(f"% http gateway on {gateway.host}:{gateway.port}")
            try:
                await server.serve()
            finally:
                if gateway is not None:
                    await gateway.stop()

        asyncio.run(main())
        if args.db:
            echo("% shutdown: durable session checkpointed")
        echo("% server stopped")
    except LDLError as exc:
        echo(f"error: {exc}")
        return 1
    finally:
        if session is not None:
            session.close()
    return 0


REPL_HELP = """\
?  <atom>.          answer a query
<rule>.             add a rule or fact
:dump <pred>        print a predicate's extension
:explain <fact>     print a derivation tree
:strategy <name>    naive | seminaive | magic
:layers             show the current layering
:save               checkpoint the durable store (--db; alias .save)
:compact            snapshot + truncate the WAL (--db; alias .compact)
:help               this text
:quit               leave"""


def repl(session: LDL, stream, echo, strategy: str = "seminaive") -> None:
    """A line-oriented interactive loop over a loaded session."""
    echo("% LDL1 repl — :help for commands")
    for raw in stream:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            if line in (":quit", ":q", ":exit"):
                break
            if line in (":help", ":h"):
                echo(REPL_HELP)
            elif line.startswith(":dump"):
                pred = line.split(None, 1)[1].strip()
                db = session.database(
                    "seminaive" if strategy == "magic" else strategy
                )
                for atom in db.sorted_atoms(pred):
                    echo(f"  {format_atom(atom)}.")
            elif line.startswith(":explain"):
                fact_text = line.split(None, 1)[1].strip()
                derivation = session.explain(fact_text)
                echo(
                    derivation.format()
                    if derivation is not None
                    else f"% {fact_text}: not in the model"
                )
            elif line.startswith(":strategy"):
                candidate = line.split(None, 1)[1].strip()
                if candidate not in ("naive", "seminaive", "magic"):
                    echo(f"% unknown strategy {candidate!r}")
                else:
                    strategy = candidate
                    echo(f"% strategy = {strategy}")
            elif line in (":save", ".save", ":compact", ".compact"):
                if session.store is None:
                    echo("% no durable store (start with --db PATH)")
                else:
                    nbytes = session.checkpoint()
                    echo(
                        f"% checkpoint: {nbytes} snapshot bytes, WAL reset "
                        f"({len(session.database())} facts)"
                    )
            elif line == ":layers":
                layering = compile_program(session.program).layering
                for i, layer in enumerate(layering):
                    echo(f"  layer {i}: {', '.join(sorted(layer)) or '(empty)'}")
            elif line.startswith(":"):
                echo(f"% unknown command {line.split()[0]!r} (:help)")
            elif line.startswith("?"):
                query = parse_query(line)
                _print_answers(query, session.query(query, strategy=strategy), echo)
            else:
                session.load(line if line.endswith(".") else line + ".")
                echo("% ok")
        except LDLError as exc:
            echo(f"error: {exc}")


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())
