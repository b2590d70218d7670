"""Tests for the server answer cache (repro.server.cache)."""

import asyncio
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LDL
from repro.engine.maintain import MAINTAIN_MODES, Invalidation
from repro.parser.parser import parse_atom, parse_query
from repro.program.rule import Atom, Query
from repro.server import LDLServer, protocol
from repro.server.cache import AnswerCache, _bindings
from repro.terms.term import Const, Func, SetPattern, Var
from repro.terms.pretty import format_program, format_query
from tests.strategies import update_scripts
from tests.test_server import ROOT, ServerThread, assert_wire_bytes

TWO_FAMILIES = """
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
    s(X) <- f(X).
"""


def tc_session():
    db = LDL(TWO_FAMILIES)
    db.facts("e", [(1, 2), (2, 3)])
    db.facts("f", [(7,), (8,)])
    return db


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = AnswerCache().bind_session(tc_session())
        q = parse_query("? t(1, X).")
        first, how = cache.answers(q)
        assert how == "miss"
        assert [b["X"].value for b in first] == [2, 3]
        again, how = cache.answers(q)
        assert how == "hit"
        assert again == first

    def test_relaxed_patterns_share_one_entry(self):
        """``? t(X, Y)`` and ``? t(X, X)`` differ only in filtering."""
        db = tc_session()
        db.facts("e", [(5, 5)])
        cache = AnswerCache().bind_session(db)
        assert cache.answers(parse_query("? t(X, Y)."))[1] == "miss"
        diagonal, how = cache.answers(parse_query("? t(X, X)."))
        assert how == "hit"  # same key, different match pattern
        assert [b["X"].value for b in diagonal] == [5]

    def test_subsumption_serves_bound_from_free(self):
        cache = AnswerCache().bind_session(tc_session())
        assert cache.answers(parse_query("? t(X, Y)."))[1] == "miss"
        bound, how = cache.answers(parse_query("? t(1, X)."))
        assert how == "hit-subsumed"
        assert [b["X"].value for b in bound] == [2, 3]
        # the fully bound query is subsumed too, and answers by {} match
        check, how = cache.answers(parse_query("? t(1, 3)."))
        assert how == "hit-subsumed"
        assert check == [{}]
        assert cache.report()["subsumed"] == 2

    def test_no_false_subsumption_across_bound_values(self):
        cache = AnswerCache().bind_session(tc_session())
        assert cache.answers(parse_query("? t(1, X)."))[1] == "miss"
        # a differently-bound query cannot be served from that entry
        assert cache.answers(parse_query("? t(2, X)."))[1] == "miss"

    def test_lru_eviction(self):
        cache = AnswerCache(capacity=2).bind_session(tc_session())
        q1, q2, q3 = (
            parse_query("? t(1, X)."),
            parse_query("? t(2, X)."),
            parse_query("? s(X)."),
        )
        cache.answers(q1)
        cache.answers(q2)
        cache.answers(q1)  # refresh q1: q2 is now least recent
        cache.answers(q3)  # evicts q2
        assert cache.answers(q1)[1] == "hit"
        assert cache.answers(q2)[1] == "miss"

    def test_answers_match_uncached_strategies(self):
        db = tc_session()
        db.facts("e", [(5, 0)])  # row order is not name order for t(Y, X)
        cache = AnswerCache().bind_session(db)
        for text in (
            "? t(1, X).", "? t(X, Y).", "? t(Y, X).", "? t(_, X).",
            "? s(X).", "? e(1, X).",
        ):
            q = parse_query(text)
            cached, _ = cache.answers(q)
            assert cached == db.model().answers(q)
            if q.atom.pred in db.program.idb_predicates():
                assert cached == db.query_magic(q).answers()
        # an arity no stored row has matches nothing, missed or hit
        q = parse_query("? t(X).")
        fresh = AnswerCache().bind_session(db)
        assert db.model().answers(q) == []
        assert fresh.answers(q) == ([], "miss")
        assert fresh.answers(q) == ([], "hit")


class TestInvalidation:
    def test_writes_invalidate_only_affected_predicates(self):
        db = tc_session()
        cache = AnswerCache().bind_session(db)
        qt, qs = parse_query("? t(1, X)."), parse_query("? s(X).")
        cache.answers(qt)
        cache.answers(qs)
        db.facts("f", [(9,)])  # touches the s-family only
        assert cache.answers(qt)[1] == "hit"
        assert cache.answers(qs)[1] == "miss"
        answers, _ = cache.answers(qs)  # refill
        db.facts("e", [(3, 4)])  # touches the t-family only
        assert cache.answers(qs)[1] == "hit"
        assert cache.answers(qt)[1] == "miss"
        assert [b["X"].value for b in cache.answers(qt)[0]] == [2, 3, 4]

    def test_rule_load_clears_wholesale(self):
        db = tc_session()
        cache = AnswerCache().bind_session(db)
        cache.answers(parse_query("? t(1, X)."))
        cache.answers(parse_query("? s(X)."))
        db.load("s(X) <- e(X, _).")  # rules changed: everything suspect
        assert len(cache) == 0
        got, how = cache.answers(parse_query("? s(X)."))
        assert how == "miss"
        assert sorted(b["X"].value for b in got) == [1, 2, 7, 8]

    def test_removals_invalidate(self):
        db = tc_session()
        cache = AnswerCache().bind_session(db)
        q = parse_query("? t(1, X).")
        cache.answers(q)
        db.remove("e", 2, 3)
        got, how = cache.answers(q)
        assert how == "miss"
        assert [b["X"].value for b in got] == [2]

    # The durable cases run once per maintenance mode: a recompute
    # update publishes its cone where a delta update publishes its
    # batch's predicates, and either must keep the cache exact.

    def test_durable_delta_invalidation_is_precise(self, tmp_path):
        for maintain in MAINTAIN_MODES:
            with LDL(
                TWO_FAMILIES, path=str(tmp_path / maintain), maintain=maintain
            ) as db:
                db.facts("e", [(1, 2)])
                db.facts("f", [(7,)])
                cache = AnswerCache().bind_session(db)
                qt, qs = parse_query("? t(1, X)."), parse_query("? s(X).")
                cache.answers(qt)
                cache.answers(qs)
                db.facts("f", [(8,)])  # the batch (or cone) names f/s only
                assert cache.answers(qt)[1] == "hit", maintain
                assert cache.answers(qs)[1] == "miss", maintain

    def test_version_stamps_make_invalidation_precise_in_time(self, tmp_path):
        for maintain in MAINTAIN_MODES:
            with LDL(
                TWO_FAMILIES, path=str(tmp_path / maintain), maintain=maintain
            ) as db:
                db.facts("e", [(1, 2)])
                cache = AnswerCache().bind_session(db)
                q = parse_query("? t(1, X).")
                cache.answers(q)
                filled_at = db.store.model.version
                assert filled_at > 0
                # an update at (or before) the fill version is reflected
                stale = Invalidation(version=filled_at, preds=frozenset({"e"}))
                assert cache.apply_invalidation(stale) == 0
                assert cache.answers(q)[1] == "hit"
                # a later update's invalidation drops the entry
                fresh = Invalidation(
                    version=filled_at + 1, preds=frozenset({"e"})
                )
                assert cache.apply_invalidation(fresh) == 1
                assert cache.answers(q)[1] == "miss"

    @pytest.mark.parametrize("compact_every", [1024, 3])
    def test_no_stale_read_after_checkpoint(self, tmp_path, compact_every):
        """Regression: a checkpoint (explicit, or the automatic
        compaction every ``compact_every`` records) resets the WAL, so
        LSNs restart near 0; an entry filled before it must still be
        invalidated by the writes after it."""
        from repro.workloads.social import SOCIAL_PROGRAM

        for maintain in MAINTAIN_MODES:
            with LDL(
                SOCIAL_PROGRAM, path=str(tmp_path / maintain),
                compact_every=compact_every, maintain=maintain,
            ) as db:
                cache = AnswerCache().bind_session(db)
                db.facts("follows", [(f"u{i}", "b") for i in range(20)])
                q = parse_query("? audience(b, N).")
                assert [b["N"].value for b in cache.answers(q)[0]] == [20]
                if compact_every == 1024:
                    db.checkpoint()
                else:
                    # unrelated writes until auto-compaction resets the log
                    while db.store.wal.record_count:
                        db.fact(
                            "interest", "b", f"t{db.store.stats.compactions}"
                        )
                assert db.store.wal.record_count == 0
                db.fact("follows", "a", "b")
                served, how = cache.answers(q)
                assert served == db.model().answers(q)
                assert [b["N"].value for b in served] == [21], maintain
                assert how == "miss", maintain

    def test_unstamped_entries_always_drop_on_intersection(self):
        cache = AnswerCache().bind_session(tc_session())
        cache.answers(parse_query("? t(1, X)."))
        event = Invalidation(version=10_000, preds=frozenset({"e"}))
        assert cache.apply_invalidation(event) == 1

    def test_fill_falls_back_only_where_magic_does_not_apply(self):
        """``MagicRewriteError`` / ``UnstableMagicEvaluationError`` mean
        "use the model" and are counted; anything else is a bug in the
        fill path and must reach the caller."""
        from repro.errors import MagicRewriteError, UnstableMagicEvaluationError

        class Failing(LDL):
            failure = None

            def on_demand_rows(self, text):
                raise self.failure

        db = Failing(TWO_FAMILIES)
        db.facts("e", [(1, 2), (2, 3)])
        cache = AnswerCache().bind_session(db)
        db.failure = MagicRewriteError("not rewritable")
        assert [b["X"].value for b in cache.answers(parse_query("? t(1, X)."))[0]] == [2, 3]
        db.failure = UnstableMagicEvaluationError("unstable")
        assert [b["X"].value for b in cache.answers(parse_query("? t(2, X)."))[0]] == [3]
        cache.answers(parse_query("? t(3, X)."))
        assert cache.report()["magic_fallbacks"] == {
            "MagicRewriteError": 1, "UnstableMagicEvaluationError": 2,
        }
        db.failure = RuntimeError("a bug in the fill path")
        with pytest.raises(RuntimeError):
            cache.answers(parse_query("? t(4, X)."))
        assert len(cache) == 3  # the failed fill cached nothing


class TestCachedServer:
    def test_fill_failure_is_a_clean_error_reply(self):
        """No silent fallback: a fill-path exception that does not mean
        "magic does not apply" reaches the client as an error reply, and
        the server keeps serving."""
        from repro.errors import MagicRewriteError, ServerError

        class Failing(LDL):
            failure = RuntimeError("a bug in the fill path")

            def on_demand_rows(self, text):
                raise self.failure

        session = Failing(TWO_FAMILIES)
        session.facts("e", [(1, 2), (2, 3)])
        with ServerThread(session, cache=AnswerCache()) as st, st.client() as client:
            with pytest.raises(ServerError, match="a bug in the fill path"):
                client.query("? t(1, X).")
            session.failure = MagicRewriteError("not rewritable")
            assert client.query("? t(1, X).") == [{"X": 2}, {"X": 3}]
            stats = client.stats()
            assert stats["answer_cache"]["magic_fallbacks"] == {
                "MagicRewriteError": 1
            }
            assert stats["server"]["errors_total"] == 1

    def test_hit_invalidate_hit_cycle_end_to_end(self):
        session = tc_session()
        cache = AnswerCache()
        with ServerThread(session, cache=cache) as st, st.client() as client:
            ask = {"q": "? t(1, X)."}
            assert client.call("query", **ask)["cache"] == "miss"
            assert client.call("query", **ask)["cache"] == "hit"
            client.add_facts("f", [(9,)])  # unrelated family
            assert client.call("query", **ask)["cache"] == "hit"
            client.add_facts("e", [(3, 4)])  # invalidates the t-family
            response = client.call("query", **ask)
            assert response["cache"] == "miss"
            assert response["count"] == 3
            # per-request bypass, and the uncached answers agree
            assert client.call("query", **ask, cache=False)["cache"] == "off"
            assert client.query("? t(1, X).") == client.query(
                "? t(1, X).", cache=False
            )
            stats = client.stats()
            assert stats["answer_cache"]["hits"] >= 2
            assert stats["answer_cache"]["entries_invalidated"] >= 1
            assert stats["server"]["cache"]["hit"] >= 2
            assert stats["server"]["cache"]["invalidation_events"] >= 2


def _query_pool(generated):
    """Deterministic queries covering the generated program's shapes:
    variables in and out of position order, ``_``, a repeated variable,
    a set-pattern argument, and bound, fully bound and arithmetic
    ground arguments."""
    arities: dict[str, int] = {}
    for rule in generated.program:
        for atom in [rule.head] + [lit.atom for lit in rule.body]:
            arities.setdefault(atom.pred, len(atom.args))
    for atom in generated.edb:
        arities.setdefault(atom.pred, len(atom.args))
    queries = []
    for pred, arity in sorted(arities.items())[:6]:
        queries.append(
            Query(Atom(pred, tuple(Var(f"Q{i}") for i in range(arity))))
        )
        if arity >= 2:
            free = tuple(Var(f"Q{i}") for i in range(1, arity))
            queries += [
                # names sorting against position order
                Query(Atom(pred, tuple(Var(f"Q{arity - 1 - i}") for i in range(arity)))),
                Query(Atom(pred, (Var("_"),) + free)),
                Query(Atom(pred, tuple(Var("Q") for _ in range(arity)))),
                Query(Atom(pred, free + (SetPattern((Var("Q0"),)),))),
            ]
    for atom in list(dict.fromkeys(generated.edb))[:3]:
        queries.append(Query(atom))  # fully bound
        if len(atom.args) >= 2:  # partially bound
            free = tuple(Var(f"Q{i}") for i in range(1, len(atom.args)))
            queries.append(Query(Atom(atom.pred, (atom.args[0],) + free)))
            arithmetic = Func("+", (Const(-1), atom.args[0]))
            queries.append(Query(Atom(atom.pred, (arithmetic,) + free)))
    return queries


def _oracle_wire(oracle, query):
    """``query``'s answers in wire form, matched from scratch against
    every row of its predicate in the uncached oracle's model."""
    rows = oracle.model().database.tuples(query.atom.pred)
    return [protocol.encode_binding(b) for b in _bindings(query.atom, rows)]


def _reply_bytes(answers, how):
    return protocol.encode_message(
        protocol.ok_response({}, answers=answers, count=len(answers), cache=how)
    )


@given(update_scripts())
@settings(max_examples=20, deadline=None)
def test_cached_answers_equal_uncached_oracle(script):
    """Random add/remove/query interleavings: a cached session must
    answer exactly like an uncached oracle at every step — any missed
    invalidation or over-broad subsumption shows up as a stale answer.

    Server replies must be byte-identical to the oracle's on every way
    a query can be served, and over both transports equal to
    ``json.dumps`` of the reply dict.  Each query is asked three times (miss or
    subsumed hit, first exact hit, memoized hit) and once more with the
    per-request ``"cache": false`` bypass, by one server asking broad
    queries first (bound ones then hit subsumed) and one asking bound
    queries first (they then hit their own entries); a server without
    a cache answers it under both strategies."""
    generated, initial, ops = script
    text = format_program(generated.program)
    cached_session = LDL(text).add_atoms(initial)
    oracle = LDL(text).add_atoms(initial)
    cache = AnswerCache().bind_session(cached_session)
    queries = _query_pool(generated)
    servers = [LDLServer(cached_session, cache=AnswerCache()) for _ in range(2)]
    uncached = LDLServer(cached_session, cache=None)
    derived = {rule.head.pred for rule in generated.program}
    loop = asyncio.new_event_loop()
    served = set()

    def ask(server, **request):
        reply = loop.run_until_complete(
            server.handle_request({"op": "query", **request})
        )
        if reply["ok"]:
            served.add(reply["cache"])
        return reply

    def check():
        for query in queries:
            got, _ = cache.answers(query)
            assert got == oracle.model().answers(query)
            wire, how = cache.answers(query, wire=True)
            assert _reply_bytes(wire, how) == _reply_bytes(
                _oracle_wire(oracle, query), how
            )
            assert_wire_bytes(
                protocol.ok_response({}, answers=wire, count=len(wire), cache=how)
            )
        for server, order in zip(servers, (queries, queries[::-1])):
            for query in order:
                text = format_query(query)
                expected = _oracle_wire(oracle, parse_query(text))
                for extra in ({}, {}, {}, {"cache": False}):
                    reply = ask(server, q=text, **extra)
                    assert protocol.encode_message(reply) == _reply_bytes(
                        expected, reply["cache"]
                    ), text
                    assert_wire_bytes(reply)
        for query in queries:
            text = format_query(query)
            expected = _oracle_wire(oracle, parse_query(text))
            for strategy in ("seminaive", "magic"):
                reply = ask(uncached, q=text, strategy=strategy)
                if not reply["ok"]:
                    # magic refuses a base predicate: it is read directly
                    assert strategy == "magic", reply
                    assert reply["etype"] == "MagicRewriteError", reply
                    assert query.atom.pred not in derived, reply
                    continue
                assert protocol.encode_message(reply) == _reply_bytes(
                    expected, "off"
                ), (strategy, text)
                assert_wire_bytes(reply)

    try:
        check()
        for kind, atoms in ops:
            if kind == "add":
                cached_session.add_atoms(atoms)
                oracle.add_atoms(atoms)
            else:
                cached_session.remove_atoms(atoms)
                oracle.remove_atoms(atoms)
            check()
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
    # the workload must actually exercise the cache, not just miss
    report = cache.report()
    assert report["hits"] + report["misses"] > 0
    assert {"miss", "hit", "off"} <= served


def _scan_subsuming(cache, key):
    """The linear scan ``AnswerCache._subsuming_entry`` replaced: the
    most recently used entry of ``key``'s predicate, other than ``key``,
    whose bound positions ``key`` binds to equal values."""
    pred, _, bound = key
    values = dict(bound)
    for other in reversed(cache._entries):  # most recently used first
        if other[0] != pred or other == key:
            continue
        if all(values.get(i) == t for i, t in other[2]):
            return cache._entries[other]
    return None


#: Bound arguments that compare equal across spellings ('a' and a), or
#: not at all across types (1 and 1.0), plus compound and set constants.
_BOUND_VALUES = (
    "1", "1.0", "'a'", "a", "f('a')", "f(a)", "{1, 2}", "{2, 1}", "{}",
)


def _subsumption_queries(values):
    """Queries on ``e`` (mostly) and ``g`` of arity 1-3 (mostly 2), each
    argument a variable, a compound pattern or one of ``values``."""

    @st.composite
    def queries(draw):
        pred = draw(st.sampled_from(["e", "e", "e", "g"]))
        arity = draw(st.sampled_from([1, 2, 2, 2, 3]))
        args = []
        for i in range(arity):
            kind = draw(st.sampled_from(["var", "compound", "bound", "bound"]))
            if kind == "var":
                args.append(f"X{i}")
            elif kind == "compound":
                args.append(f"f(X{i})")
            else:
                args.append(draw(st.sampled_from(values)))
        return parse_query(f"? {pred}({', '.join(args)}).")

    return queries()


@st.composite
def _cache_scripts(draw):
    """A few bound values per script, so that entries often subsume
    each other, then up to 40 steps over them."""
    values = draw(st.lists(
        st.sampled_from(_BOUND_VALUES), min_size=1, max_size=3, unique=True
    ))
    queries = _subsumption_queries(values)
    kinds = ["ask"] * 6 + ["memo"] * 2 + ["invalidate", "clear"]
    steps = st.sampled_from(kinds).flatmap(lambda kind: {
        "ask": st.tuples(st.just("ask"), queries),
        "memo": st.tuples(st.just("memo"), queries),
        "invalidate": st.tuples(
            st.just("invalidate"),
            st.sampled_from([("e",), ("g",), ("e", "g"), ("h",)]),
        ),
        "clear": st.just(("clear",)),
    }[kind])
    return draw(st.lists(steps, min_size=10, max_size=40))


def _subsumption_session():
    return LDL(
        "h(X) <- g(X). "
        "e(1, 'a'). e(1.0, a). e(f('a'), {1, 2}). e(a, 1). e({}, f(a)). "
        "g(1). g('a'). g({1, 2}). g(f(a))."
    )


def _recount_forms(cache):
    forms = {}
    for pred, adornment, _ in cache._entries:
        counts = forms.setdefault(pred, {})
        counts[adornment] = counts.get(adornment, 0) + 1
    return forms


@given(
    st.integers(min_value=2, max_value=6),
    _cache_scripts(),
)
@settings(max_examples=150, deadline=None)
def test_subsuming_entry_equals_linear_scan(capacity, steps):
    """Random lookups, fills, evictions, precise invalidations and
    clears: every lookup finds the very entry the linear scan over the
    LRU finds (the most recently used one when several qualify), and
    the per-form entry counts always equal a recount of the entries."""
    cache = AnswerCache(capacity=capacity).bind_session(_subsumption_session())
    for step in steps:
        kind = step[0]
        if kind in ("ask", "memo"):
            query = step[1]
            key = AnswerCache._analyze(query)[0]
            expected = _scan_subsuming(cache, key)
            assert cache._subsuming_entry(key) is expected
            exact = key in cache._entries
            _, how = cache.answers(query, wire=kind == "memo")
            if exact:
                assert how == "hit"
            elif expected is not None:
                assert how == "hit-subsumed"
            if kind == "memo":
                cache.memoized(query)
        elif kind == "invalidate":
            cache.apply_invalidation(Invalidation(preds=frozenset(step[1])))
        else:
            cache.clear()
        assert cache._forms == _recount_forms(cache)


def test_subsumed_hit_promotes_most_recently_used_entry():
    """Two entries subsume ``t(1, 2)``; the most recently used one
    answers it and moves to the back of the LRU."""
    cache = AnswerCache(capacity=3).bind_session(tc_session())
    by_source, by_target, other = (
        parse_query("? t(1, Y)."),
        parse_query("? t(X, 2)."),
        parse_query("? s(X)."),
    )
    for query in (by_source, by_target, other):
        assert cache.answers(query)[1] == "miss"
    assert cache.answers(parse_query("? t(1, 2).")) == ([{}], "hit-subsumed")
    # LRU order is now t(1, Y), s(X), t(X, 2): two fills evict the first two
    assert cache.answers(parse_query("? t(2, Y)."))[1] == "miss"
    assert cache.answers(parse_query("? t(3, Y)."))[1] == "miss"
    assert cache.answers(by_target)[1] == "hit"
    assert cache.answers(other)[1] == "miss"
    assert cache.answers(by_source)[1] == "miss"


#: Users as query text, each in two spellings that name one U-element.
_USERS = ("u0", "u1", "u2", "u3")
_SPELLED = st.tuples(st.sampled_from(_USERS), st.booleans()).map(
    lambda spelled: f"'{spelled[0]}'" if spelled[1] else spelled[0]
)


@st.composite
def _social_scripts(draw):
    """A small follows graph, then up to 12 steps: bound and unbound
    queries on ``influences``, ``recommend`` and ``audience`` (quoted
    spellings, repeated variables, compound patterns) between batches
    of inserted and deleted follows facts."""
    follows = st.tuples(_SPELLED, _SPELLED).map(
        lambda ab: parse_atom(f"follows({ab[0]}, {ab[1]})")
    )
    batches = st.lists(follows, min_size=1, max_size=3)

    @st.composite
    def queries(draw):
        pred = draw(st.sampled_from(["influences", "recommend", "audience"]))
        u = draw(_SPELLED)
        bound = "2" if pred == "audience" else draw(_SPELLED)
        shape = draw(st.sampled_from([
            "{u}, X", "X, {u}", "{u}, {v}", "{u}, f(X)", "X, X", "Y, X",
        ]))
        return f"? {pred}({shape.format(u=u, v=bound)})."

    steps = st.one_of(
        st.tuples(st.just("ask"), queries()),
        st.tuples(st.sampled_from(["add", "remove"]), batches),
    )
    initial = draw(st.lists(follows, max_size=8))
    return initial, draw(st.lists(steps, min_size=1, max_size=12))


@pytest.mark.parametrize("maintain", MAINTAIN_MODES)
@given(script=_social_scripts())
@settings(max_examples=25, deadline=None)
def test_durable_fills_equal_magic_and_in_memory(maintain, script):
    """A durable session fills every miss from its maintained model.
    Its cached answers, spellings included, must equal the model's
    ``LDL.query``, ``LDL.query_magic`` and a fresh in-memory session
    (whose bound misses fill by magic) after every write."""
    from repro.workloads.social import SOCIAL_PROGRAM

    def wire(bindings):
        return [protocol.encode_binding(b) for b in bindings]

    initial, steps = script
    live = {}  # the live facts, each in the spelling it was first added
    with tempfile.TemporaryDirectory() as tmp, LDL(
        SOCIAL_PROGRAM, path=tmp, maintain=maintain
    ) as durable:
        cache = AnswerCache().bind_session(durable)
        for kind, arg in [("add", initial)] + steps:
            if kind == "add":
                durable.add_atoms(arg)
                for atom in arg:
                    live.setdefault(atom, atom)
            elif kind == "remove":
                durable.remove_atoms(arg)
                for atom in arg:
                    live.pop(atom, None)
            else:
                query = parse_query(arg)
                got, _ = cache.answers(query, wire=True)
                assert got == wire(durable.model().answers(query)), arg
                assert got == wire(durable.query_magic(query).answers()), arg
                fresh = LDL(SOCIAL_PROGRAM).add_atoms(live.values())
                fresh_cache = AnswerCache().bind_session(fresh)
                assert got == fresh_cache.answers(query, wire=True)[0], arg
                assert durable.query(query) == fresh.query(query), arg
        assert cache.report()["fills"]["magic"] == 0


def test_in_memory_bound_fill_never_builds_an_infinite_model():
    """``nat`` and ``lt`` are infinite, so an in-memory session must
    fill a bound miss by magic: the model never finishes.  Run in a
    child process with a deadline, so a regression fails, not hangs."""
    child = textwrap.dedent(
        """
        from repro import LDL
        from repro.parser.parser import parse_query
        from repro.server.cache import AnswerCache

        session = LDL("nat(0). nat(s(X)) <- nat(X). lt(X, s(X)) <- nat(X).")
        cache = AnswerCache().bind_session(session)
        answers, how = cache.answers(parse_query("? lt(s(0), Y)."))
        two = parse_query("? nat(s(s(0))).").atom.args[0]
        assert answers == [{"Y": two}], answers
        assert how == "miss"
        assert cache.report()["fills"] == {"model": 0, "magic": 1}
        assert session._cached_result is None  # no model was built
        """
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_memo_counters_hold_under_concurrent_hits():
    """Threads racing to fill, memoize and read wire answers while
    another thread reads ``report()``: no ``memo_hits`` update is lost,
    no report trips over a memo being added, and ``memo_bytes`` is the
    text of the memos the cache holds."""
    session = tc_session()
    session.model()
    cache = AnswerCache().bind_session(session)
    texts = ("? t(1, X).", "? t(2, X).", "? t(X, Y).", "? s(X).", "? t(Y, X).")
    queries = [parse_query(text) for text in texts]
    served = [0] * 4
    errors = []
    stop = threading.Event()

    def worker(n):
        try:
            for _ in range(100):
                for query in queries:
                    cache.answers(query, wire=True)
                    if cache.memoized(query) is not None:
                        served[n] += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def reporter():
        try:
            while not stop.is_set():
                cache.report()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher = threading.Thread(target=reporter)
        workers = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        watcher.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        stop.set()
        watcher.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers + [watcher])
    assert errors == []
    report = cache.report()
    assert report["memo_hits"] == sum(served) > 0
    memos = [cache.memoized(query) for query in queries]
    assert report["memo_bytes"] == sum(
        len(json.dumps(memo, separators=(",", ":")))
        for memo in memos
        if memo is not None
    ) > 0
