"""The serving tier's subsumption-aware answer cache.

One :class:`AnswerCache` sits between :class:`repro.server.LDLServer`
and its session and memoizes query answers across clients:

* **Keying.**  A query is canonicalized to ``(pred, adornment, bound
  arguments)``: every ground argument is evaluated to its U-value and
  recorded with its position, every non-ground argument is *relaxed* to
  a fresh, distinct variable.  ``? p(f(X), a)`` and ``? p(Y, a)`` thus
  share one entry — the cache stores full ground argument **rows** for
  the relaxed pattern, sorted and distinct, and derives each caller's
  bindings from them.

* **Binding.**  A *plain* query — every non-ground argument a distinct
  variable, the shape of nearly every bound query — binds straight
  from the rows: its bound positions are equal in every row, so row
  order is binding order whenever its variable names sort in position
  order, and one sort by the permuted key otherwise.  Other patterns
  (repeated variables, compound arguments) and subsumed hits re-match
  the caller's own atom against the rows through
  :func:`repro.engine.match.match_atom`, deduplicating and sorting
  like :func:`repro.engine.evaluator.answer_query`.

* **Wire memo.**  The first exact hit of a plain query in wire form
  (:meth:`AnswerCache.answers` with ``wire=True``) keeps the encoded
  answers on the entry, keyed by the query's variable names, as an
  :class:`~repro.server.protocol.EncodedAnswers`: the list plus its
  compact JSON text, encoded once, there.  Every reply that carries it
  — that first hit included — has the text spliced in by
  :func:`repro.server.protocol.encode_json` on either transport, so a
  repeat is never re-encoded.  :meth:`AnswerCache.memoized` then
  answers the same query with dict lookups only, which is cheap enough
  for the server's event loop.  Fills never build it — most entries of
  a cold workload are evicted unread, and ~300 B of tagged trees per
  row (and ~20 B of text) would tax every one of them — and it goes
  wherever its entry goes.  ``memo_hits`` counts the hits it served
  and ``memo_bytes`` the text it holds (:meth:`AnswerCache.report`).

* **Subsumption.**  A miss on the exact key looks for a *broader*
  entry — same predicate, bound positions a subset of ours with equal
  values.  Its rows are a superset of the answer set, so filtering
  them through the query pattern serves the query without touching the
  engine (counted as ``hit-subsumed``).  The lookup goes by *form*: the
  cache counts its live entries per predicate and adornment, and for
  each of the predicate's forms that binds a subset of our positions
  probes the one key that form could subsume us under — a dict lookup
  per form, however many entries the cache holds.  When several
  entries qualify, the most recently used one answers.

* **Population.**  A maintained model answers; magic only where there
  is none.  A durable session's store keeps every relation current,
  so any miss there is one index probe of its live database
  (:func:`repro.engine.evaluator.answer_rows`).  An in-memory session
  computes a miss with at least one bound argument on an IDB
  predicate *on demand* through the §6 magic-set pipeline
  (:meth:`repro.api.LDL.on_demand_rows`: one
  :class:`~repro.magic.evaluate.PreparedQuery` per query form), so a
  bound query never materializes a model that may be large, or
  infinite.  Its free queries and EDB predicates read the session's
  (memoized) model directly.  So does a bound query magic *does not
  apply to* — the rewrite refuses the program
  (:class:`MagicRewriteError`) or the constrained evaluation fails its
  stability check (:class:`UnstableMagicEvaluationError`) — counted by
  reason as ``magic_fallbacks``; any other failure propagates to the
  caller.  Fills are counted by lane, ``fills: {"model", "magic"}``.

* **Invalidation.**  Writes invalidate *precisely*: the session's
  delta listeners deliver an :class:`repro.engine.maintain.Invalidation`
  naming the predicates whose extensions (may have) changed, and an
  entry is dropped only when its **support set** — the query predicate
  plus everything it transitively depends on in the rule dependency
  graph — intersects them.  Entries and invalidations both carry the
  durable model's monotone *update version*
  (:attr:`~repro.engine.incremental.IncrementalModel.version`), so an
  entry filled at or after the mutation that triggered an invalidation
  survives it.  (WAL LSNs cannot play this role: they are byte offsets
  that restart at every checkpoint.)  A wholesale event
  (``preds=None``, e.g. rules changed) clears everything.

The cache is thread-safe (one internal mutex) but relies on its caller
for read/write ordering: the server fills entries while holding the
read side of its lock and invalidates under the write side, so a fill
can never interleave with the mutation it would go stale against.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

from repro.engine.compiled import compile_program
from repro.engine.evaluator import answer_rows
from repro.engine.match import match_atom
from repro.errors import (
    EvaluationError,
    MagicRewriteError,
    NotInUniverseError,
    UnstableMagicEvaluationError,
)
from repro.program.dependency import reachable
from repro.program.rule import Atom, Query
from repro.server.protocol import EncodedAnswers, encode_binding
from repro.terms.term import Term, Var, evaluate_ground

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import LDL
    from repro.engine.maintain import Invalidation

#: A cache key: predicate, b/f adornment, ((position, value), ...).
Key = tuple[str, str, tuple[tuple[int, Term], ...]]


class _Entry:
    """Rows for one relaxed pattern, stamped with the model's update
    version at fill time (None for in-memory sessions), plus the wire
    answers of the plain queries that have hit it, by variable names.
    ``used`` is the cache's use tick at its last fill or hit: the
    larger, the more recently used."""

    __slots__ = ("key", "rows", "version", "wire", "used")

    def __init__(
        self, key: Key, rows: tuple[tuple[Term, ...], ...], version: int | None
    ) -> None:
        self.key = key
        self.rows = rows
        self.version = version
        self.wire: dict[tuple[str, ...], EncodedAnswers] = {}
        self.used = 0


def _plain_bindings(
    adornment: str, names: tuple[str, ...], rows: tuple[tuple[Term, ...], ...]
) -> list[dict]:
    """Bindings of a plain query straight from its own entry's rows.

    The rows are distinct, sorted, and equal at every bound position,
    so each row yields one binding, no two alike, and row order sorts
    them by the values of the free positions in position order.
    ``answer_query`` sorts by variable name instead: the same order
    when the names sort in position order, else one sort by the
    permuted key.  Keys stay in position order, as ``match_atom``
    inserts them.
    """
    free = [i for i, a in enumerate(adornment) if a == "f"]
    by_name = [i for _, i in sorted(zip(names, free))]
    if by_name != free:
        rows = sorted(rows, key=lambda r: [r[i].sort_key() for i in by_name])
    if len(free) == 1:
        (name,), (i,) = names, free
        return [{name: row[i]} for row in rows]
    return [dict(zip(names, [row[i] for i in free])) for row in rows]


def _bindings(
    pattern: Atom, rows: Iterable[tuple[Term, ...]]
) -> list[dict]:
    """Sorted distinct bindings of ``pattern`` over ``rows``.

    Mirrors :func:`repro.engine.evaluator.answer_query` exactly, so a
    cached answer is indistinguishable from an engine answer.
    """
    answers: list[dict] = []
    seen: set[frozenset] = set()
    for args in rows:
        for binding in match_atom(pattern, args, {}):
            key = frozenset(binding.items())
            if key not in seen:
                seen.add(key)
                answers.append(binding)
    answers.sort(
        key=lambda b: tuple(
            (name, value.sort_key()) for name, value in sorted(b.items())
        )
    )
    return answers


class AnswerCache:
    """An LRU answer cache with subsumption and versioned invalidation."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._mutex = threading.Lock()
        self._entries: OrderedDict[Key, _Entry] = OrderedDict()
        # live entries per predicate and adornment, for _subsuming_entry
        self._forms: dict[str, dict[str, int]] = {}
        self._ticks = itertools.count(1)
        self._session: "LDL | None" = None
        # support-set memo, rebuilt whenever the program object changes
        self._support: dict[str, frozenset[str]] = {}
        self._graph = None
        self._graph_program = None
        # bumped by every apply_invalidation: a fill whose load saw an
        # older epoch may hold rows from before the write, and is dropped
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.subsumed = 0
        # hits served by memoized(), on the caller's (event-loop) thread
        self.memo_hits = 0
        self.invalidation_events = 0
        self.entries_invalidated = 0
        # fills by lane: read from a model, or computed by magic
        self.fills = {"model": 0, "magic": 0}
        # bound fills magic did not apply to, by exception class name
        self.magic_fallbacks: dict[str, int] = {}

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    # -- wiring ------------------------------------------------------------

    def bind_session(self, session: "LDL", register: bool = True) -> "AnswerCache":
        """Attach the session answering misses; optionally self-register
        :meth:`apply_invalidation` as its delta listener (the server
        registers a metrics-counting wrapper instead)."""
        self._session = session
        if register:
            add = getattr(session, "add_delta_listener", None)
            if add is not None:
                add(self.apply_invalidation)
        return self

    # -- answering ---------------------------------------------------------

    def answers(self, query: Query, wire: bool = False) -> tuple[list[dict], str]:
        """Answer ``query``; returns ``(answers, how)`` where ``how``
        is ``"hit"``, ``"hit-subsumed"``, ``"miss"``, or
        ``"unsatisfiable"`` (a ground argument fell outside U).

        The answers are ``{variable: term}`` bindings or, with ``wire``,
        their protocol encoding ``{variable: tagged tree}``
        (:func:`repro.server.protocol.encode_binding`); an exact hit of
        a plain query in wire form leaves that encoding, with its JSON
        text, on its entry for :meth:`memoized` and returns it.
        """
        try:
            key, pattern, relaxed, names = self._analyze(query)
        except (NotInUniverseError, EvaluationError):
            return [], "unsatisfiable"
        how = "miss"
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                self._touch(entry)
                self.hits += 1
                how = "hit"
            else:
                entry = self._subsuming_entry(key)
                if entry is not None:
                    self._touch(entry)
                    self.hits += 1
                    self.subsumed += 1
                    how = "hit-subsumed"
        if entry is not None:
            rows = entry.rows
        else:
            # miss: evaluate outside the mutex (possibly slow), then
            # insert unless an invalidation ran meanwhile.
            epoch = self._epoch
            rows, version, lane = self._load(key, relaxed)
            with self._mutex:
                self.misses += 1
                self.fills[lane] += 1
                if key not in self._entries and epoch == self._epoch:
                    self._insert(_Entry(key, rows, version))
        if names is None or how == "hit-subsumed":
            bindings = _bindings(pattern, rows)
        else:
            bindings = _plain_bindings(key[1], names, rows)
        if not wire:
            return bindings, how
        encoded = [encode_binding(b) for b in bindings]
        if how == "hit" and names is not None:
            encoded = EncodedAnswers(encoded)
            with self._mutex:
                entry.wire[names] = encoded
        return encoded, how

    def memoized(self, query: Query) -> EncodedAnswers | None:
        """The wire answers an earlier exact hit left for ``query``, or
        None when there are none (nothing is counted then).  The list
        is the memo itself, text and all, shared by every reply: never
        mutate it.

        Dict lookups only — no evaluation, matching or encoding — so
        the server calls it on its event loop; the mutex it takes is
        never held across more than dict operations.
        """
        try:
            key, _, _, names = self._analyze(query)
        except (NotInUniverseError, EvaluationError):
            return None
        if names is None:
            return None
        with self._mutex:
            entry = self._entries.get(key)
            encoded = None if entry is None else entry.wire.get(names)
            if encoded is not None:
                self._touch(entry)
                self.hits += 1
                self.memo_hits += 1
            return encoded

    # -- the LRU and its form counts (callers hold the mutex) --------------

    def _touch(self, entry: _Entry) -> None:
        """Make ``entry`` the most recently used."""
        self._entries.move_to_end(entry.key)
        entry.used = next(self._ticks)

    def _insert(self, entry: _Entry) -> None:
        """Add a fresh entry as the most recently used, evicting the
        least recently used ones beyond capacity."""
        pred, adornment, _ = entry.key
        self._entries[entry.key] = entry
        entry.used = next(self._ticks)
        forms = self._forms.setdefault(pred, {})
        forms[adornment] = forms.get(adornment, 0) + 1
        while len(self._entries) > self.capacity:
            self._forget(self._entries.popitem(last=False)[0])

    def _forget(self, key: Key) -> None:
        """Uncount an entry that has left ``_entries``."""
        pred, adornment, _ = key
        forms = self._forms[pred]
        if forms[adornment] == 1:
            del forms[adornment]
            if not forms:
                del self._forms[pred]
        else:
            forms[adornment] -= 1

    def _subsuming_entry(self, key: Key) -> _Entry | None:
        """A broader entry able to answer ``key`` by filtering, if any.

        Broader means: same predicate, and every bound position of the
        candidate is bound in ``key`` to the same value — its rows are
        then a superset of the rows ``key`` would store.  Such an entry
        has one of the predicate's live forms, binding a subset of
        ``key``'s positions, and its key is ``key``'s bound values
        restricted to those positions: one dict lookup per form.  Any
        arity qualifies, as a subset of positions.  Of several
        candidates, the most recently used answers.
        """
        pred, adornment, bound = key
        forms = self._forms.get(pred)
        if not forms:
            return None
        values = dict(bound)
        best = None
        for form in forms:
            if form == adornment:
                continue  # the same positions: only key itself, a miss
            positions = [i for i, a in enumerate(form) if a == "b"]
            if not all(i in values for i in positions):
                continue
            entry = self._entries.get(
                (pred, form, tuple([(i, values[i]) for i in positions]))
            )
            if entry is not None and (best is None or entry.used > best.used):
                best = entry
        return best

    @staticmethod
    def _analyze(
        query: Query,
    ) -> tuple[Key, Atom, Query, tuple[str, ...] | None]:
        """Key, match pattern, relaxed load query, and plain names.

        Ground arguments are evaluated to U-values (raising when one
        falls outside U — the query then has no answers); non-ground
        arguments relax to fresh distinct variables in the load query
        while the match pattern keeps them (preserving repeated
        variables and compound shapes for filtering).  The names are
        the variables in position order when every non-ground argument
        is a distinct variable (the query is *plain*), else None.
        """
        atom = query.atom
        bound: list[tuple[int, Term]] = []
        adornment: list[str] = []
        pattern_args: list[Term] = []
        relaxed_args: list[Term] = []
        names: list[str] | None = []
        for i, arg in enumerate(atom.args):
            if arg.is_ground():
                value = evaluate_ground(arg)
                bound.append((i, value))
                adornment.append("b")
                pattern_args.append(value)
                relaxed_args.append(value)
            else:
                adornment.append("f")
                pattern_args.append(arg)
                relaxed_args.append(Var(f"_Ans{i}"))
                if names is not None:
                    if isinstance(arg, Var) and arg.name not in names:
                        names.append(arg.name)
                    else:
                        names = None
        key: Key = (atom.pred, "".join(adornment), tuple(bound))
        return (
            key,
            Atom(atom.pred, tuple(pattern_args)),
            Query(Atom(atom.pred, tuple(relaxed_args))),
            None if names is None else tuple(names),
        )

    def _load(
        self, key: Key, relaxed: Query
    ) -> tuple[tuple[tuple[Term, ...], ...], int | None, str]:
        """Rows for the relaxed pattern, the version they reflect, and
        the lane that filled them (``"model"`` or ``"magic"``).

        A maintained model answers (a durable session's live database);
        magic only where there is none, for a bound IDB miss of an
        in-memory session, whose model may be large or infinite.
        """
        session = self._session
        if session is None:
            raise EvaluationError("AnswerCache.answers needs a bound session")
        store = getattr(session, "store", None)
        if store is not None:
            version = store.model.version
            return answer_rows(store.database, relaxed), version, "model"
        pred, adornment, _ = key
        if "b" in adornment and pred in session.program.idb_predicates():
            try:
                return tuple(session.on_demand_rows(relaxed)), None, "magic"
            except (MagicRewriteError, UnstableMagicEvaluationError) as exc:
                # magic does not apply here; the model always does
                reason = type(exc).__name__
                with self._mutex:
                    self.magic_fallbacks[reason] = (
                        self.magic_fallbacks.get(reason, 0) + 1
                    )
        return answer_rows(session.model().database, relaxed), None, "model"

    # -- invalidation ------------------------------------------------------

    def apply_invalidation(self, event: "Invalidation") -> int:
        """Drop entries the update behind ``event`` may have staled.

        Returns how many entries were dropped.  An entry survives when
        its support set misses the changed predicates, or when its
        version shows it was filled at or after the invalidating update.
        """
        with self._mutex:
            self.invalidation_events += 1
            self._epoch += 1
            if event.preds is None:  # wholesale: rules changed
                dropped = len(self._entries)
                self._entries.clear()
                self._forms.clear()
                self._support.clear()
                self._graph = None
                self._graph_program = None
                self.entries_invalidated += dropped
                return dropped
            changed = frozenset(event.preds)
            if not changed:
                return 0
            victims = [
                key
                for key, entry in self._entries.items()
                if not (
                    event.version is not None
                    and entry.version is not None
                    and entry.version >= event.version
                )
                and self._support_of(key[0]) & changed
            ]
            for key in victims:
                del self._entries[key]
                self._forget(key)
            self.entries_invalidated += len(victims)
            return len(victims)

    def _support_of(self, pred: str) -> frozenset[str]:
        """``pred`` plus everything it transitively depends on."""
        program = self._session.program if self._session is not None else None
        if program is not self._graph_program:
            self._graph_program = program
            self._support.clear()
            self._graph = (
                compile_program(program).graph if program is not None else None
            )
        support = self._support.get(pred)
        if support is None:
            # dependency edges run head -> body, so what pred reaches
            # is what its derivations can read.
            support = frozenset(reachable(self._graph or {}, (pred,)))
            self._support[pred] = support
        return support

    def clear(self) -> int:
        """Drop everything (counted as one wholesale invalidation)."""
        from repro.engine.maintain import Invalidation

        return self.apply_invalidation(Invalidation(preds=None, precise=False))

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """JSON-friendly counters for the ``stats`` op and benchmarks."""
        with self._mutex:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "subsumed": self.subsumed,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "memo_hits": self.memo_hits,
                "memo_bytes": sum(
                    len(memo.text)
                    for entry in self._entries.values()
                    for memo in entry.wire.values()
                ),
                "invalidation_events": self.invalidation_events,
                "entries_invalidated": self.entries_invalidated,
                "fills": dict(self.fills),
                "magic_fallbacks": dict(self.magic_fallbacks),
            }

    def __repr__(self) -> str:
        return (
            f"AnswerCache({len(self)} entries, {self.hits} hits, "
            f"{self.misses} misses)"
        )


__all__ = ["AnswerCache"]
