"""High-level session API for the LDL1 system.

:class:`LDL` is the facade a downstream user works with: load rules in
concrete syntax (LDL1 or LDL1.5), add facts from plain Python values,
and run queries under any evaluation strategy::

    from repro import LDL

    db = LDL('''
        ancestor(X, Y) <- parent(X, Y).
        ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
    ''')
    db.facts("parent", [("ann", "bob"), ("bob", "carl")])
    db.query("? ancestor(ann, X).")
    # [{'X': 'bob'}, {'X': 'carl'}]
    db.query("? ancestor(ann, X).", strategy="magic")  # same answers

Python values convert to terms (ints/floats/strs to constants,
(frozen)sets to set values, tuples to tuple terms) and back.

Durability: ``LDL(path="mydb")`` binds the session to a
:class:`repro.storage.DurableStore` directory.  Facts added through the
session are write-ahead-logged before the model is repaired, a restart
with the same rules restores the computed model from the last snapshot
without re-running the fixpoint, and ``ldl.checkpoint()`` compacts the
log into a fresh snapshot.

Observability: ``LDL(trace=True)`` attaches a
:class:`repro.observe.TraceRecorder` (available as :attr:`LDL.trace`)
that records every engine event — plans built, layers, iterations, rule
firings, facts derived; ``LDL(hooks=...)`` plugs in any subscriber to
:data:`repro.observe.EVENTS` and ``LDL(metrics=...)`` a
:class:`repro.observe.MetricsCollector`.  All of them are resolved into
one dispatcher that every evaluation the session runs reports to:
bottom-up, on-demand (magic), and the durable store's model, WAL and
snapshots.

Thread-safety: every state transition (loading rules, adding/removing
facts, computing or invalidating the cached model, checkpointing)
holds one reentrant session lock, so interleaved calls from several
threads never corrupt the session.  Pure reads of an already-computed
model run lock-free; callers that need reads to overlap *updates*
coherently should layer a reader-writer discipline on top, as
:class:`repro.server.LDLServer` does.
"""

from __future__ import annotations

import threading
from typing import Iterable, Literal as TypingLiteral, Sequence

from repro.engine.compiled import compile_program, load_base
from repro.engine.database import Database
from repro.engine.evaluator import EvaluationResult, evaluate
from repro.engine.maintain import Invalidation, validated_mode
from repro.errors import EvaluationError
from repro.magic.evaluate import MagicResult, PreparedQuery
from repro.observe import MetricsCollector, Subscriber, TraceRecorder, compose_hooks
from repro.parser.parser import parse_program, parse_query
from repro.program.rule import Atom, Program, Query, canonical_atom
from repro.program.wellformed import (
    check_arity_pairs,
    check_fact_arities,
    predicate_arities,
)
from repro.terms.term import Const, Func, SetVal, Term

Strategy = TypingLiteral["naive", "seminaive", "magic"]


def to_term(value) -> Term:
    """Convert a Python value to a ground LDL1 term.

    int/float/str become constants, (frozen)sets become set values,
    tuples become ``tuple(...)`` terms; terms pass through.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, (set, frozenset)):
        return SetVal(to_term(v) for v in value)
    if isinstance(value, tuple):
        # 1-tuples stay tuple terms so they round-trip through
        # from_term instead of unifying with their bare element.
        if not value:
            raise TypeError("empty tuples have no LDL1 term representation")
        return Func("tuple", tuple(to_term(v) for v in value))
    if isinstance(value, bool):
        raise TypeError("booleans are not LDL1 constants")
    if isinstance(value, (int, float, str)):
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to an LDL1 term")


def from_term(term: Term):
    """Convert a ground term back to a Python value.

    Constants unwrap to their payload, set values to frozensets, tuple
    terms to tuples; other compound terms stay as terms.
    """
    if isinstance(term, Const):
        return term.value
    if isinstance(term, SetVal):
        return frozenset(from_term(e) for e in term)
    if isinstance(term, Func) and term.functor == "tuple":
        return tuple(from_term(a) for a in term.args)
    return term


class LDL:
    """An LDL1 database session: rules + facts + query evaluation."""

    def __init__(
        self,
        source: str = "",
        ldl15: bool = False,
        alternative_semantics: bool = False,
        hooks: Subscriber | None = None,
        trace: bool = False,
        path: str | None = None,
        fsync: str = "always",
        compact_every: int = 1024,
        metrics: MetricsCollector | None = None,
        maintain: str = "delta",
    ) -> None:
        self._lock = threading.RLock()
        self._program = Program()
        self._lowered: Program | None = None  # LDL1.5 -> LDL1, per load
        self._arities: dict | None = None  # predicate_arities, per load
        self._edb: list[Atom] = []
        self._pending_queries: list[Query] = []
        self._ldl15 = ldl15
        self._alternative = alternative_semantics
        self._cached_result: EvaluationResult | None = None
        # in-memory sessions only: the base database on-demand (magic)
        # queries run over, rebuilt per EDB version (see _invalidate).
        # Their prepared forms live on the program's CompiledProgram.
        self._magic_base: Database | None = None
        self._trace: TraceRecorder | None = TraceRecorder() if trace else None
        self._metrics = metrics
        self._hooks = compose_hooks(hooks, self._trace, metrics)
        self._path = path
        self._fsync = fsync
        self._compact_every = compact_every
        # how the durable session's model absorbs updates: "delta"
        # (differential maintenance) or "recompute" (cone recompute).
        self._maintain = validated_mode(maintain)
        # invalidation listeners: registered on the durable model (and
        # re-registered whenever rules force it to reopen), notified
        # directly for in-memory updates and rule loads.
        self._delta_listeners: list = []
        self._store = None  # DurableStore, opened lazily
        if source:
            self.load(source)
        if path is not None:
            self._open_store()

    @property
    def trace(self) -> TraceRecorder | None:
        """The session's trace recorder (``LDL(trace=True)``), or None."""
        return self._trace

    @property
    def lock(self) -> threading.RLock:
        """The session's reentrant lock (exposed for coordinators)."""
        return self._lock

    # -- durability --------------------------------------------------------

    @property
    def store(self):
        """The session's :class:`~repro.storage.DurableStore`, or None."""
        return self._store

    def _open_store(self) -> None:
        from repro.storage.store import DurableStore

        buffered, self._edb = self._edb, []
        self._store = DurableStore(
            self.program,
            self._path,
            fsync=self._fsync,
            compact_every=self._compact_every,
            hooks=self._hooks,
            maintain=self._maintain,
        ).open()
        for listener in self._delta_listeners:
            self._store.model.add_delta_listener(listener)
        if buffered:
            self._store.add_facts(buffered)

    def _reopen_store(self) -> None:
        """Rules changed: reopen so the store recomputes under them."""
        self._store.close()
        self._store = None
        self._open_store()

    def checkpoint(self) -> int:
        """Snapshot the durable session's model and compact its WAL.

        Returns bytes written; raises when the session has no ``path``.
        """
        with self._lock:
            if self._store is None:
                raise EvaluationError(
                    "checkpoint() needs a durable session (path=...)"
                )
            return self._store.checkpoint()

    def close(self) -> None:
        """Release the durable store (no-op for in-memory sessions)."""
        with self._lock:
            if self._store is not None:
                self._store.close()
                self._store = None

    def __enter__(self) -> "LDL":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- building the database -------------------------------------------

    def load(self, source: str) -> "LDL":
        """Parse and append rules; queries in the source are stored and
        available via :meth:`run_pending_queries`.  When a base fact
        already given (buffered, or in the durable store) is of a
        predicate the new rules use with another arity, raises
        :class:`~repro.errors.WellFormednessError` and keeps the rules
        it had."""
        parsed = parse_program(source)
        with self._lock:
            program = self._program + parsed.program
            arities = predicate_arities(program)
            if self._store is not None:
                check_arity_pairs(arities, self._store.database.arities())
            else:
                check_fact_arities(arities, self._edb)
            self._program = program
            self._lowered = None
            self._arities = arities
            self._pending_queries.extend(parsed.queries)
            self._invalidate()
            if self._store is not None and len(parsed.program):
                self._reopen_store()
            if len(parsed.program):
                # rules changed (a new program, so a new compiled
                # program and fresh prepared forms): every cached
                # answer is suspect
                self._notify_delta(Invalidation(preds=None, precise=False))
        return self

    def fact(self, pred: str, *values) -> "LDL":
        """Add one fact from Python values: ``db.fact("parent", "a", "b")``."""
        return self.add_atoms([Atom(pred, tuple(to_term(v) for v in values))])

    def facts(self, pred: str, rows: Iterable[Sequence]) -> "LDL":
        """Add many facts: ``db.facts("edge", [(1, 2), (2, 3)])``."""
        return self.add_atoms(
            [Atom(pred, tuple(to_term(v) for v in row)) for row in rows]
        )

    def add_atoms(self, atoms: Iterable[Atom]) -> "LDL":
        """Add pre-built ground atoms (e.g. from a workload generator).

        In a durable session the batch is WAL-logged before the model
        is repaired, so it survives a crash as one atomic unit.  A fact
        of a predicate the rules use with another arity raises
        :class:`~repro.errors.WellFormednessError` before any of the
        batch is logged or added.
        """
        atoms = list(atoms)
        with self._lock:
            if self._arities is None:
                self._arities = predicate_arities(self._program)
            preds = check_fact_arities(self._arities, atoms)
            if self._store is not None:
                self._store.add_facts(atoms)
            else:
                self._edb.extend(atoms)
                self._notify_delta(
                    Invalidation(preds=frozenset(preds), precise=False)
                )
            self._invalidate()
        return self

    def remove(self, pred: str, *values) -> "LDL":
        """Delete one base fact: ``db.remove("parent", "a", "b")``."""
        return self.remove_atoms([Atom(pred, tuple(to_term(v) for v in values))])

    def remove_atoms(self, atoms: Iterable[Atom]) -> "LDL":
        """Delete base facts; unknown facts are ignored."""
        atoms = list(atoms)
        with self._lock:
            if self._store is not None:
                self._store.remove_facts(atoms)
            else:
                victims = {canonical_atom(a) for a in atoms}
                self._edb = [
                    a for a in self._edb if canonical_atom(a) not in victims
                ]
                self._notify_delta(
                    Invalidation(
                        preds=frozenset(a.pred for a in atoms), precise=False
                    )
                )
            self._invalidate()
        return self

    def _invalidate(self) -> None:
        self._cached_result = None
        self._magic_base = None

    @property
    def edb_size(self) -> int:
        """How many base facts the session currently holds."""
        with self._lock:
            if self._store is not None:
                return self._store.model.edb_size
            return len(self._edb)

    @property
    def pending_queries(self) -> tuple[Query, ...]:
        """Queries that arrived inside loaded sources, in order."""
        return tuple(self._pending_queries)

    @property
    def program(self) -> Program:
        """The loaded rules, compiled to base LDL1 if needed."""
        if self._ldl15:
            from repro.transform import compile_ldl15

            with self._lock:
                if self._lowered is None:
                    self._lowered = compile_ldl15(
                        self._program, alternative=self._alternative
                    )
                return self._lowered
        return self._program

    # -- evaluation --------------------------------------------------------

    def model(self, strategy: Strategy = "seminaive") -> EvaluationResult:
        """Compute (and cache) the standard minimal model.

        A durable session serves the store's incrementally maintained
        model (always current — the ``strategy`` only matters for
        in-memory evaluation).
        """
        if strategy == "magic":
            raise EvaluationError("magic evaluation is per-query; use query()")
        with self._lock:
            if self._store is not None:
                return EvaluationResult(
                    self._store.database,
                    self._store.model.layering,
                    [],
                    strategy,
                )
            if (
                self._cached_result is None
                or self._cached_result.strategy != strategy
            ):
                self._cached_result = evaluate(
                    self.program,
                    edb=self._edb,
                    strategy=strategy,
                    hooks=self._hooks,
                    metrics=self._metrics,
                )
            return self._cached_result

    def database(self, strategy: Strategy = "seminaive") -> Database:
        return self.model(strategy).database

    def query(
        self, text: str | Query, strategy: Strategy = "seminaive"
    ) -> list[dict]:
        """Answer a query; returns one dict of Python values per answer."""
        query = text if isinstance(text, Query) else parse_query(text)
        if strategy == "magic":
            bindings = self.query_magic(query).answers()
        else:
            bindings = self.model(strategy).answers(query)
        return [
            {name: from_term(value) for name, value in binding.items()}
            for binding in bindings
        ]

    def _on_demand(self, query: Query) -> tuple[PreparedQuery, Database]:
        """The prepared form of ``query`` and the base database to run
        it over: the durable model's live relations, or the in-memory
        EDB loaded once per EDB version.  Runs only read the base, so
        any number may share it (and the prepared form) concurrently."""
        with self._lock:
            program = self.program
            prepared = compile_program(program).prepare(query)
            if self._store is not None:
                return prepared, self._store.database
            if self._magic_base is None:
                self._magic_base = load_base(program, self._edb, self._hooks)
            return prepared, self._magic_base

    def query_magic(self, text: str | Query) -> MagicResult:
        """Answer a query by magic-sets rewriting; returns the full
        :class:`MagicResult` (database, stats, rewritten program)."""
        query = text if isinstance(text, Query) else parse_query(text)
        prepared, base = self._on_demand(query)
        return prepared.answer(query, base, hooks=self._hooks)

    def on_demand_rows(self, text: str | Query) -> tuple[tuple, ...]:
        """Answer rows for a query, computed on demand via magic sets.

        The population path of the server's
        :class:`~repro.server.cache.AnswerCache`: the sorted ground
        argument rows of the matching answer facts rather than variable
        bindings — rows for a relaxed pattern can answer any more-bound
        query later by re-matching, which bindings cannot.
        """
        query = text if isinstance(text, Query) else parse_query(text)
        prepared, base = self._on_demand(query)
        return prepared.rows(query, base, hooks=self._hooks)

    def add_delta_listener(self, listener) -> None:
        """Register ``listener(invalidation)`` for every state change.

        The listener receives an
        :class:`~repro.engine.maintain.Invalidation` after every
        completed update: precise version-stamped predicate sets from the
        durable model's delta maintenance, conservative predicate sets
        for in-memory updates, and a wholesale event (``preds=None``)
        when :meth:`load` changes the rules.  Registration survives the
        store reopening on rule changes.
        """
        with self._lock:
            self._delta_listeners.append(listener)
            if self._store is not None:
                self._store.model.add_delta_listener(listener)

    def _notify_delta(self, invalidation: Invalidation) -> None:
        for listener in self._delta_listeners:
            listener(invalidation)

    def run_pending_queries(self, strategy: Strategy = "seminaive"):
        """Answer every query that arrived via :meth:`load`, in order."""
        return [
            (query, self.query(query, strategy=strategy))
            for query in self._pending_queries
        ]

    def explain(self, fact_text: str, strategy: Strategy = "seminaive"):
        """A derivation tree for a fact of the model, or None.

        ``fact_text`` is a ground atom in concrete syntax, e.g.
        ``"ancestor(ann, carl)"``; see
        :class:`repro.engine.explain.Derivation`.
        """
        from repro.engine.explain import explain
        from repro.parser.parser import parse_atom

        atom = parse_atom(fact_text.rstrip(". \n"))
        fact = canonical_atom(atom)
        return explain(self.program, self.database(strategy), fact)

    def extension(self, pred: str, strategy: Strategy = "seminaive") -> list[tuple]:
        """The computed extension of one predicate as Python tuples."""
        db = self.database(strategy)
        return sorted(
            (tuple(from_term(a) for a in atom.args) for atom in db.atoms(pred)),
            key=repr,
        )

    def __repr__(self) -> str:
        facts = self.edb_size
        durable = f", durable at {self._path!r}" if self._path else ""
        return f"LDL({len(self._program)} rules, {facts} facts{durable})"
