"""One compiled program per load: everything that depends on the rules alone.

By Theorem 2 the minimal model does not depend on which layering is
chosen, so the checked rules, the canonical layering, the per-layer SCC
schedule and the rule plans are functions of the program alone.  A
:class:`CompiledProgram` holds them, built once by
:func:`compile_program` and memoized on the :class:`Program` instance,
and every consumer — :func:`~repro.engine.evaluator.evaluate`, the
incremental model, the durable store's fingerprint, prepared magic
queries, the top-down evaluator, ``explain`` and the CLI — reads the
same object instead of re-running ``check_program`` → ``stratify`` →
``condense_program`` → planning.  LDL++ compiles rules and query forms
before it runs them for the same reason.

Per-run state (the database, hooks, metrics and live sizes)
lives in :class:`~repro.engine.context.EvalContext`; its plans come
from :attr:`CompiledProgram.plans`.

:func:`base_database` builds the "program facts plus canonical EDB"
that every evaluation path starts from, with the database's bulk loader.
"""

from __future__ import annotations

import time
import weakref
from itertools import chain
from typing import Iterable

from repro.engine.database import Database
from repro.engine.fixpoint import closure_shape
from repro.engine.plan import PlanCache
from repro.errors import EvaluationError
from repro.observe import Dispatcher
from repro.program.dependency import (
    SCCComponent,
    dependency_graph,
    scc_schedule,
    strongly_connected,
)
from repro.program.rule import Atom, Program, Query, canonical_atom
from repro.program.stratify import stratify
from repro.program.wellformed import (
    check_arity_pairs,
    check_program,
    predicate_arities,
)


def program_facts(program: Program) -> tuple[Atom, ...]:
    """The program's own facts as canonical U-facts."""
    facts = []
    for rule in program.facts():
        try:
            facts.append(canonical_atom(rule.head))
        except EvaluationError as exc:
            raise EvaluationError(
                f"fact {rule.head!r} does not denote a U-fact: {exc}"
            ) from exc
    return tuple(facts)


def base_database(program: Program, edb: Iterable[Atom] = ()) -> Database:
    """The program's own facts plus the canonicalized ``edb``.

    Every path that evaluates over base facts starts here, so a fact
    spelled ``p(1 + 1)`` is ``p(2)`` to all of them.  Program facts go
    first, as in the incremental model and so in every durable session:
    when a program fact and an EDB fact differ only in spelling (``'a'``
    vs ``a``), the program's spelling is the one every session prints.
    The EDB is loaded in ID space, one row batch per predicate
    (:func:`~repro.engine.database.fact_batches`), with no atom built
    per fact.  A loaded predicate the rules use with another arity
    raises :class:`~repro.errors.WellFormednessError`: the check reads
    one arity per relation, not the facts.
    """
    db = Database(chain(program_facts(program), edb))
    check_arity_pairs(predicate_arities(program), db.arities())
    return db


def load_base(program: Program, edb: Iterable[Atom], on: Dispatcher) -> Database:
    """:func:`base_database`, reported to ``on`` as one ``edb_load``
    event when a subscriber listens."""
    if on.edb_load is None:
        return base_database(program, edb)
    start = time.perf_counter()
    db = base_database(program, edb)
    on.edb_load(facts=len(db), seconds=time.perf_counter() - start)
    return db


def mark_closures(
    schedule: Iterable[Iterable[SCCComponent]],
) -> tuple[tuple[SCCComponent, ...], ...]:
    """``schedule`` with every recursive component's ``closure`` set to
    its :func:`~repro.engine.fixpoint.closure_shape`: the components
    the semi-naive strategy evaluates by reachability."""
    return tuple(
        tuple(
            component._replace(closure=closure_shape(component))
            if component.recursive else component
            for component in layer
        )
        for layer in schedule
    )


class CompiledProgram:
    """A checked, layered, scheduled program plus its plan cache.

    Immutable after construction except for its memos, each filled on
    first use: the :attr:`fingerprint`, the prepared query forms of
    :meth:`prepare`, and :attr:`plans` (dropped wholesale when the
    intern table is cleared, since specialized plans bake in dense IDs).
    """

    __slots__ = (
        "rules", "_program", "graph", "components", "layering", "schedule",
        "idb", "plans", "_fingerprint", "_prepared",
    )

    def __init__(self, program: Program) -> None:
        check_program(program)
        self.rules = program.rules
        # weak: the program holds this object, and a strong reference
        # back would make every compile cyclic garbage.
        self._program = weakref.ref(program)
        #: the predicate dependency graph (Section 3.1's >= / > edges).
        self.graph = dependency_graph(program)
        #: its SCCs, bottom-up: the one SCC pass of this compile.
        self.components = strongly_connected(self.graph)
        #: the canonical (least-index) layering; raises when the
        #: program is not admissible.
        self.layering = stratify(program, self.graph, self.components)
        #: per layer, its SCCs in dependency order, each linear
        #: closure marked with its shape.
        self.schedule = mark_closures(
            scc_schedule(program, self.layering, self.graph, self.components)
        )
        self.idb = program.idb_predicates()
        #: compiled rule plans, shared by every run of this program.
        self.plans = PlanCache()
        self._fingerprint: str | None = None
        self._prepared: dict[tuple, object] = {}

    @property
    def program(self) -> Program:
        """The compiled program; once it is gone, a program of the same
        rules whose compile is this one."""
        program = self._program()
        if program is None:
            program = Program(self.rules)
            program._compiled = self
            self._program = weakref.ref(program)
        return program

    @property
    def fingerprint(self) -> str:
        """The snapshot fingerprint of the rules and their layering."""
        if self._fingerprint is None:
            from repro.storage.snapshot import program_fingerprint

            self._fingerprint = program_fingerprint(self.program, self.layering)
        return self._fingerprint

    def prepare(self, query: Query, rewrite=None):
        """The :class:`~repro.magic.evaluate.PreparedQuery` of
        ``query``'s form, built once per (rewrite, predicate, effective
        adornment) — Section 6 makes the rewrite a function of those
        alone.  ``rewrite`` defaults to Generalized Magic Sets."""
        from repro.magic.adornment import effective_adornment
        from repro.magic.evaluate import PreparedQuery
        from repro.magic.rewrite import magic_rewrite

        if rewrite is None:
            rewrite = magic_rewrite
        program = self.program
        key = (rewrite, query.atom.pred, effective_adornment(program, query))
        prepared = self._prepared.get(key)
        if prepared is None:
            prepared = self._prepared[key] = PreparedQuery(
                program, query, rewrite=rewrite
            )
        return prepared

    def __repr__(self) -> str:
        return (
            f"CompiledProgram({len(self.rules)} rules, "
            f"{len(self.layering)} layers)"
        )


def compile_program(program: Program) -> CompiledProgram:
    """The program's :class:`CompiledProgram`, built on first use.

    Memoized on the instance: a :class:`Program` is immutable, and
    every load builds a new one, so the memo can never go stale.
    """
    compiled = program._compiled
    if compiled is None:
        compiled = program._compiled = CompiledProgram(program)
    return compiled
