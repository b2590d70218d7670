"""Tabled top-down evaluation (QSQ/OLDT-style) for admissible programs.

Section 1 contrasts LDL with PROLOG's programmer-controlled top-down
execution; Section 6's magic sets make bottom-up evaluation simulate
exactly the goal-directed behaviour a top-down engine gets for free.
This module provides that missing baseline: a memoizing (tabling)
top-down evaluator, used to cross-validate the magic compiler and as a
comparison point in the benchmarks (experiment E12).

Design:

* a *subgoal* is ``(pred, key)`` where ``key`` fixes the ground
  arguments of the call and leaves the rest free (``None``);
* each subgoal owns a :class:`Table` of answers; recursive calls read
  partial tables and an outer driver re-runs the evaluation until no
  table grows (a simple, obviously-sound completeness rule instead of
  full OLDT completion detection);
* negation and grouping follow the stratified discipline: their
  sub-derivations live in strictly lower layers, so by the time a
  negative literal or a grouping body is needed, one recursive
  ``solve`` fully completes it (checked, not assumed);
* EDB facts are read straight from an indexed
  :class:`~repro.engine.database.Database`, canonicalized by the same
  :func:`~repro.engine.compiled.base_database` every evaluator uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.engine.builtins import solve_builtin
from repro.engine.compiled import base_database, compile_program
from repro.engine.context import EvalContext
from repro.engine.match import Binding, ground_atom, match_atom, match_term
from repro.errors import EvaluationError, NotInUniverseError
from repro.observe import Subscriber
from repro.names import is_builtin_predicate
from repro.program.rule import Atom, Literal, Program, Query, Rule
from repro.terms.term import GroupTerm, SetVal, Term, Var, evaluate_ground

SubgoalKey = tuple  # tuple[Term | None, ...]


@dataclass
class Table:
    """Memoized answers of one subgoal."""

    answers: set[tuple[Term, ...]] = field(default_factory=set)
    complete: bool = False


@dataclass
class TopDownStats:
    """Work counters: table count, answers, and rule applications."""

    subgoals: int = 0
    answers: int = 0
    rule_applications: int = 0
    driver_rounds: int = 0


class TopDownEvaluator:
    """Goal-directed evaluation of an admissible LDL1 program."""

    def __init__(
        self,
        program: Program,
        edb: Iterable[Atom] = (),
        hooks: Subscriber | None = None,
    ) -> None:
        compiled = compile_program(program)  # checked and admissible
        self.program = program
        self.layering = compiled.layering
        self._idb = compiled.idb
        self._db = base_database(program, edb)
        # body orders are planned per (rule, bound head vars) by the
        # compiled program — the outer loop re-runs rules many times
        # before tables quiesce.
        self._context = EvalContext(self._db, compiled.plans, hooks=hooks)
        self._tables: dict[tuple[str, SubgoalKey], Table] = {}
        self._active: set[tuple[str, SubgoalKey]] = set()
        self._grew = False
        # grouping-rule bodies must see *complete* sub-derivations,
        # otherwise a partial grouped set could be recorded as an answer.
        self._require_complete = False
        self.stats = TopDownStats()

    # -- public API -----------------------------------------------------

    def query(self, query: Query) -> list[Atom]:
        """All facts matching the query atom, goal-directed."""
        key = self._call_key(query.atom, {})
        self.solve(query.atom.pred, key)
        out = []
        for args in self._table(query.atom.pred, key).answers:
            for _ in match_atom(query.atom, args, {}):
                out.append(Atom(query.atom.pred, args))
                break
        return sorted(set(out), key=lambda a: a.sort_key())

    def answers(self, query: Query) -> list[Binding]:
        """Query-variable bindings, deterministic order."""
        bindings = []
        seen = set()
        for fact in self.query(query):
            for binding in match_atom(query.atom, fact.args, {}):
                frozen = frozenset(binding.items())
                if frozen not in seen:
                    seen.add(frozen)
                    bindings.append(binding)
        bindings.sort(
            key=lambda b: tuple(
                (name, value.sort_key()) for name, value in sorted(b.items())
            )
        )
        return bindings

    # -- tabling machinery -------------------------------------------------

    def _table(self, pred: str, key: SubgoalKey) -> Table:
        table = self._tables.get((pred, key))
        if table is None:
            table = Table()
            self._tables[(pred, key)] = table
            self.stats.subgoals += 1
            # the predicate's facts (program and EDB) are answers too
            bound = tuple(i for i, value in enumerate(key) if value is not None)
            for args in self._db.lookup(pred, bound, tuple(key[i] for i in bound)):
                if len(args) == len(key):
                    self._record(table, args)
        return table

    def solve(self, pred: str, key: SubgoalKey) -> Table:
        """Ensure the subgoal's table is complete; outer driver loop.

        Subgoal chains recurse proportionally to derivation depth
        (e.g. the length of a chain being closed), so the recursion
        limit is raised for the duration, scaled by the database size.
        """
        from repro.util import deep_recursion

        table = self._table(pred, key)
        if table.complete:
            return table
        estimated = 80 * (len(self._db) + len(self.program) * 10) + 10_000
        with deep_recursion(estimated):
            while True:
                self.stats.driver_rounds += 1
                self._grew = False
                self._expand(pred, key)
                if not self._grew:
                    break
        # global quiescence: every table created below is at fixpoint.
        for subgoal_table in self._tables.values():
            subgoal_table.complete = True
        return table

    def _expand(self, pred: str, key: SubgoalKey) -> None:
        """One evaluation pass over a subgoal (re-entrant, memoized)."""
        subgoal = (pred, key)
        if subgoal in self._active:
            return  # recursive hit: caller reads the partial table
        table = self._table(pred, key)
        if table.complete:
            return
        self._active.add(subgoal)
        try:
            for rule in self.program.rules_for(pred):
                if rule.is_fact():
                    continue  # recorded when the table was created
                if rule.is_grouping():
                    self._apply_grouping_rule(rule, key, table)
                else:
                    self._apply_rule(rule, key, table)
        finally:
            self._active.discard(subgoal)

    def _record(self, table: Table, args: tuple[Term, ...]) -> None:
        if args not in table.answers:
            table.answers.add(args)
            self.stats.answers += 1
            self._grew = True

    # -- rule application -------------------------------------------------

    def _head_bindings(self, rule: Rule, key: SubgoalKey) -> Iterator[Binding]:
        """Bindings unifying the rule head with the subgoal's bound args."""

        def recurse(i: int, binding: Binding) -> Iterator[Binding]:
            if i == len(key):
                yield binding
                return
            bound = key[i]
            if bound is None:
                yield from recurse(i + 1, binding)
                return
            for extended in match_term(rule.head.args[i], bound, binding):
                yield from recurse(i + 1, extended)

        yield from recurse(0, {})

    def _apply_rule(self, rule: Rule, key: SubgoalKey, table: Table) -> None:
        for head_binding in self._head_bindings(rule, key):
            plan = self._context.plan_for(
                rule, initially_bound=frozenset(head_binding)
            ).order
            for binding in self._body_bindings(rule.body, plan, head_binding):
                self.stats.rule_applications += 1
                fact = ground_atom(rule.head, binding)
                if fact is not None:
                    self._record(table, fact.args)

    def _apply_grouping_rule(
        self, rule: Rule, key: SubgoalKey, table: Table
    ) -> None:
        """Grouping per Section 3.2, restricted to the subgoal's key.

        The grouped argument can never be restricted (footnote 6), so
        the equivalence classes are formed over all body solutions
        compatible with the *other* bound head arguments.
        """
        positions = rule.head.group_positions()
        group_position = positions[0]
        inner = rule.head.args[group_position].inner
        if not isinstance(inner, Var):
            raise EvaluationError("compile LDL1.5 heads before evaluation")
        group_var = inner.name
        relaxed_key = tuple(
            None if i == group_position else bound for i, bound in enumerate(key)
        )
        other_terms = [
            (i, arg)
            for i, arg in enumerate(rule.head.args)
            if i != group_position
        ]
        groups: dict[tuple[Term, ...], set[Term]] = {}
        previous_mode = self._require_complete
        self._require_complete = True
        try:
            solutions: list[Binding] = []
            for head_binding in self._head_bindings(rule, relaxed_key):
                plan = self._context.plan_for(
                    rule, initially_bound=frozenset(head_binding)
                ).order
                solutions.extend(
                    self._body_bindings(rule.body, plan, head_binding)
                )
        finally:
            self._require_complete = previous_mode
        for binding in solutions:
            self.stats.rule_applications += 1
            try:
                group_key = tuple(
                    evaluate_ground(arg.substitute(binding))
                    for _, arg in other_terms
                )
                value = evaluate_ground(binding[group_var])
            except (NotInUniverseError, EvaluationError):
                continue
            groups.setdefault(group_key, set()).add(value)
        for group_key, values in groups.items():
            args: list[Term] = [None] * len(rule.head.args)  # type: ignore[list-item]
            for (i, _), value in zip(other_terms, group_key):
                args[i] = value
            args[group_position] = SetVal(values)
            fact_args = tuple(args)
            bound_group = key[group_position]
            if bound_group is not None and fact_args[group_position] != bound_group:
                continue
            self._record(table, fact_args)

    # -- body evaluation ---------------------------------------------------

    def _call_key(self, atom: Atom, binding: Binding) -> SubgoalKey:
        key: list[Term | None] = []
        for arg in atom.args:
            substituted = arg.substitute(binding)
            if substituted.is_ground() and not isinstance(substituted, GroupTerm):
                try:
                    key.append(evaluate_ground(substituted))
                except (NotInUniverseError, EvaluationError):
                    key.append(None)
            else:
                key.append(None)
        return tuple(key)

    def _body_bindings(
        self, body: tuple[Literal, ...], plan: tuple[int, ...], binding: Binding
    ) -> list[Binding]:
        # set-at-a-time: each literal extends the whole batch before
        # the next literal runs.  Eager
        # table reads are safe because the tabling driver iterates to
        # fixpoint — any pass-ordering difference is absorbed by _grew.
        batch: list[Binding] = [binding]
        for index in plan:
            lit = body[index]
            next_batch: list[Binding] = []
            for current in batch:
                next_batch.extend(self._solve_literal(lit, current))
            batch = next_batch
            if not batch:
                break
        return batch

    def _solve_literal(self, lit: Literal, binding: Binding) -> Iterator[Binding]:
        pred = lit.atom.pred
        if lit.negative:
            yield from self._solve_negative(lit, binding)
            return
        if is_builtin_predicate(pred):
            substituted = lit.atom.substitute(binding)
            yield from solve_builtin(substituted.pred, substituted.args, binding)
            return
        if pred in self._idb:
            key = self._call_key(lit.atom, binding)
            table = self._table(pred, key)
            if (
                self._require_complete
                and not table.complete
                and (pred, key) not in self._active
            ):
                # grouping-rule body: the top-level subgoal lives in a
                # strictly lower layer, so it can be fully evaluated now.
                # (Recursive re-entries *within* that completion read the
                # partial table; the completion driver iterates to
                # fixpoint, which is what makes the outer read complete.)
                self._expand_to_completion(pred, key)
            else:
                self._expand(pred, key)
            for args in list(table.answers):
                yield from match_atom(lit.atom, args, binding)
            return
        # EDB predicate: indexed lookup
        atom = lit.atom.substitute(binding)
        bound_positions = []
        key_parts = []
        for i, arg in enumerate(atom.args):
            if arg.is_ground():
                try:
                    key_parts.append(evaluate_ground(arg))
                    bound_positions.append(i)
                except (NotInUniverseError, EvaluationError):
                    return
        for args in self._db.lookup(pred, tuple(bound_positions), tuple(key_parts)):
            yield from match_atom(atom, args, binding)

    def _solve_negative(self, lit: Literal, binding: Binding) -> Iterator[Binding]:
        pred = lit.atom.pred
        if is_builtin_predicate(pred):
            substituted = lit.atom.substitute(binding)
            if not any(
                True
                for _ in solve_builtin(substituted.pred, substituted.args, binding)
            ):
                yield dict(binding)
            return
        fact = ground_atom(lit.atom, binding)
        if fact is None:
            return
        if pred in self._idb:
            key = self._call_key(lit.atom, binding)
            subgoal = (pred, key)
            table = self._table(pred, key)
            if not table.complete:
                if subgoal in self._active:
                    raise EvaluationError(
                        f"negative recursion through {pred!r} (not admissible)"
                    )
                # a lower layer: one full solve completes it
                self._expand_to_completion(pred, key)
            if fact.args not in table.answers:
                yield dict(binding)
            return
        if fact not in self._db:
            yield dict(binding)

    def _expand_to_completion(self, pred: str, key: SubgoalKey) -> None:
        """Fully evaluate a strictly-lower subgoal (for negation).

        Runs its own inner driver loop; sound because stratification
        guarantees the subgoal's derivations never depend on anything
        currently active in a higher layer.
        """
        while True:
            grew_before = self._grew
            self._grew = False
            self._expand(pred, key)
            grew_now = self._grew
            self._grew = grew_before or grew_now
            if not grew_now:
                break
        self._table(pred, key).complete = True


def evaluate_topdown(
    program: Program, query: Query, edb: Iterable[Atom] = ()
) -> tuple[list[Atom], TopDownStats]:
    """Convenience wrapper: answer a query top-down with tabling."""
    evaluator = TopDownEvaluator(program, edb=edb)
    answers = evaluator.query(query)
    return answers, evaluator.stats
