"""Naive and semi-naive fixpoint evaluation of non-grouping rules.

Implements the paper's ``R(M)`` operator (Section 3.2) for a set of
rules without head grouping: the naive strategy recomputes every rule
against the full database each iteration (the literal ``R_{i+1}(M)``
definition); the semi-naive strategy restricts one recursive body
occurrence per rule application to the facts newly derived in the
previous round, avoiding rediscovery.  Both reach the same fixpoint;
the benchmark suite quantifies the difference (experiment E1).

Rules are executed as compiled :class:`~repro.engine.plan.RulePlan`s
obtained through a shared :class:`~repro.engine.context.EvalContext`:
each (rule, delta-occurrence) pair is planned at most once per run, and
the "sized" planner re-plans only when the context's cardinality
snapshot changes between iterations (:meth:`EvalContext.refresh_sizes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine.context import EvalContext, ensure_context
from repro.engine.database import Database
from repro.engine.exec import RowBatch, derive_facts, derive_rows
from repro.engine.relation import encode_args
from repro.names import is_builtin_predicate
from repro.program.rule import Atom, Rule


@dataclass
class FixpointStats:
    """Work counters for one fixpoint run (feeds the benchmarks).

    ``rule_firings`` counts rule *applications* (one compiled plan
    executed against the database); ``facts_derived`` counts the new
    facts those applications contributed.  Both mean the same thing
    under every strategy, so traces and benchmarks compare like with
    like.
    """

    iterations: int = 0
    rule_firings: int = 0
    facts_derived: int = 0

    def merge(self, other: "FixpointStats") -> None:
        self.iterations += other.iterations
        self.rule_firings += other.rule_firings
        self.facts_derived += other.facts_derived


def occurrence_index(rules: Sequence[Rule]) -> list[tuple[Rule, int]]:
    """The (rule, body occurrence) pairs semi-naive rounds iterate:
    every positive non-builtin body literal of every rule."""
    index: list[tuple[Rule, int]] = []
    for rule in rules:
        for i, lit in enumerate(rule.body):
            if lit.positive and not is_builtin_predicate(lit.atom.pred):
                index.append((rule, i))
    return index


def _derive_any(ctx: EvalContext, db: Database, rule: Rule, plan, overrides=None):
    """One rule application, preferring the vectorized rows shape.

    Returns ``(dr, facts)`` — exactly one is non-None.  ``dr`` (a
    :class:`~repro.engine.exec.DerivedRows`) carries the emitted head
    ID rows for bulk insertion; ``facts`` is the per-Atom fallback.
    ``on_rule_fired`` counts are identical either way: the rows mode
    emits one row per would-be fact (it requires a fast head, which
    never drops bindings).
    """
    if ctx.timing:
        start = ctx.metrics.now()
        dr = derive_rows(
            db, plan, overrides=overrides, executor=ctx.executor,
            metrics=ctx.metrics,
        )
        facts = None
        if dr is None:
            facts = derive_facts(
                db, plan, overrides=overrides, executor=ctx.executor,
                metrics=ctx.metrics,
            )
        ctx.metrics.add_time("match", ctx.metrics.now() - start)
    else:
        dr = derive_rows(db, plan, overrides=overrides, executor=ctx.executor)
        facts = None
        if dr is None:
            facts = derive_facts(
                db, plan, overrides=overrides, executor=ctx.executor
            )
    if ctx.observing:
        count = len(dr.rows) if dr is not None else len(facts)
        ctx.hooks.on_rule_fired(rule, count)
    return dr, facts


def _derived_atom(pred: str, row, args) -> Atom:
    """A ground Atom for hooks/listeners, carrying its ID row so any
    later ``Database.add`` skips re-encoding."""
    fact = Atom(pred, args)
    fact._ground = True
    fact._row = row
    return fact


def _delta_extend_pairs(delta: dict, pred: str, arity: int, pairs) -> None:
    """Record bulk-inserted (row, args) pairs in a semi-naive delta.

    Vectorized entries are :class:`RowBatch`es (both lanes at once, so
    the next round's override source never re-encodes); an entry that
    already holds a plain args list (fallback-path facts) stays one.
    """
    entry = delta.get(pred)
    if entry is None:
        entry = RowBatch(pred, arity)
        delta[pred] = entry
    if type(entry) is RowBatch:
        entry.extend_pairs(pairs)
    else:
        entry.extend([args for _, args in pairs])


def _delta_append_fact(delta: dict, fact: Atom) -> None:
    """Record one fallback-path fact in a semi-naive delta, encoding it
    when the entry is a :class:`RowBatch` from an earlier bulk insert."""
    entry = delta.get(fact.pred)
    if entry is None:
        delta[fact.pred] = [fact.args]
    elif type(entry) is RowBatch:
        row = getattr(fact, "_row", None)
        if row is None:
            row = encode_args(fact.args)
        entry.add(row, fact.args)
    else:
        entry.append(fact.args)


def single_pass(
    db: Database,
    rules: Sequence[Rule],
    planner: str = "sized-once",
    context: EvalContext | None = None,
) -> FixpointStats:
    """Apply each rule exactly once.  Mutates ``db``.

    Complete (reaches the same result as a fixpoint) only when no rule
    reads a predicate any rule in ``rules`` defines — i.e. the rules of
    a non-recursive SCC whose lower components are already evaluated.
    The SCC scheduler calls this instead of a fixpoint, saving the
    second iteration a fixpoint needs just to observe emptiness.
    """
    ctx = ensure_context(context, db, planner)
    stats = FixpointStats(iterations=1)
    if ctx.sized:
        ctx.refresh_sizes()
    round_new = 0
    for rule in rules:
        dr, facts = _derive_any(ctx, db, rule, ctx.plan_for(rule))
        stats.rule_firings += 1
        if dr is not None:
            pairs = db.add_rows(dr.pred, dr.arity, dr.rows, dr.decode)
            stats.facts_derived += len(pairs)
            round_new += len(pairs)
            if ctx.observing:
                for row, args in pairs:
                    ctx.hooks.on_fact_derived(
                        _derived_atom(dr.pred, row, args), rule
                    )
        else:
            for fact in facts:
                if db.add(fact):
                    stats.facts_derived += 1
                    round_new += 1
                    if ctx.observing:
                        ctx.hooks.on_fact_derived(fact, rule)
    if ctx.observing:
        ctx.hooks.on_iteration(stats.iterations, round_new)
    return stats


def naive_fixpoint(
    db: Database,
    rules: Sequence[Rule],
    planner: str = "sized-once",
    context: EvalContext | None = None,
) -> FixpointStats:
    """Run all rules to fixpoint, naive strategy.  Mutates ``db``.

    ``planner="sized"`` reorders bodies by current relation
    cardinalities each iteration (experiment E15).
    """
    ctx = ensure_context(context, db, planner)
    stats = FixpointStats()
    while True:
        stats.iterations += 1
        if ctx.sized:
            ctx.refresh_sizes()
        # every rule evaluates against the same snapshot: batch the
        # derivations (with their deriving rule when hooks need it)
        # and add afterwards.
        new = 0
        pending = []
        for rule in rules:
            dr, facts = _derive_any(ctx, db, rule, ctx.plan_for(rule))
            stats.rule_firings += 1
            pending.append((rule, dr, facts))
        observing = ctx.observing
        add = db.add
        for rule, dr, facts in pending:
            if dr is not None:
                pairs = db.add_rows(dr.pred, dr.arity, dr.rows, dr.decode)
                new += len(pairs)
                if observing:
                    for row, args in pairs:
                        ctx.hooks.on_fact_derived(
                            _derived_atom(dr.pred, row, args), rule
                        )
            else:
                for fact in facts:
                    if add(fact):
                        new += 1
                        if observing:
                            ctx.hooks.on_fact_derived(fact, rule)
        stats.facts_derived += new
        if ctx.observing:
            ctx.hooks.on_iteration(stats.iterations, new)
        if not new:
            return stats


def seminaive_fixpoint(
    db: Database,
    rules: Sequence[Rule],
    planner: str = "sized-once",
    context: EvalContext | None = None,
) -> FixpointStats:
    """Run all rules to fixpoint, semi-naive strategy.  Mutates ``db``.

    Round 0 evaluates every rule against the full database; later
    rounds re-evaluate a rule once per positive body occurrence of a
    predicate that changed, with that occurrence restricted to the
    previous round's delta.
    """
    ctx = ensure_context(context, db, planner)
    stats = FixpointStats()

    stats.iterations += 1
    if ctx.sized:
        ctx.refresh_sizes()
    delta: dict[str, object] = {}
    round_new = 0
    for rule in rules:
        dr, facts = _derive_any(ctx, db, rule, ctx.plan_for(rule))
        stats.rule_firings += 1
        if dr is not None:
            pairs = db.add_rows(dr.pred, dr.arity, dr.rows, dr.decode)
            if pairs:
                stats.facts_derived += len(pairs)
                round_new += len(pairs)
                _delta_extend_pairs(delta, dr.pred, dr.arity, pairs)
                if ctx.observing:
                    for row, args in pairs:
                        ctx.hooks.on_fact_derived(
                            _derived_atom(dr.pred, row, args), rule
                        )
        else:
            for fact in facts:
                if db.add(fact):
                    stats.facts_derived += 1
                    round_new += 1
                    if ctx.observing:
                        ctx.hooks.on_fact_derived(fact, rule)
                    _delta_append_fact(delta, fact)
    if ctx.observing:
        ctx.hooks.on_iteration(stats.iterations, round_new)

    stats.merge(seminaive_rounds(db, rules, delta, planner=planner, context=ctx))
    return stats


def seminaive_rounds(
    db: Database,
    rules: Sequence[Rule],
    delta: dict[str, object],
    planner: str = "sized-once",
    context: EvalContext | None = None,
) -> FixpointStats:
    """Continue a semi-naive fixpoint from an explicit delta.

    ``db`` must already contain the delta's facts; only derivations
    using at least one delta fact are explored — the entry point for
    incremental insertion (:mod:`repro.engine.incremental`).  Delta
    values are plain argument-tuple lists or (from the vectorized
    round-0 path) :class:`RowBatch`es; both iterate as argument tuples
    for every executor, and the specialized lane reads a batch's ID
    rows directly.
    """
    ctx = ensure_context(context, db, planner)
    stats = FixpointStats()
    occurrences = occurrence_index(rules)

    while delta:
        stats.iterations += 1
        if ctx.sized:
            ctx.refresh_sizes()
        next_delta: dict[str, object] = {}
        round_new = 0
        for rule, occurrence in occurrences:
            pred = rule.body[occurrence].atom.pred
            changed = delta.get(pred)
            if not changed:
                continue
            plan = ctx.plan_for(rule, first=occurrence)
            dr, facts = _derive_any(
                ctx, db, rule, plan, overrides={occurrence: changed}
            )
            stats.rule_firings += 1
            if dr is not None:
                pairs = db.add_rows(dr.pred, dr.arity, dr.rows, dr.decode)
                if pairs:
                    stats.facts_derived += len(pairs)
                    round_new += len(pairs)
                    _delta_extend_pairs(next_delta, dr.pred, dr.arity, pairs)
                    if ctx.observing:
                        for row, args in pairs:
                            ctx.hooks.on_fact_derived(
                                _derived_atom(dr.pred, row, args), rule
                            )
            else:
                for fact in facts:
                    if db.add(fact):
                        stats.facts_derived += 1
                        round_new += 1
                        if ctx.observing:
                            ctx.hooks.on_fact_derived(fact, rule)
                        _delta_append_fact(next_delta, fact)
        if ctx.observing:
            ctx.hooks.on_iteration(stats.iterations, round_new)
        delta = next_delta
    return stats
