"""Naive and semi-naive fixpoint evaluation of non-grouping rules.

Implements the paper's ``R(M)`` operator (Section 3.2) for a set of
rules without head grouping: the naive strategy recomputes every rule
against the full database each iteration (the literal ``R_{i+1}(M)``
definition); the semi-naive strategy restricts one recursive body
occurrence per rule application to the facts newly derived in the
previous round, avoiding rediscovery.  Both reach the same fixpoint;
the benchmark suite quantifies the difference (experiment E1).

A semi-naive round, round 0 included, installs each rule
application's derived *set*.  A projecting join (one head column
carried from its scanned relation, the other read from a relation the
component does not define, at most filtered by a ``!=`` between the
two) derives a key map, ``{carried value: candidate set}``, when its
scan repeats carried values, and so does a non-recursive rule copying
a binary relation's pairs, at most anti-joined on them (``recommend``;
see :func:`~repro.engine.exec.specialize.key_map_shape`).
:func:`single_pass` is round 0 without a delta, so the non-recursive
``candidate`` and ``recommend`` install per key too.  The naive
strategy asks for rows, as the literal ``R(M)`` baseline, and so does
the counting maintainer (:mod:`repro.engine.maintain`), whose support
counts need each derivation's multiplicity.  A binary relation is
stored as the same kind of map
(:class:`~repro.engine.relation.KeyMapRelation`), so the install
subtracts the stored values from each candidate set in place, and the
fresh per-key sets are the next round's delta: no row tuple is built
unless a ``fact_derived`` handler or a per-row plan asks for one.
Every other application installs its row multiset, deduplicated by
``Relation.add_rows``.

Rules are executed as compiled :class:`~repro.engine.plan.RulePlan`s
obtained through the run's :class:`~repro.engine.context.EvalContext`:
each (rule, delta-occurrence) pair is planned at most once, against the
cardinality snapshot the context refreshes once per iteration
(:meth:`EvalContext.refresh_sizes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import RowBatch, derive_rows
from repro.engine.relation import pairs_of
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


def _derive(
    ctx: EvalContext, db: Database, rule: Rule, plan, overrides=None,
    recursive=None,
):
    """One rule application: its head facts as a
    :class:`~repro.engine.exec.DerivedRows` batch, rows or (given the
    component's ``recursive`` predicates) a key map, reported to
    ``rule_fired`` with its derivation count."""
    on = ctx.on
    fired = on.rule_fired
    start = perf_counter() if fired is not None else 0.0
    dr = derive_rows(
        db, plan, overrides=overrides, steps=on.exec_steps, recursive=recursive,
    )
    if fired is not None:
        fired(rule=rule, derived=dr.count, seconds=perf_counter() - start)
    return dr


def _delta_batch(delta: dict, pred: str, arity: int) -> RowBatch:
    """The semi-naive delta's batch for ``pred``, created on first use."""
    entry = delta.get(pred)
    if entry is None:
        entry = delta[pred] = RowBatch(pred, arity)
    return entry


def install_keys(db: Database, dr) -> dict:
    """Install a key map's candidates into ``dr.pred``; returns the
    fresh pairs as ``{first: set(second)}``.  Per carried key, the
    candidate set minus the stored values is what is new, applied
    straight to the stored set
    (:meth:`~repro.engine.relation.KeyMapRelation.add_keys`)."""
    return db.add_keys(dr.pred, dr.keys, dr.carried)


def install_rows(
    ctx: EvalContext, db: Database, rule: Rule, dr, delta=None,
) -> int:
    """Bulk-add one rule application's facts to ``db``; returns how many
    were new.  New facts go into ``delta`` when given, and reach a
    ``fact_derived`` handler when there is one — rows decode for that
    alone.  A key map installs through :func:`install_keys`, and its
    fresh per-key sets are the delta as they are: row tuples are built
    only for a ``fact_derived`` handler."""
    if dr.keys is not None:
        keys = install_keys(db, dr)
        if not keys:
            return 0
        fresh = None
        count = sum(map(len, keys.values()))
    else:
        fresh = db.add_rows(dr.pred, dr.arity, dr.rows, dr.decode)
        count = len(fresh)
        if not count:
            return 0
    derived = ctx.on.fact_derived
    if derived is not None:
        args_of = db.get_relation(dr.pred).args_of
        for row in fresh if fresh is not None else pairs_of(keys):
            fact = Atom(dr.pred, args_of(row))
            fact._ground = True
            fact._row = row
            derived(fact=fact, rule=rule)
    if delta is not None:
        batch = _delta_batch(delta, dr.pred, dr.arity)
        if fresh is None:
            batch.extend_keys(keys)
        else:
            batch.extend(fresh, dr.decode)
    return count


def _round_zero(
    ctx: EvalContext, db: Database, rules: Sequence[Rule], delta,
) -> FixpointStats:
    """Apply each rule once against the full database, asking for key
    maps (``recursive`` is the rules' heads); new facts go into
    ``delta`` unless it is None."""
    stats = FixpointStats(iterations=1)
    ctx.refresh_sizes()
    recursive = frozenset(rule.head.pred for rule in rules)
    for rule in rules:
        dr = _derive(ctx, db, rule, ctx.plan_for(rule), recursive=recursive)
        stats.rule_firings += 1
        stats.facts_derived += install_rows(ctx, db, rule, dr, delta)
    if ctx.on.iteration is not None:
        ctx.on.iteration(
            iteration=stats.iterations, new_facts=stats.facts_derived
        )
    return stats


def single_pass(
    db: Database,
    rules: Sequence[Rule],
    context: EvalContext | None = None,
) -> FixpointStats:
    """Apply each rule exactly once.  Mutates ``db``.

    Complete (reaches the same result as a fixpoint) only when no rule
    reads a predicate any rule in ``rules`` defines — i.e. the rules of
    a non-recursive SCC whose lower components are already evaluated.
    The SCC scheduler calls this instead of a fixpoint, saving the
    second iteration a fixpoint needs just to observe emptiness.  It is
    the semi-naive fixpoint's round 0, without a delta.
    """
    return _round_zero(context or EvalContext(db), db, rules, None)


def naive_fixpoint(
    db: Database,
    rules: Sequence[Rule],
    context: EvalContext | None = None,
) -> FixpointStats:
    """Run all rules to fixpoint, naive strategy.  Mutates ``db``."""
    ctx = context or EvalContext(db)
    stats = FixpointStats()
    while True:
        stats.iterations += 1
        ctx.refresh_sizes()
        # every rule evaluates against the same snapshot: batch the
        # derivations (with their deriving rule when hooks need it)
        # and add afterwards.
        pending = []
        for rule in rules:
            pending.append((rule, _derive(ctx, db, rule, ctx.plan_for(rule))))
            stats.rule_firings += 1
        new = sum(install_rows(ctx, db, rule, dr) for rule, dr in pending)
        stats.facts_derived += new
        if ctx.on.iteration is not None:
            ctx.on.iteration(iteration=stats.iterations, new_facts=new)
        if not new:
            return stats


def seminaive_fixpoint(
    db: Database,
    rules: Sequence[Rule],
    context: EvalContext | None = None,
) -> FixpointStats:
    """Run all rules to fixpoint, semi-naive strategy.  Mutates ``db``.

    Round 0 evaluates every rule against the full database, as
    :func:`single_pass` does, and its new facts are the first delta;
    later rounds re-evaluate a rule once per positive body occurrence
    of a predicate that changed, with that occurrence restricted to
    the previous round's delta.
    """
    ctx = context or EvalContext(db)
    delta: dict[str, object] = {}
    stats = _round_zero(ctx, db, rules, delta)
    stats.merge(seminaive_rounds(db, rules, delta, context=ctx))
    return stats


def seminaive_rounds(
    db: Database,
    rules: Sequence[Rule],
    delta: dict[str, object],
    context: EvalContext | None = None,
) -> FixpointStats:
    """Continue a semi-naive fixpoint from an explicit delta.

    ``db`` must already contain the delta's facts; only derivations
    using at least one delta fact are explored — the entry point for
    incremental insertion (:mod:`repro.engine.incremental`).  Delta
    values are plain argument-tuple lists or :class:`RowBatch`es (what
    every later round builds); the compiled lane encodes a list once
    and reads a batch's ID rows directly.

    A projecting join's application may come as a key map (see
    :func:`~repro.engine.exec.derive_rows`); it installs through
    :func:`install_keys`, and its fresh sets are the next delta.
    """
    ctx = context or EvalContext(db)
    stats = FixpointStats()
    occurrences = occurrence_index(rules)
    recursive = frozenset(rule.head.pred for rule in rules)

    while delta:
        stats.iterations += 1
        ctx.refresh_sizes()
        next_delta: dict[str, object] = {}
        round_new = 0
        for rule, occurrence in occurrences:
            pred = rule.body[occurrence].atom.pred
            changed = delta.get(pred)
            if not changed:
                continue
            plan = ctx.plan_for(rule, first=occurrence)
            dr = _derive(
                ctx, db, rule, plan, {occurrence: changed}, recursive
            )
            stats.rule_firings += 1
            round_new += install_rows(ctx, db, rule, dr, next_delta)
        stats.facts_derived += round_new
        if ctx.on.iteration is not None:
            ctx.on.iteration(iteration=stats.iterations, new_facts=round_new)
        delta = next_delta
    return stats
