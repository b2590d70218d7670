"""Differential maintenance: support counting and DRed on ID rows.

The :class:`DeltaMaintainer` repairs a materialized
:class:`~repro.engine.incremental.IncrementalModel` by propagating the
*change* of an update through the SCC schedule instead of re-deriving
the affected cone:

* **non-recursive SCCs** carry per-rule derivation counts (and per-fact
  aggregate support), keyed by ID row: an update adjusts counts by
  running each changed body occurrence against the delta, and only
  support transitions through zero touch the database;
* **recursive SCCs** run DRed (delete–rederive): deletions are
  over-propagated through the component's rules, every overdeleted
  fact is checked for an alternative derivation from the surviving
  facts, and insertions — including the facts a deletion below *adds*
  above a negation — propagate semi-naively from the seeds;
* **grouping heads** keep a multiset of grouped value IDs per key, so
  an update regroups only the keys its delta actually touched.

The whole update runs in ID space, like evaluation: deltas, condemned
sets and frontiers are per-predicate :class:`RowBatch` ID rows, every
rule application is one :func:`~repro.engine.exec.derive_rows` call
(grouping bodies go through the same pre-group rows as
:func:`~repro.engine.grouping.grouped_rows`), and the database is
written per predicate with ``add_rows``/``discard_rows``.  No atom is
built per maintained fact: a deleted row's spelling is read before it
is discarded, and the published :class:`DeltaBatch` decodes its atoms
only when a reader asks.

Change arithmetic uses the standard telescoping decomposition: for a
rule with changed positive occurrences ``o1 < o2 < ... < ok``,

    new(body) - old(body) = sum_j  old(o1..o_{j-1}) * delta(o_j) * new(o_{j+1}..)

so each rule application pins one occurrence to the inserted (count
+1) or deleted (count -1) rows, overrides every *earlier* changed
occurrence to its old extension, and lets the later ones read the
already-updated database.  A rule whose *negated* predicates changed is
non-monotone in the delta and is recounted (or its groups rebuilt)
outright — negation is always on strictly lower, already-final
predicates, so one pass suffices.

For DRed the deletions of the strata below are temporarily *restored*
before seeding, which puts every lower predicate at ``old ∪ Δ+``:
overdeletion then never misses an old derivation through a positive
occurrence, and the derivations destroyed by a *negated* predicate
gaining facts are seeded explicitly by flipping the negated literal to
a positive occurrence over Δ+ while the remaining negations read an
old-state overlay.  Overdeletion may condemn too much (that is DRed);
the rederive pass and the insertion propagation run against the final
new state and reinstate everything still derivable.

A *cost gate* bounds DRed: past :data:`GATE_FRACTION` of the extension
condemned, the component is instead re-derived from its (final) lower
strata in private overlay relations — by Theorem 1 one fixpoint — and
only the net difference is applied to the live relations.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from itertools import filterfalse
from time import perf_counter
from typing import Iterable

from repro.engine.database import Database, fact_batches
from repro.engine.evaluator import evaluate_component
from repro.engine.exec import RowBatch, derive_rows, enumerate_bindings
from repro.engine.grouping import group_layout, group_spec, pre_group_rows
from repro.engine.incremental import IncrementalModel, UpdateStats
from repro.engine.maintain import DeltaBatch
from repro.engine.match import match_atom
from repro.engine.relation import (
    Relation,
    decode_row,
    encode_args,
    spelled_decoder,
)
from repro.names import is_builtin_predicate
from repro.program.dependency import SCCComponent
from repro.program.rule import Atom, Literal, Rule
from repro.terms.term import _ID_TABLE, set_rid

#: per-predicate row deltas accumulated while walking the schedule.
Deltas = dict[str, RowBatch]

#: The DRed cost gate: past this fraction of a recursive component's
#: extension condemned, overdeletion stops and the component is
#: re-derived.  DRed condemning ~all of it cost 9.35 recomputes on the
#: ledger probe (``maintain.delete_over_recompute_ratio``): break-even
#: near 1/9, rounded up since the condemning is paid either way.
GATE_FRACTION = 1 / 8

#: Floor on the extension the budget is a fraction of: tiny components
#: keep DRed, which is cheaper there than the recompute's fixed cost.
GATE_MIN_EXTENSION = 32


class _OverBudget(Exception):
    """Overdeletion condemned past the cost gate's budget."""


def _flip(rule: Rule, occurrence: int) -> Rule:
    """``rule`` with the negative literal at ``occurrence`` made
    positive — the seed rule for derivations a negated predicate's
    delta destroys (overdelete) or enables (insert)."""
    body = list(rule.body)
    body[occurrence] = Literal(body[occurrence].atom, True)
    return Rule(rule.head, tuple(body))


def _note(spell: dict, dr) -> None:
    """Record in ``spell`` how ``dr`` spells each row it derives, when
    its decoder spells any (the first derivation of a row wins)."""
    decode = dr.decode
    if decode is not None:
        for row in dr.rows:
            if row not in spell:
                spell[row] = decode(row)


def _discard(rel: Relation, rows) -> RowBatch:
    """Remove ``rows`` from ``rel``: the batch of those it held, spelled
    as it held them."""
    spelled = rel.spellings_of(rows)
    return RowBatch(rel.pred, rel.arity, rel.discard_rows(rows), spelled)


def _add(db: Database, pred: str, arity: int, rows, decode) -> RowBatch:
    """Add ``rows`` to ``pred``: the batch of those that were new,
    spelled as stored."""
    fresh = db.add_rows(pred, arity, rows, decode)
    spelled = db.relation(pred).spellings_of(fresh) if fresh else {}
    return RowBatch(pred, arity, fresh, spelled)


def _add_facts(db: Database, facts: Iterable[Atom]) -> Deltas:
    """Add ground facts in one batch per predicate: the rows that were
    new."""
    out: Deltas = {}
    for pred, (arity, rows, spellings) in fact_batches(facts).items():
        batch = _add(db, pred, arity, rows, spelled_decoder(spellings))
        if batch:
            out[pred] = batch
    return out


class _GroupState:
    """The live grouping state of one grouping rule, in ID space: a
    multiset of grouped value IDs per key (a model build groups into
    sets, which cannot be decremented) plus the row of the fact
    currently standing for each key.  Keys and rows follow
    :func:`~repro.engine.grouping.group_layout`.

    Multiplicities are exact binding counts.  Within one update the
    telescoping terms may take a count below zero before a later term
    restores it, so a count is dropped only at exactly zero."""

    __slots__ = ("position", "key_of", "row_of", "buckets", "rows")

    def __init__(self, rule: Rule) -> None:
        self.position, _var = group_spec(rule)
        self.key_of, self.row_of = group_layout(
            len(rule.head.args), self.position
        )
        # key -> {grouped value ID -> nonzero multiplicity}
        self.buckets: dict = {}
        # key -> the row of the fact currently standing for that group
        self.rows: dict = {}

    def accumulate(self, dr, sign: int, first: dict) -> set:
        """Add ``sign`` to the multiplicity of each pre-group row's
        grouped value; returns the touched keys.  When ``dr`` spells
        its rows, ``first`` keeps each key's first spelled row."""
        buckets = self.buckets
        key_of = self.key_of
        position = self.position
        decode = dr.decode
        touched = set()
        for row in dr.rows:
            key = key_of(row)
            if decode is not None and key not in first:
                first[key] = decode(row)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {}
            value = row[position]
            n = bucket.get(value, 0) + sign
            if n:
                bucket[value] = n
            else:
                del bucket[value]
                if not bucket:
                    del buckets[key]
            touched.add(key)
        return touched

    def regroup(self, key, first: dict, spell: dict):
        """The row of the fact now standing for ``key``, or None when
        its group emptied (an empty class contributes nothing).  The
        key slots are spelled as ``first`` holds them, into ``spell``."""
        bucket = self.buckets.get(key)
        if not bucket:
            return None
        set_id = set_rid(bucket)
        row = self.row_of(key, set_id)
        args = first.get(key)
        if args is not None:
            args = list(args)
            args[self.position] = _ID_TABLE[set_id]
            spell[row] = tuple(args)
        return row


class DeltaMaintainer:
    """Support-counting + DRed state for one :class:`IncrementalModel`.

    The maintainer is created lazily on the first maintained update and
    initializes each SCC's support state the first time the component
    falls inside an update's affected cone — always over the
    *pre-update* database, before any EDB mutation lands.  A cone
    recompute (mode switch) discards the maintainer wholesale; counts
    are never repaired after a non-differential path touched the model.
    """

    def __init__(self, model: IncrementalModel) -> None:
        # a proxy, not the model: the model holds its maintainer, and
        # a strong back-reference would make the pair a cycle that only
        # a full collection frees, database and support counts with it.
        self._model = weakref.proxy(model)
        self._ready: set[frozenset[str]] = set()
        # non-grouping rule -> {head row -> derivation count}
        self._counts: dict[Rule, dict[tuple, int]] = {}
        # per predicate of a counting SCC: {row -> total support}
        self._agg: dict[str, dict[tuple, int]] = {}
        # grouping rule -> live group state (counting and DRed alike)
        self._groups: dict[Rule, _GroupState] = {}
        # per-update cache of old extensions (valid once a predicate's
        # own component has finished; reset by every ``apply``)
        self._old_cache: dict[str, RowBatch] = {}

    # -- entry point -------------------------------------------------------

    def apply(
        self,
        added: Iterable[Atom],
        removed: Iterable[Atom],
        lsn: int | None = None,
    ) -> tuple[UpdateStats, DeltaBatch]:
        """Absorb one EDB update differentially.

        ``added``/``removed`` are canonical base facts the model already
        validated (new w.r.t. / present in the EDB respectively).
        Returns the update's cost counters and the net fact delta of
        the whole model, stamped with ``lsn``.
        """
        model = self._model
        db = model.database
        added = list(added)
        removed = list(removed)
        changed = {a.pred for a in added} | {a.pred for a in removed}
        cone = model._affected_cone(changed)
        stats = UpdateStats(
            mode="maintain", affected_predicates=len(cone), lsn=lsn
        )
        # Support state must snapshot the PRE-update database: initialize
        # every cone component that has never been maintained before any
        # EDB mutation lands.
        for layer in model._schedule:
            for component in layer:
                if component.preds & cone and component.preds not in self._ready:
                    self._init_component(component)
        plus = _add_facts(db, added)
        minus: Deltas = {}
        for pred, (_arity, rows, _spelled) in fact_batches(removed).items():
            batch = _discard(db.relation(pred), rows)
            if batch:
                minus[pred] = batch
        self._old_cache = {}
        for component in self._cone_components(cone):
            if not self._touched(component, plus, minus):
                continue
            if component.recursive:
                self._maintain_recursive(component, plus, minus, stats)
            else:
                self._maintain_counting(component, plus, minus, stats)
        batch = DeltaBatch(
            lsn=lsn, mode="delta", inserted_rows=plus, deleted_rows=minus
        )
        return stats, batch

    # -- schedule walking --------------------------------------------------

    def _cone_components(self, cone: set[str]):
        for layer in self._model._schedule:
            for component in layer:
                if component.preds & cone:
                    yield component

    @staticmethod
    def _touched(component: SCCComponent, plus: Deltas, minus: Deltas) -> bool:
        """Did anything this component reads actually change?  Being in
        the cone only means reachability; a delta that fizzled below
        leaves the component's extension (and its counts) untouched."""
        return any(
            (lit.atom.pred in plus or lit.atom.pred in minus)
            and not is_builtin_predicate(lit.atom.pred)
            for rule in component.rules
            for lit in rule.body
        )

    def _init_component(self, component: SCCComponent) -> None:
        """Snapshot the component's support state from the current
        (pre-update) database."""
        model = self._model
        ctx = model._context
        for rule in component.rules:
            if rule.is_grouping():
                self._groups[rule] = self._build_group_state(rule, {}, {})
            elif not component.recursive:
                self._counts[rule] = Counter(
                    self._run(rule, ctx.plan_for(rule)).rows
                )
        if not component.recursive:
            # single predicate by construction (no self-loop): aggregate
            # support is the sum over rules, one per current group fact,
            # plus one that never goes away per program fact.
            agg = Counter(
                encode_args(fact.args)
                for fact in model.program_facts_of(component.preds)
            )
            for rule in component.rules:
                if rule.is_grouping():
                    agg.update(self._groups[rule].rows.values())
                else:
                    agg.update(self._counts[rule])
            (pred,) = component.preds
            self._agg[pred] = agg
        self._ready.add(component.preds)

    # -- shared executor plumbing ------------------------------------------

    def _overrides(self, occurrence, delta, base):
        """The override map pinning the ``delta`` batch at
        ``occurrence`` over the ``base`` old-extension batches, with a
        ``maintain_dispatch`` for the delta rows it consumes."""
        if delta is None:
            return None
        handler = self._model._context.on.maintain_dispatch
        if handler is not None and delta.rows:
            handler(rows=len(delta.rows))
        overrides = dict(base) if base else {}
        overrides[occurrence] = delta
        return overrides

    def _run(
        self, rule, plan, occurrence=None, delta=None, base=None,
        negation_db=None,
    ):
        """One rule application through ``derive_rows``, with the
        context's event conventions."""
        on = self._model._context.on
        fired = on.rule_fired
        start = perf_counter() if fired is not None else 0.0
        derived = derive_rows(
            self._model.database, plan,
            overrides=self._overrides(occurrence, delta, base),
            negation_db=negation_db, steps=on.exec_steps,
        )
        if fired is not None:
            seconds = perf_counter() - start
            fired(rule=rule, derived=len(derived.rows), seconds=seconds)
        return derived

    def _pre_group(self, rule, plan, occurrence=None, delta=None, base=None):
        """One grouping-rule application: its pre-group head rows."""
        return pre_group_rows(
            rule, self._model.database, plan,
            self._model._context.on.exec_steps,
            self._overrides(occurrence, delta, base),
        )

    def _terms(self, rule: Rule, plus: Deltas, minus: Deltas):
        """The telescoping terms of ``rule``'s change, in order:
        ``(plan, occurrence, delta, sign, base)`` for each changed
        positive occurrence and direction, with ``base`` the earlier
        changed occurrences at their old extensions."""
        ctx = self._model._context
        base: dict[int, RowBatch] = {}
        for occurrence, body_pred in self._changed_occurrences(
            rule, plus, minus
        ):
            plan = ctx.plan_for(rule, first=occurrence)
            for delta, sign in ((plus.get(body_pred), 1), (minus.get(body_pred), -1)):
                if delta:
                    yield plan, occurrence, delta, sign, base
            # later terms see this occurrence at its old extension;
            # unchanged ones read the database.
            base = {**base, occurrence: self._old_rows(body_pred, plus, minus)}

    def _old_rows(self, pred: str, plus: Deltas, minus: Deltas) -> RowBatch:
        """The predicate's pre-update extension, reconstructed from the
        new state and its (final) delta.  Only valid for predicates
        whose own component already finished — the schedule order
        guarantees every caller's inputs are."""
        cached = self._old_cache.get(pred)
        if cached is None:
            rel = self._model.database.relation(pred)
            rows = list(rel.id_rows())
            if pred in plus:
                rows = list(filterfalse(set(plus[pred].rows).__contains__, rows))
            if pred in minus:
                rows.extend(minus[pred].rows)
            cached = self._old_cache[pred] = RowBatch(pred, rel.arity, rows)
        return cached

    @staticmethod
    def _changed_occurrences(rule: Rule, plus: Deltas, minus: Deltas):
        return [
            (i, lit.atom.pred)
            for i, lit in enumerate(rule.body)
            if lit.positive
            and not is_builtin_predicate(lit.atom.pred)
            and (lit.atom.pred in plus or lit.atom.pred in minus)
        ]

    @staticmethod
    def _negation_changed(rule: Rule, plus: Deltas, minus: Deltas) -> bool:
        return any(
            not lit.positive
            and not is_builtin_predicate(lit.atom.pred)
            and (lit.atom.pred in plus or lit.atom.pred in minus)
            for lit in rule.body
        )

    # -- counting SCCs -----------------------------------------------------

    def _maintain_counting(
        self, component: SCCComponent, plus: Deltas, minus: Deltas,
        stats: UpdateStats,
    ) -> None:
        db = self._model.database
        (pred,) = component.preds
        signed: dict[tuple, int] = {}
        spell: dict = {}
        for rule in component.rules:
            if rule.is_grouping():
                removed, added = self._group_delta(rule, plus, minus, spell, stats)
                for row in removed:
                    signed[row] = signed.get(row, 0) - 1
                for row in added:
                    signed[row] = signed.get(row, 0) + 1
            else:
                self._count_delta(rule, plus, minus, signed, spell, stats)
        agg = self._agg[pred]
        came: list[tuple] = []
        left: list[tuple] = []
        for row, d in signed.items():
            if d == 0:
                continue
            old = agg.get(row, 0)
            new = old + d
            if new:
                agg[row] = new
            else:
                agg.pop(row, None)
            stats.count_adjusted += 1
            if old <= 0 < new:
                came.append(row)
            elif new <= 0 < old:
                left.append(row)
        if came:
            arity = len(component.rules[0].head.args)
            batch = _add(db, pred, arity, came, spelled_decoder(spell))
            stats.fixpoint.facts_derived += len(batch)
            if batch:
                plus[pred] = batch
        if left:
            batch = _discard(db.relation(pred), left)
            stats.facts_removed += len(batch)
            if batch:
                minus[pred] = batch

    def _count_delta(
        self, rule: Rule, plus: Deltas, minus: Deltas,
        signed: dict[tuple, int], spell: dict, stats: UpdateStats,
    ) -> None:
        """Fold one rule's derivation-count delta into ``signed`` and
        the stored per-rule counts, and the derived rows' spellings
        into ``spell``."""
        counts = self._counts[rule]
        if self._negation_changed(rule, plus, minus):
            # non-monotone in the delta: recount outright (the negated
            # predicates are strictly lower and already final).
            derived = self._run(rule, self._model._context.plan_for(rule))
            _note(spell, derived)
            stats.fixpoint.rule_firings += 1
            fresh = self._counts[rule] = Counter(derived.rows)
            local = {
                row: fresh[row] - counts.get(row, 0)
                for row, _n in counts.items() ^ fresh.items()
            }
        else:
            local = {}
            for plan, occurrence, delta, sign, base in self._terms(
                rule, plus, minus
            ):
                derived = self._run(rule, plan, occurrence, delta, base)
                _note(spell, derived)
                stats.fixpoint.rule_firings += 1
                for row in derived.rows:
                    local[row] = local.get(row, 0) + sign
            for row, d in local.items():
                n = counts.get(row, 0) + d
                if n:
                    counts[row] = n
                else:
                    counts.pop(row, None)
        for row, d in local.items():
            if d:
                signed[row] = signed.get(row, 0) + d

    # -- grouping heads ----------------------------------------------------

    def _build_group_state(self, rule: Rule, first: dict, spell: dict) -> _GroupState:
        state = _GroupState(rule)
        plan = self._model._context.plan_for(rule)
        state.accumulate(self._pre_group(rule, plan), 1, first)
        for key in state.buckets:
            state.rows[key] = state.regroup(key, first, spell)
        return state

    def _group_delta(
        self, rule: Rule, plus: Deltas, minus: Deltas, spell: dict,
        stats: UpdateStats,
    ) -> tuple[list, list]:
        """Update one grouping rule's state; returns the (removed,
        added) group rows, spelling the added ones into ``spell``.  The
        database is not touched here — the caller decides how group
        facts feed support (counting) or DRed seeds."""
        state = self._groups[rule]
        first: dict = {}
        if self._negation_changed(rule, plus, minus):
            fresh = self._groups[rule] = self._build_group_state(
                rule, first, spell
            )
            stats.fixpoint.rule_firings += 1
            old_rows, new_rows = state.rows, fresh.rows
            keys = old_rows.keys() | new_rows.keys()
        else:
            keys = set()
            for plan, occurrence, delta, sign, base in self._terms(
                rule, plus, minus
            ):
                keys |= state.accumulate(
                    self._pre_group(rule, plan, occurrence, delta, base),
                    sign, first,
                )
                stats.fixpoint.rule_firings += 1
            old_rows = {key: state.rows.get(key) for key in keys}
            new_rows = state.rows
            for key in keys:
                row = state.regroup(key, first, spell)
                if row is None:
                    new_rows.pop(key, None)
                else:
                    new_rows[key] = row
        removed, added = [], []
        for key in keys:
            old_row = old_rows.get(key)
            new_row = new_rows.get(key)
            if old_row == new_row:
                continue  # multiplicities moved, the value set did not
            if old_row is not None:
                removed.append(old_row)
            if new_row is not None:
                added.append(new_row)
        return removed, added

    # -- recursive SCCs: DRed ----------------------------------------------

    def _maintain_recursive(
        self, component: SCCComponent, plus: Deltas, minus: Deltas,
        stats: UpdateStats,
    ) -> None:
        model = self._model
        db = model.database
        ctx = model._context
        comp = component.preds
        grouping_rules = [r for r in component.rules if r.is_grouping()]
        rules = [r for r in component.rules if not r.is_grouping()]
        arity = {r.head.pred: len(r.head.args) for r in component.rules}

        # A. grouping deltas first: grouping bodies are strictly lower,
        # hence already at their final new state.
        spell: dict = {}
        group_removed, group_added = [], []
        for rule in grouping_rules:
            removed, added = self._group_delta(rule, plus, minus, spell, stats)
            group_removed.append((rule.head.pred, removed))
            group_added.append((rule.head.pred, added))

        # B. restore the strata-below deletions so every lower predicate
        # reads old ∪ Δ+: overdeletion then cannot miss an old
        # derivation through a positive occurrence.
        restored = {
            pred: db.add_rows(
                pred, batch.arity, batch.rows, spelled_decoder(batch.spellings)
            )
            for pred, batch in minus.items()
        }

        # condemned rows per predicate, and in condemnation order
        condemned: dict[str, dict[tuple, None]] = {}
        order: list[tuple[str, list]] = []
        frontier: Deltas = {}
        extension = sum(db.count(pred) for pred in comp)
        budget = GATE_FRACTION * max(GATE_MIN_EXTENSION, extension)
        # program facts hold unconditionally: never condemned
        pinned: dict[str, set] = {}
        for fact in model.program_facts_of(comp):
            pinned.setdefault(fact.pred, set()).add(encode_args(fact.args))
        total = 0

        def condemn(pred: str, rows) -> None:
            nonlocal total
            live = db.get_relation(pred)
            if live is None:
                return
            seen = condemned.setdefault(pred, {})
            keep = pinned.get(pred, ())
            new = [
                row for row in live.stored(dict.fromkeys(rows))
                if row not in seen and row not in keep
            ]
            if not new:
                return
            if total + len(new) > budget:
                # the gate fires on the first row past the budget
                new = new[: math.floor(budget) + 1 - total]
            seen.update(dict.fromkeys(new))
            order.append((pred, new))
            total += len(new)
            if total > budget:
                raise _OverBudget
            if pred in frontier:
                frontier[pred].rows.extend(new)
            else:
                frontier[pred] = RowBatch(pred, arity[pred], list(new))

        comp_occurrences = [
            (rule, i, lit.atom.pred)
            for rule in rules
            for i, lit in enumerate(rule.body)
            if lit.positive and lit.atom.pred in comp
        ]
        try:
            for pred, rows in group_removed:
                condemn(pred, rows)
            old_neg_db: Database | None = None
            for rule in rules:
                for i, lit in enumerate(rule.body):
                    delta = (minus if lit.positive else plus).get(lit.atom.pred)
                    if not delta:
                        continue
                    run_rule, negation_db = rule, None
                    if not lit.positive:
                        # a negated predicate gained facts: derivations
                        # matching them through the negation died.  Seed
                        # them by flipping the literal positive over Δ+;
                        # the other negations must read the OLD state
                        # (new-state negation could hide old bindings).
                        if old_neg_db is None:
                            old_neg_db = self._old_negation_db(rules, plus)
                        run_rule, negation_db = _flip(rule, i), old_neg_db
                    plan = ctx.plan_for(run_rule, first=i)
                    stats.fixpoint.rule_firings += 1
                    derived = self._run(
                        run_rule, plan, i, delta, negation_db=negation_db
                    )
                    condemn(derived.pred, derived.rows)

            # semi-naive overdelete propagation within the component.
            # The database still holds every condemned fact, so each
            # wave joins against full old-state support; negation reads
            # old ∪ Δ+, which blocks at least what the old state blocked
            # — anything it hides is exactly the flip-seeded case above.
            while frontier:
                wave, frontier = frontier, {}
                stats.fixpoint.iterations += 1
                for rule, i, pred in comp_occurrences:
                    source = wave.get(pred)
                    if not source:
                        continue
                    plan = ctx.plan_for(rule, first=i)
                    stats.fixpoint.rule_firings += 1
                    derived = self._run(rule, plan, i, source)
                    condemn(derived.pred, derived.rows)
        except _OverBudget:
            # nothing is discarded yet and the step-A group state is
            # final: re-derive over the lower strata's new state.
            for pred, rows in restored.items():
                db.discard_rows(pred, rows)
            stats.overdeleted += total
            self._recompute_component(component, plus, minus, stats)
            return

        # C. apply: drop the condemned facts (keeping their spellings),
        # un-restore the lower deltas.  The database is now at the final
        # new state for every lower predicate and at (old − overdeleted)
        # for the component.
        gone = {
            pred: _discard(db.relation(pred), list(rows))
            for pred, rows in condemned.items()
        }
        for pred, rows in restored.items():
            db.discard_rows(pred, rows)
        stats.overdeleted += total

        inserted: dict[str, dict[tuple, None]] = {}
        up_frontier: Deltas = {}

        def install(pred: str, rows, decode) -> int:
            fresh = db.add_rows(pred, arity[pred], rows, decode)
            if fresh:
                inserted.setdefault(pred, {}).update(dict.fromkeys(fresh))
                if pred in up_frontier:
                    up_frontier[pred].rows.extend(fresh)
                else:
                    up_frontier[pred] = RowBatch(pred, arity[pred], fresh)
            return len(fresh)

        # D. rederive, in condemnation order: a condemned fact survives
        # if it is a current group fact, or some rule for its predicate
        # derives it from the facts still standing (rederived ones
        # included).  Facts only derivable through other condemned
        # facts come back — if at all — via the insertion propagation
        # below, once a support chain reappears.
        current_groups: dict[str, set] = {}
        for rule in grouping_rules:
            current_groups.setdefault(rule.head.pred, set()).update(
                self._groups[rule].rows.values()
            )
        by_head: dict[str, list[Rule]] = {}
        for rule in rules:
            by_head.setdefault(rule.head.pred, []).append(rule)
        for pred, rows in order:
            groups = current_groups.get(pred, ())
            heads = by_head.get(pred, ())
            spelled = gone[pred].spellings
            for row in rows:
                alive = row in groups
                if not alive and heads:
                    args = spelled.get(row) or decode_row(row)
                    alive = any(self._rederivable(r, args) for r in heads)
                if alive:
                    install(pred, (row,), spelled_decoder(spelled))
                    stats.rederived += 1
                    stats.fixpoint.facts_derived += 1

        # E. insertion seeds: new group facts, lower-stratum insertions
        # through positive occurrences, and the derivations a lower
        # deletion *enables* through a negation (flip over Δ−; the new
        # database state is exactly right for the remaining literals).
        for pred, rows in group_added:
            stats.fixpoint.facts_derived += install(
                pred, rows, spelled_decoder(spell)
            )
        for rule in rules:
            for i, lit in enumerate(rule.body):
                delta = (plus if lit.positive else minus).get(lit.atom.pred)
                if not delta or lit.atom.pred in comp:
                    continue
                run_rule = rule if lit.positive else _flip(rule, i)
                plan = ctx.plan_for(run_rule, first=i)
                stats.fixpoint.rule_firings += 1
                derived = self._run(run_rule, plan, i, delta)
                stats.fixpoint.facts_derived += install(
                    derived.pred, derived.rows, derived.decode
                )
        while up_frontier:
            wave, up_frontier = up_frontier, {}
            stats.fixpoint.iterations += 1
            for rule, i, pred in comp_occurrences:
                source = wave.get(pred)
                if not source:
                    continue
                plan = ctx.plan_for(rule, first=i)
                stats.fixpoint.rule_firings += 1
                derived = self._run(rule, plan, i, source)
                stats.fixpoint.facts_derived += install(
                    derived.pred, derived.rows, derived.decode
                )

        # F. net delta: what actually left and entered the component.
        for pred in comp:
            live = db.id_rows(pred) or ()
            batch = gone.get(pred)
            if batch:
                left = [row for row in batch.rows if row not in live]
                if left:
                    minus[pred] = RowBatch(
                        pred, batch.arity, left, batch.spellings
                    )
                    stats.facts_removed += len(left)
            dead = condemned.get(pred, {})
            came = [row for row in inserted.get(pred, ()) if row not in dead]
            if came:
                rel = db.relation(pred)
                plus[pred] = RowBatch(
                    pred, rel.arity, came, rel.spellings_of(came)
                )

    def _recompute_component(
        self, component: SCCComponent, plus: Deltas, minus: Deltas,
        stats: UpdateStats,
    ) -> None:
        """Re-derive a recursive component from its final lower strata
        into private overlay relations (old facts cannot support
        themselves there), then apply only the ID-row diff in place:
        the live relations and their indexes, which prepared queries
        share, survive."""
        db = self._model.database
        ctx = self._model._context
        heads = {(r.head.pred, len(r.head.args)) for r in component.rules}
        view = db.overlay(private=heads)
        _add_facts(view, self._model.program_facts_of(component.preds))
        scc = evaluate_component(
            view, component, ctx.over(view)
        )
        stats.component_recomputes += 1
        stats.fixpoint.merge(scc.fixpoint)
        stats.fixpoint.facts_derived += scc.grouping_facts
        for pred, arity in heads:
            live, fresh = db.relation(pred, arity), view.relation(pred)
            old_rows, new_rows = live.id_rows(), fresh.id_rows()
            left = _discard(live, list(old_rows - new_rows))
            came = _add(
                db, pred, arity, new_rows - old_rows,
                fresh.args_of if fresh.spellings() else None,
            )
            if left:
                minus[pred] = left
                stats.facts_removed += len(left)
            if came:
                plus[pred] = came

    def _old_negation_db(self, rules, plus: Deltas) -> Database:
        """Old-state overlay for every negated predicate of the
        component's rules.  Negated predicates are strictly lower and
        their deletions are restored at this point, so the database
        holds old ∪ Δ+ — removing Δ+ reconstructs the old state
        exactly."""
        db = self._model.database
        relations: dict[str, Relation] = {}
        for rule in rules:
            for lit in rule.body:
                pred = lit.atom.pred
                if lit.positive or is_builtin_predicate(pred):
                    continue
                if pred in relations or not db.has_relation(pred):
                    continue
                rel = db.relation(pred)
                gained = set(plus[pred].rows) if pred in plus else set()
                rows = dict.fromkeys(
                    filterfalse(gained.__contains__, rel.id_rows())
                )
                relations[pred] = Relation.adopt(pred, rel.arity, rows, {})
        return Database.from_relations(relations.values())

    def _rederivable(self, rule: Rule, args) -> bool:
        """Does ``rule`` still derive the fact with arguments ``args``
        from the facts standing in the database?  Head-bound
        evaluation: match the head against the arguments, then run the
        body plan with those variables seeded."""
        ctx = self._model._context
        for binding in match_atom(rule.head, args, {}):
            plan = ctx.plan_for(
                rule, initially_bound=frozenset(binding)
            )
            for _ in enumerate_bindings(
                self._model.database, plan, binding=binding,
                steps=ctx.on.exec_steps,
            ):
                return True
        return False
