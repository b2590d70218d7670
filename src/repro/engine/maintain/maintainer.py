"""Differential maintenance: support counting and DRed over the executor.

The :class:`DeltaMaintainer` repairs a materialized
:class:`~repro.engine.incremental.IncrementalModel` by propagating the
*change* of an update through the SCC schedule instead of re-deriving
the affected cone:

* **non-recursive SCCs** carry per-rule derivation counts (and per-fact
  aggregate support): an update adjusts counts by running each changed
  body occurrence against the delta, and only support transitions
  through zero touch the database;
* **recursive SCCs** run DRed (delete–rederive): deletions are
  over-propagated through the component's rules, every overdeleted
  fact is checked for an alternative derivation from the surviving
  facts, and insertions — including the facts a deletion below *adds*
  above a negation — propagate semi-naively from the seeds;
* **grouping heads** keep a multiset of grouped values per key, so an
  update regroups only the keys its delta actually touched.

All rule applications go through the same
``enumerate_bindings``/``derive_facts`` entry point as evaluation, so
deltas ride the set-at-a-time operators and the specialized ID-space
closures where shapes allow.

Change arithmetic uses the standard telescoping decomposition: for a
rule with changed positive occurrences ``o1 < o2 < ... < ok``,

    new(body) - old(body) = sum_j  old(o1..o_{j-1}) * delta(o_j) * new(o_{j+1}..)

so each ``derive_facts`` call pins one occurrence to the inserted
(count +1) or deleted (count -1) tuples, overrides every *earlier*
changed occurrence to its old extension, and lets the later ones read
the already-updated database.  A rule whose *negated* predicates
changed is non-monotone in the delta and is recounted (or its groups
rebuilt) outright — negation is always on strictly lower, already-final
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

from time import perf_counter
from typing import Iterable

from repro.engine.database import Database
from repro.engine.evaluator import evaluate_component
from repro.engine.exec import (
    RowBatch,
    derive_facts,
    enumerate_bindings,
)
from repro.engine.grouping import group_spec
from repro.engine.incremental import IncrementalModel, UpdateStats
from repro.engine.maintain import DeltaBatch
from repro.errors import EvaluationError, NotInUniverseError
from repro.names import is_builtin_predicate
from repro.engine.match import match_atom
from repro.program.dependency import SCCComponent
from repro.program.rule import Atom, Literal, Rule
from repro.terms.pretty import format_rule
from repro.terms.term import _ID_TABLE, Term, evaluate_ground, row_id, set_rid

#: per-predicate fact deltas accumulated while walking the schedule.
Deltas = dict[str, list[Atom]]

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


def _delta_batch(atoms: list[Atom]) -> RowBatch:
    """A maintenance delta as an override-ready row batch, so the
    compiled executor consumes the delta without re-encoding at the
    maintenance boundary.  Atoms that already carry their ID row
    (``_row``) contribute it as-is."""
    batch = RowBatch(atoms[0].pred, len(atoms[0].args))
    for atom in atoms:
        batch.add_fact(atom)
    return batch


def _frontier_add(frontier: dict, fact: Atom) -> None:
    """Append one fact to a per-predicate frontier batch."""
    entry = frontier.get(fact.pred)
    if entry is None:
        entry = frontier[fact.pred] = RowBatch(fact.pred, len(fact.args))
    entry.add_fact(fact)


def _flip(rule: Rule, occurrence: int) -> Rule:
    """``rule`` with the negative literal at ``occurrence`` made
    positive — the seed rule for derivations a negated predicate's
    delta destroys (overdelete) or enables (insert)."""
    body = list(rule.body)
    body[occurrence] = Literal(body[occurrence].atom, True)
    return Rule(rule.head, tuple(body))


class _GroupState:
    """The live grouping state of one grouping rule: a multiset of
    grouped values per key (a model build groups into sets, which cannot
    be decremented) plus the current fact per key.

    Multiplicities are exact binding counts.  Within one update the
    telescoping terms may take a count below zero before a later term
    restores it, so a count is dropped only at exactly zero."""

    __slots__ = ("group_position", "group_var", "other_terms", "buckets", "facts")

    def __init__(self, rule: Rule) -> None:
        self.group_position, self.group_var = group_spec(rule)
        self.other_terms = tuple(
            (i, arg)
            for i, arg in enumerate(rule.head.args)
            if i != self.group_position
        )
        # key -> {grouped value -> nonzero multiplicity}
        self.buckets: dict[tuple[Term, ...], dict[Term, int]] = {}
        # key -> the fact currently standing for that group
        self.facts: dict[tuple[Term, ...], Atom] = {}


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
        self._model = model
        self._ready: set[frozenset[str]] = set()
        # non-grouping rule -> {head fact -> derivation count}
        self._counts: dict[Rule, dict[Atom, int]] = {}
        # per predicate of a counting SCC: {fact -> total support}
        self._agg: dict[str, dict[Atom, int]] = {}
        # grouping rule -> live group state (counting and DRed alike)
        self._groups: dict[Rule, _GroupState] = {}
        # per-update cache of old extensions (valid once a predicate's
        # own component has finished; reset by every ``apply``)
        self._old_cache: dict[str, list[tuple[Term, ...]]] = {}

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
        plus: Deltas = {}
        minus: Deltas = {}
        for atom in added:
            if db.add(atom):
                plus.setdefault(atom.pred, []).append(atom)
        for atom in removed:
            if db.discard(atom):
                minus.setdefault(atom.pred, []).append(atom)
        self._old_cache = {}
        for component in self._cone_components(cone):
            if not self._touched(component, plus, minus):
                continue
            if component.recursive:
                self._maintain_recursive(component, plus, minus, stats)
            else:
                self._maintain_counting(component, plus, minus, stats)
        batch = DeltaBatch(
            lsn=lsn,
            mode="delta",
            inserted={p: tuple(a) for p, a in plus.items() if a},
            deleted={p: tuple(a) for p, a in minus.items() if a},
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
        for rule in component.rules:
            for lit in rule.body:
                pred = lit.atom.pred
                if is_builtin_predicate(pred):
                    continue
                if plus.get(pred) or minus.get(pred):
                    return True
        return False

    def _init_component(self, component: SCCComponent) -> None:
        """Snapshot the component's support state from the current
        (pre-update) database."""
        model = self._model
        db = model.database
        ctx = model._context
        for rule in component.rules:
            if rule.is_grouping():
                self._groups[rule] = self._build_group_state(rule)
            elif not component.recursive:
                counts: dict[Atom, int] = {}
                for fact in self._run(rule, ctx.plan_for(rule)):
                    counts[fact] = counts.get(fact, 0) + 1
                self._counts[rule] = counts
        if not component.recursive:
            # single predicate by construction (no self-loop): aggregate
            # support is the sum over rules, one per current group fact,
            # plus one that never goes away per program fact.
            agg: dict[Atom, int] = dict.fromkeys(
                model.program_facts_of(component.preds), 1
            )
            for rule in component.rules:
                if rule.is_grouping():
                    for fact in self._groups[rule].facts.values():
                        agg[fact] = agg.get(fact, 0) + 1
                else:
                    for fact, n in self._counts[rule].items():
                        agg[fact] = agg.get(fact, 0) + n
            (pred,) = component.preds
            self._agg[pred] = agg
        self._ready.add(component.preds)

    # -- shared executor plumbing ------------------------------------------

    def _run(self, rule, plan, overrides=None, negation_db=None):
        """One rule application through the shared entry point, with the
        context's event conventions."""
        on = self._model._context.on
        self._dispatched(overrides)
        fired = on.rule_fired
        start = perf_counter() if fired is not None else 0.0
        derived = derive_facts(
            self._model.database, plan, overrides=overrides,
            negation_db=negation_db, steps=on.exec_steps,
        )
        if fired is not None:
            fired(rule=rule, derived=len(derived), seconds=perf_counter() - start)
        return derived

    def _dispatched(self, overrides) -> None:
        """Emit ``maintain_dispatch`` for one application: delta sources
        are row batches, base (old-extension) overrides plain tuple
        lists, so the batch lengths are exactly the delta rows this
        application consumes."""
        handler = self._model._context.on.maintain_dispatch
        if handler is None or not overrides:
            return
        rows = sum(
            len(source)
            for source in overrides.values()
            if type(source) is RowBatch
        )
        if rows:
            handler(rows=rows)

    def _bindings(self, plan, overrides=None):
        ctx = self._model._context
        self._dispatched(overrides)
        return enumerate_bindings(
            self._model.database, plan, overrides=overrides,
            steps=ctx.on.exec_steps,
        )

    def _old_tuples(self, pred: str, plus: Deltas, minus: Deltas):
        """The predicate's pre-update extension, reconstructed from the
        new state and its (final) delta.  Only valid for predicates
        whose own component already finished — the schedule order
        guarantees every caller's inputs are."""
        cached = self._old_cache.get(pred)
        if cached is None:
            inserted = {a.args for a in plus.get(pred, ())}
            cached = [
                t for t in self._model.database.tuples(pred)
                if t not in inserted
            ]
            cached.extend(a.args for a in minus.get(pred, ()))
            self._old_cache[pred] = cached
        return cached

    @staticmethod
    def _changed_occurrences(rule: Rule, plus: Deltas, minus: Deltas):
        return [
            (i, lit.atom.pred)
            for i, lit in enumerate(rule.body)
            if lit.positive
            and not is_builtin_predicate(lit.atom.pred)
            and (plus.get(lit.atom.pred) or minus.get(lit.atom.pred))
        ]

    @staticmethod
    def _negation_changed(rule: Rule, plus: Deltas, minus: Deltas) -> bool:
        return any(
            not lit.positive
            and not is_builtin_predicate(lit.atom.pred)
            and (plus.get(lit.atom.pred) or minus.get(lit.atom.pred))
            for lit in rule.body
        )

    # -- counting SCCs -----------------------------------------------------

    def _maintain_counting(
        self,
        component: SCCComponent,
        plus: Deltas,
        minus: Deltas,
        stats: UpdateStats,
    ) -> None:
        db = self._model.database
        (pred,) = component.preds
        signed: dict[Atom, int] = {}
        for rule in component.rules:
            if rule.is_grouping():
                removed, added = self._group_delta(rule, plus, minus, stats)
                for fact in removed:
                    signed[fact] = signed.get(fact, 0) - 1
                for fact in added:
                    signed[fact] = signed.get(fact, 0) + 1
            else:
                self._count_delta(rule, plus, minus, signed, stats)
        if not signed:
            return
        agg = self._agg[pred]
        added_facts: list[Atom] = []
        removed_facts: list[Atom] = []
        for fact, d in signed.items():
            if d == 0:
                continue
            old = agg.get(fact, 0)
            new = old + d
            if new:
                agg[fact] = new
            else:
                agg.pop(fact, None)
            stats.count_adjusted += 1
            if old <= 0 < new:
                if db.add(fact):
                    stats.fixpoint.facts_derived += 1
                    added_facts.append(fact)
            elif new <= 0 < old:
                if db.discard(fact):
                    stats.facts_removed += 1
                    removed_facts.append(fact)
        if added_facts:
            plus.setdefault(pred, []).extend(added_facts)
        if removed_facts:
            minus.setdefault(pred, []).extend(removed_facts)

    def _count_delta(
        self,
        rule: Rule,
        plus: Deltas,
        minus: Deltas,
        signed: dict[Atom, int],
        stats: UpdateStats,
    ) -> None:
        """Fold one rule's derivation-count delta into ``signed`` and
        the stored per-rule counts."""
        ctx = self._model._context
        counts = self._counts[rule]
        local: dict[Atom, int] = {}
        if self._negation_changed(rule, plus, minus):
            # non-monotone in the delta: recount outright (the negated
            # predicates are strictly lower and already final).
            fresh: dict[Atom, int] = {}
            for fact in self._run(rule, ctx.plan_for(rule)):
                fresh[fact] = fresh.get(fact, 0) + 1
            stats.fixpoint.rule_firings += 1
            for fact in set(counts) | set(fresh):
                d = fresh.get(fact, 0) - counts.get(fact, 0)
                if d:
                    local[fact] = d
            self._counts[rule] = fresh
        else:
            base: dict[int, list] = {}
            for occurrence, body_pred in self._changed_occurrences(
                rule, plus, minus
            ):
                plan = ctx.plan_for(rule, first=occurrence)
                for atoms, sign in (
                    (plus.get(body_pred), 1),
                    (minus.get(body_pred), -1),
                ):
                    if not atoms:
                        continue
                    overrides = dict(base)
                    overrides[occurrence] = _delta_batch(atoms)
                    for fact in self._run(rule, plan, overrides=overrides):
                        local[fact] = local.get(fact, 0) + sign
                    stats.fixpoint.rule_firings += 1
                # later telescoping terms see this occurrence at its
                # old extension; unchanged ones read the database.
                base[occurrence] = self._old_tuples(body_pred, plus, minus)
            for fact, d in list(local.items()):
                n = counts.get(fact, 0) + d
                if n:
                    counts[fact] = n
                else:
                    counts.pop(fact, None)
        for fact, d in local.items():
            if d:
                signed[fact] = signed.get(fact, 0) + d

    # -- grouping heads ----------------------------------------------------

    def _build_group_state(self, rule: Rule) -> _GroupState:
        ctx = self._model._context
        state = _GroupState(rule)
        self._accumulate(
            state, rule, self._bindings(ctx.plan_for(rule)), 1
        )
        for key in state.buckets:
            fact = self._group_fact(state, rule, key)
            assert fact is not None  # non-empty bucket
            state.facts[key] = fact
        return state

    def _accumulate(
        self, state: _GroupState, rule: Rule, bindings, sign: int
    ) -> set[tuple[Term, ...]]:
        """Add ``sign`` to the multiplicity of each binding's grouped
        value, with the semantics of a model build's group-by
        (:mod:`repro.engine.grouping`): an unbound grouped variable
        raises, keys or values outside U drop the binding.  Returns the
        touched keys."""
        touched: set[tuple[Term, ...]] = set()
        buckets = state.buckets
        group_var = state.group_var
        other_terms = state.other_terms
        for binding in bindings:
            value_term = binding.get(group_var)
            if value_term is None:
                raise EvaluationError(
                    f"grouped variable {group_var} unbound by body: "
                    f"{format_rule(rule)}"
                )
            try:
                key = tuple(
                    evaluate_ground(term.substitute(binding))
                    for _pos, term in other_terms
                )
                value = evaluate_ground(value_term)
            except (NotInUniverseError, EvaluationError):
                continue
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {}
            n = bucket.get(value, 0) + sign
            if n:
                bucket[value] = n
            else:
                del bucket[value]
                if not bucket:
                    del buckets[key]
            touched.add(key)
        return touched

    def _group_fact(
        self, state: _GroupState, rule: Rule, key: tuple[Term, ...]
    ) -> Atom | None:
        """The fact currently standing for ``key``, or None when its
        group emptied (an empty class contributes nothing)."""
        bucket = state.buckets.get(key)
        if not bucket:
            return None
        args: list[Term] = [None] * len(rule.head.args)  # type: ignore[list-item]
        for (i, _), value in zip(state.other_terms, key):
            args[i] = value
        args[state.group_position] = _ID_TABLE[set_rid(map(row_id, bucket))]
        return Atom(rule.head.pred, tuple(args))

    def _group_delta(
        self, rule: Rule, plus: Deltas, minus: Deltas, stats: UpdateStats
    ) -> tuple[list[Atom], list[Atom]]:
        """Update one grouping rule's state; returns (removed, added)
        facts.  The database is not touched here — the caller decides
        how group facts feed support (counting) or DRed seeds."""
        ctx = self._model._context
        state = self._groups[rule]
        if self._negation_changed(rule, plus, minus):
            fresh = self._build_group_state(rule)
            stats.fixpoint.rule_firings += 1
            removed: list[Atom] = []
            added: list[Atom] = []
            for key in set(state.facts) | set(fresh.facts):
                old_fact = state.facts.get(key)
                new_fact = fresh.facts.get(key)
                if old_fact == new_fact:
                    continue
                if old_fact is not None:
                    removed.append(old_fact)
                if new_fact is not None:
                    added.append(new_fact)
            self._groups[rule] = fresh
            return removed, added
        touched: set[tuple[Term, ...]] = set()
        base: dict[int, list] = {}
        for occurrence, body_pred in self._changed_occurrences(
            rule, plus, minus
        ):
            plan = ctx.plan_for(rule, first=occurrence)
            for atoms, sign in (
                (plus.get(body_pred), 1),
                (minus.get(body_pred), -1),
            ):
                if not atoms:
                    continue
                overrides = dict(base)
                overrides[occurrence] = _delta_batch(atoms)
                touched |= self._accumulate(
                    state, rule, self._bindings(plan, overrides), sign
                )
                stats.fixpoint.rule_firings += 1
            base[occurrence] = self._old_tuples(body_pred, plus, minus)
        removed, added = [], []
        for key in touched:
            old_fact = state.facts.get(key)
            new_fact = self._group_fact(state, rule, key)
            if old_fact == new_fact:
                continue  # multiplicities moved, the value set did not
            if new_fact is None:
                del state.facts[key]
            else:
                state.facts[key] = new_fact
            if old_fact is not None:
                removed.append(old_fact)
            if new_fact is not None:
                added.append(new_fact)
        return removed, added

    # -- recursive SCCs: DRed ----------------------------------------------

    def _maintain_recursive(
        self,
        component: SCCComponent,
        plus: Deltas,
        minus: Deltas,
        stats: UpdateStats,
    ) -> None:
        model = self._model
        db = model.database
        ctx = model._context
        comp = component.preds
        grouping_rules = [r for r in component.rules if r.is_grouping()]
        rules = [r for r in component.rules if not r.is_grouping()]

        # A. grouping deltas first: grouping bodies are strictly lower,
        # hence already at their final new state.
        group_removed: list[Atom] = []
        group_added: list[Atom] = []
        for rule in grouping_rules:
            removed, added = self._group_delta(rule, plus, minus, stats)
            group_removed.extend(removed)
            group_added.extend(added)

        # B. restore the strata-below deletions so every lower predicate
        # reads old ∪ Δ+: overdeletion then cannot miss an old
        # derivation through a positive occurrence.
        restored: list[Atom] = []
        for atoms in minus.values():
            for atom in atoms:
                if db.add(atom):
                    restored.append(atom)

        overdeleted: dict[Atom, None] = {}  # insertion-ordered set
        frontier: dict[str, RowBatch] = {}
        extension = sum(db.count(pred) for pred in comp)
        budget = GATE_FRACTION * max(GATE_MIN_EXTENSION, extension)
        # program facts hold unconditionally: never condemned
        pinned = model.program_facts_of(comp)

        def condemn(fact: Atom) -> None:
            if fact in overdeleted or (pinned and fact in pinned):
                return
            if not db.contains_tuple(fact.pred, fact.args):
                return
            overdeleted[fact] = None
            _frontier_add(frontier, fact)
            if len(overdeleted) > budget:
                raise _OverBudget

        comp_occurrences = [
            (rule, i, lit.atom.pred)
            for rule in rules
            for i, lit in enumerate(rule.body)
            if lit.positive and lit.atom.pred in comp
        ]
        try:
            for fact in group_removed:
                condemn(fact)
            old_neg_db: Database | None = None
            for rule in rules:
                for i, lit in enumerate(rule.body):
                    pred = lit.atom.pred
                    if is_builtin_predicate(pred):
                        continue
                    if lit.positive:
                        atoms = minus.get(pred)
                        if not atoms:
                            continue
                        plan = ctx.plan_for(rule, first=i)
                        stats.fixpoint.rule_firings += 1
                        for fact in self._run(
                            rule, plan, overrides={i: _delta_batch(atoms)}
                        ):
                            condemn(fact)
                    else:
                        # a negated predicate gained facts: derivations
                        # matching them through the negation died.  Seed
                        # them by flipping the literal positive over Δ+;
                        # the other negations must read the OLD state
                        # (new-state negation could hide old bindings).
                        atoms = plus.get(pred)
                        if not atoms:
                            continue
                        if old_neg_db is None:
                            old_neg_db = self._old_negation_db(rules, plus)
                        flipped = _flip(rule, i)
                        plan = ctx.plan_for(flipped, first=i)
                        stats.fixpoint.rule_firings += 1
                        for fact in self._run(
                            flipped, plan,
                            overrides={i: _delta_batch(atoms)},
                            negation_db=old_neg_db,
                        ):
                            condemn(fact)

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
                    for fact in self._run(rule, plan, overrides={i: source}):
                        condemn(fact)
        except _OverBudget:
            # nothing is discarded yet and the step-A group state is
            # final: re-derive over the lower strata's new state.
            for atom in restored:
                db.discard(atom)
            stats.overdeleted += len(overdeleted)
            self._recompute_component(component, plus, minus, stats)
            return

        # C. apply: drop the condemned facts, un-restore the lower
        # deltas.  The database is now at the final new state for every
        # lower predicate and at (old − overdeleted) for the component.
        for fact in overdeleted:
            db.discard(fact)
        for atom in restored:
            db.discard(atom)
        stats.overdeleted += len(overdeleted)

        inserted_now: dict[Atom, None] = {}
        up_frontier: dict[str, RowBatch] = {}

        def add_fact(fact: Atom) -> bool:
            if db.add(fact):
                inserted_now[fact] = None
                _frontier_add(up_frontier, fact)
                return True
            return False

        # D. rederive: a condemned fact survives if it is a current
        # group fact, or some rule for its predicate derives it from
        # the facts still standing.  Facts only derivable through other
        # condemned facts come back — if at all — via the insertion
        # propagation below, once a support chain reappears.
        current_groups: dict[str, set[Atom]] = {}
        for rule in grouping_rules:
            facts = current_groups.setdefault(rule.head.pred, set())
            facts.update(self._groups[rule].facts.values())
        by_head: dict[str, list[Rule]] = {}
        for rule in rules:
            by_head.setdefault(rule.head.pred, []).append(rule)
        for fact in overdeleted:
            if fact in current_groups.get(fact.pred, ()):
                alive = True
            else:
                alive = any(
                    self._rederivable(rule, fact)
                    for rule in by_head.get(fact.pred, ())
                )
            if alive:
                add_fact(fact)
                stats.rederived += 1
                stats.fixpoint.facts_derived += 1

        # E. insertion seeds: new group facts, lower-stratum insertions
        # through positive occurrences, and the derivations a lower
        # deletion *enables* through a negation (flip over Δ−; the new
        # database state is exactly right for the remaining literals).
        for fact in group_added:
            if add_fact(fact):
                stats.fixpoint.facts_derived += 1
        for rule in rules:
            for i, lit in enumerate(rule.body):
                pred = lit.atom.pred
                if is_builtin_predicate(pred) or pred in comp:
                    continue
                if lit.positive:
                    atoms = plus.get(pred)
                    flipped = None
                else:
                    atoms = minus.get(pred)
                    flipped = _flip(rule, i)
                if not atoms:
                    continue
                run_rule = flipped if flipped is not None else rule
                plan = ctx.plan_for(run_rule, first=i)
                stats.fixpoint.rule_firings += 1
                for fact in self._run(
                    run_rule, plan, overrides={i: _delta_batch(atoms)}
                ):
                    if add_fact(fact):
                        stats.fixpoint.facts_derived += 1
        while up_frontier:
            wave, up_frontier = up_frontier, {}
            stats.fixpoint.iterations += 1
            for rule, i, pred in comp_occurrences:
                source = wave.get(pred)
                if not source:
                    continue
                plan = ctx.plan_for(rule, first=i)
                stats.fixpoint.rule_firings += 1
                for fact in self._run(rule, plan, overrides={i: source}):
                    if add_fact(fact):
                        stats.fixpoint.facts_derived += 1

        # F. net delta: what actually left and entered the component.
        for pred in comp:
            removed_facts = [
                f for f in overdeleted
                if f.pred == pred and not db.contains_tuple(pred, f.args)
            ]
            added_facts = [
                f for f in inserted_now
                if f.pred == pred and f not in overdeleted
            ]
            if removed_facts:
                minus.setdefault(pred, []).extend(removed_facts)
                stats.facts_removed += len(removed_facts)
            if added_facts:
                plus.setdefault(pred, []).extend(added_facts)

    def _recompute_component(
        self,
        component: SCCComponent,
        plus: Deltas,
        minus: Deltas,
        stats: UpdateStats,
    ) -> None:
        """Re-derive a recursive component from its final lower strata
        into private overlay relations (old facts cannot support
        themselves there), then apply only the ID-row diff in place:
        the live relations and their indexes, which prepared queries
        share, survive, and Atoms are built for the diff only."""
        db = self._model.database
        ctx = self._model._context
        heads = {(r.head.pred, len(r.head.args)) for r in component.rules}
        view = db.overlay(private=heads)
        for fact in self._model.program_facts_of(component.preds):
            view.add(fact)
        scc = evaluate_component(
            view, component, ctx.over(view)
        )
        stats.component_recomputes += 1
        stats.fixpoint.merge(scc.fixpoint)
        stats.fixpoint.facts_derived += scc.grouping_facts
        for pred, arity in heads:
            live, fresh = db.relation(pred, arity), view.relation(pred)
            old_rows, new_rows = live.id_rows(), fresh.id_rows()
            left = [Atom(pred, live.args_of(row)) for row in old_rows - new_rows]
            came = [Atom(pred, fresh.args_of(row)) for row in new_rows - old_rows]
            for fact in left:
                live.discard(fact.args)
            for fact in came:
                live.add(fact.args)
            if left:
                minus.setdefault(pred, []).extend(left)
                stats.facts_removed += len(left)
            if came:
                plus.setdefault(pred, []).extend(came)

    def _old_negation_db(self, rules, plus: Deltas) -> Database:
        """Old-state overlay for every negated predicate of the
        component's rules.  Negated predicates are strictly lower and
        their deletions are restored at this point, so the database
        holds old ∪ Δ+ — removing Δ+ reconstructs the old state
        exactly."""
        db = self._model.database
        overlay = Database()
        seen: set[str] = set()
        for rule in rules:
            for lit in rule.body:
                pred = lit.atom.pred
                if lit.positive or is_builtin_predicate(pred):
                    continue
                if pred in seen:
                    continue
                seen.add(pred)
                inserted = {a.args for a in plus.get(pred, ())}
                for args in list(db.tuples(pred)):
                    if args not in inserted:
                        overlay.add_tuple(pred, args)
        return overlay

    def _rederivable(self, rule: Rule, fact: Atom) -> bool:
        """Does ``rule`` still derive ``fact`` from the facts standing
        in the database?  Head-bound evaluation: match the head against
        the fact, then run the body plan with those variables seeded."""
        ctx = self._model._context
        for binding in match_atom(rule.head, fact.args, {}):
            plan = ctx.plan_for(
                rule, initially_bound=frozenset(binding)
            )
            for _ in self._bindings_from(plan, binding):
                return True
        return False

    def _bindings_from(self, plan, binding):
        ctx = self._model._context
        return enumerate_bindings(
            self._model.database, plan, binding=binding,
            steps=ctx.on.exec_steps,
        )
