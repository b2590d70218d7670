"""Incremental maintenance of the standard model under EDB updates.

A deductive database is rarely evaluated once: base facts arrive and
retire.  This module maintains the computed minimal model across
updates without full recomputation:

* the *affected cone* of an update is the set of predicates that
  transitively depend on a changed predicate (dependency-graph
  ancestors); everything outside the cone keeps its extension —
  stratification guarantees it cannot change;
* under the default ``"delta"`` maintenance mode, every update routes
  through the differential engine in :mod:`repro.engine.maintain`:
  support counting for non-recursive SCCs, DRed for recursive ones,
  touched-group regrouping for grouping heads — cost proportional to
  the change, and a net :class:`~repro.engine.maintain.DeltaBatch`
  published per update;
* under ``"recompute"`` (the differential oracle) every update, insert
  or delete, clears the cone's derived predicates and re-runs the
  layered evaluation restricted to cone rules, over the untouched
  context: by Theorem 1 that layered fixpoint is the model.

The ``maintain=`` constructor argument fixes a model's mode for its
lifetime.  Both modes produce exactly the model a from-scratch
evaluation would (property-tested against each other).  A base fact
of a predicate the rules use with another arity raises
:class:`~repro.errors.WellFormednessError`, at construction and in
:meth:`IncrementalModel.add_facts`, before any fact is added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from repro.engine.compiled import compile_program, program_facts
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.evaluator import evaluate_component
from repro.engine.fixpoint import FixpointStats
from repro.engine.maintain import (
    DeltaBatch,
    Invalidation,
    invalidation_of,
    validated_mode,
)
from repro.errors import EvaluationError
from repro.observe import MetricsCollector, Subscriber
from repro.program.dependency import reachable, reversed_graph
from repro.program.rule import Atom, Program, canonical_atom
from repro.program.stratify import Layering
from repro.program.wellformed import (
    check_arity_pairs,
    check_fact_arities,
    predicate_arities,
)
from repro.util import gc_paused


@dataclass
class UpdateStats:
    """What one update cost.

    ``mode`` is ``"maintain"`` for differentially maintained updates,
    ``"recompute"`` for the oracle's cone recompute (and the initial
    build), ``"restore"`` for snapshot adoption and ``"none"`` for
    no-ops.  The ``overdeleted``/``rederived``/
    ``count_adjusted``/``component_recomputes`` counters are only
    nonzero under ``"maintain"``: ``overdeleted`` counts what DRed
    condemned, up to the cost gate when it fired, and
    ``component_recomputes`` how many recursive components the gate
    re-derived instead (their facts count in ``fixpoint.facts_derived``).
    ``lsn`` is stamped when the update came through the durable store.
    """

    mode: str = "none"
    affected_predicates: int = 0
    facts_removed: int = 0
    overdeleted: int = 0
    rederived: int = 0
    count_adjusted: int = 0
    component_recomputes: int = 0
    lsn: int | None = None
    fixpoint: FixpointStats = field(default_factory=FixpointStats)


@dataclass
class MaintenanceTotals:
    """Lifetime maintenance counters of one model (the server's
    ``stats`` op surfaces :meth:`report`)."""

    updates: int = 0
    delta_updates: int = 0
    recompute_updates: int = 0
    facts_removed: int = 0
    overdeleted: int = 0
    rederived: int = 0
    count_adjusted: int = 0
    component_recomputes: int = 0
    last_lsn: int | None = None

    def record(self, stats: UpdateStats) -> None:
        if stats.mode == "none":
            return
        self.updates += 1
        if stats.mode == "maintain":
            self.delta_updates += 1
        elif stats.mode == "recompute":
            self.recompute_updates += 1
        self.facts_removed += stats.facts_removed
        self.overdeleted += stats.overdeleted
        self.rederived += stats.rederived
        self.count_adjusted += stats.count_adjusted
        self.component_recomputes += stats.component_recomputes
        if stats.lsn is not None:
            self.last_lsn = stats.lsn

    def report(self) -> dict:
        return {
            "updates": self.updates,
            "delta_updates": self.delta_updates,
            "recompute_updates": self.recompute_updates,
            "facts_removed": self.facts_removed,
            "overdeleted": self.overdeleted,
            "rederived": self.rederived,
            "count_adjusted": self.count_adjusted,
            "component_recomputes": self.component_recomputes,
            "last_lsn": self.last_lsn,
        }


class IncrementalModel:
    """A materialized standard model that absorbs EDB updates."""

    @gc_paused()
    def __init__(
        self,
        program: Program,
        edb: Iterable[Atom] = (),
        hooks: Subscriber | None = None,
        materialized: Database | None = None,
        metrics: MetricsCollector | None = None,
        maintain: str = "delta",
    ) -> None:
        compiled = compile_program(program)
        self.program = program
        self.maintain = validated_mode(maintain)
        self.layering: Layering = compiled.layering
        self._arities = predicate_arities(program)
        # body -> heads, for the cone of everything a change reaches
        self._dependents = reversed_graph(compiled.graph)
        # every recompute walks the compiled per-layer component order,
        # filtered to the affected cone.
        self._schedule = compiled.schedule
        self._idb = compiled.idb
        self._edb_facts: set[Atom] = set()
        # program facts of derived predicates (``anc(z, z).`` beside
        # ``anc`` rules): unconditional derivations, never deleted.
        self._idb_facts: set[Atom] = set()
        for fact in program_facts(program):
            if fact.pred in self._idb:
                self._idb_facts.add(fact)
            else:
                self._edb_facts.add(fact)
        self.last_update = UpdateStats()
        # differential maintenance state, created on the first update
        # of a "delta"-mode model.
        self._maintainer = None
        self.last_delta: DeltaBatch | None = None
        self.maintenance = MaintenanceTotals()
        #: monotone count of completed updates.  Caches stamp what they
        #: read with it and every published Invalidation carries it;
        #: unlike a WAL LSN it is untouched by checkpoints.
        self.version = 0
        # delta listeners: called with an Invalidation after every
        # completed (non-no-op) update, inside the updating thread.
        self._delta_listeners: list = []
        if materialized is not None:
            # restore path (snapshot of this exact program): adopt the
            # already-computed model without re-running the fixpoint.
            self._edb_facts.update(canonical_atom(a) for a in edb)
            self.last_update = UpdateStats(mode="restore")
            self.database = materialized
        else:
            for atom in edb:
                fact = canonical_atom(atom)
                if fact.pred in self._idb:
                    raise EvaluationError(
                        f"cannot insert into derived predicate {fact.pred!r}"
                    )
                self._edb_facts.add(fact)
            self.database = Database(chain(self._edb_facts, self._idb_facts))
        # a relation the rules use with another arity has no literal
        # that reads it: one check per relation, before any evaluation
        check_arity_pairs(self._arities, self.database.arities())
        # one context for the model's lifetime; its plans are the
        # compiled program's, shared with every other run of it.
        self._context = EvalContext(
            self.database, compiled.plans, hooks=hooks, metrics=metrics
        )
        if materialized is None:
            # the initial build: a full layered evaluation
            self._evaluate(set(self.program.predicates()), facts_removed=0)

    # -- public API -------------------------------------------------------

    @property
    def edb_facts(self) -> frozenset[Atom]:
        """The current base facts (program facts included)."""
        return frozenset(self._edb_facts)

    @property
    def edb_size(self) -> int:
        """How many base facts there are (no copy, unlike ``edb_facts``)."""
        return len(self._edb_facts)

    def add_delta_listener(self, listener) -> None:
        """Register ``listener(invalidation)``, called after every
        completed update with the
        :class:`~repro.engine.maintain.Invalidation` it implies —
        precise (the delta batch's net-changed predicates) under
        differential maintenance, a conservative cone otherwise."""
        self._delta_listeners.append(listener)

    def _notify_delta(self, invalidation: Invalidation) -> None:
        for listener in self._delta_listeners:
            listener(invalidation)

    @gc_paused()
    def add_facts(
        self, atoms: Iterable[Atom], lsn: int | None = None
    ) -> UpdateStats:
        """Insert base facts and repair the model.  A fact of a derived
        predicate (:class:`~repro.errors.EvaluationError`) or of a
        predicate the rules use with another arity
        (:class:`~repro.errors.WellFormednessError`) raises before any
        fact of the batch is added."""
        new = [canonical_atom(a) for a in atoms]
        new = [a for a in new if a not in self._edb_facts]
        if not new:
            self.last_update = UpdateStats(mode="none", lsn=lsn)
            return self.last_update
        changed = self.check_facts(new)
        self._edb_facts.update(new)
        if self.maintain == "delta":
            return self._apply_delta(new, (), lsn)
        return self._recompute_update(changed, lsn)

    @gc_paused()
    def remove_facts(
        self, atoms: Iterable[Atom], lsn: int | None = None
    ) -> UpdateStats:
        """Delete base facts and repair the model."""
        victims = [canonical_atom(a) for a in atoms]
        victims = [a for a in victims if a in self._edb_facts]
        if not victims:
            self.last_update = UpdateStats(mode="none", lsn=lsn)
            return self.last_update
        self._edb_facts.difference_update(victims)
        if self.maintain == "delta":
            return self._apply_delta((), victims, lsn)
        return self._recompute_update({a.pred for a in victims}, lsn)

    def check_facts(self, atoms: Sequence[Atom]) -> set[str]:
        """Raise for a fact :meth:`add_facts` would reject: one of a
        derived predicate (:class:`~repro.errors.EvaluationError`) or of
        a predicate the rules use with another arity
        (:class:`~repro.errors.WellFormednessError`).  Returns the
        predicates of ``atoms``."""
        preds = check_fact_arities(self._arities, atoms)
        derived = preds & self._idb
        if derived:
            raise EvaluationError(
                f"cannot insert into derived predicate {min(derived)!r}"
            )
        return preds

    def as_set(self) -> frozenset[Atom]:
        return self.database.as_set()

    # -- internals ---------------------------------------------------------

    def _apply_delta(
        self,
        added: Iterable[Atom],
        removed: Iterable[Atom],
        lsn: int | None,
    ) -> UpdateStats:
        """Route one update through the differential maintenance engine."""
        # imported here: the maintainer imports UpdateStats from this
        # module, so a top-level import would be circular.
        from repro.engine.maintain.maintainer import DeltaMaintainer

        if self._maintainer is None:
            self._maintainer = DeltaMaintainer(self)
        stats, batch = self._maintainer.apply(added, removed, lsn=lsn)
        self.last_update = stats
        self.last_delta = batch
        self.maintenance.record(stats)
        on = self._context.on
        if on.delta_batch is not None:
            on.delta_batch(
                lsn=lsn, mode=batch.mode,
                inserted=batch.inserted_count, deleted=batch.deleted_count,
                stats=stats,
            )
        self.version += 1
        self._notify_delta(invalidation_of(batch, self.version))
        return stats

    def program_facts_of(self, preds) -> set[Atom]:
        """The program facts of derived predicates among ``preds``."""
        return {f for f in self._idb_facts if f.pred in preds}

    def _affected_cone(self, changed: set[str]) -> set[str]:
        """Changed predicates plus everything depending on them."""
        return reachable(self._dependents, changed)

    def _recompute_update(
        self, changed: set[str], lsn: int | None
    ) -> UpdateStats:
        """The oracle's update of base predicates ``changed``: rebuild
        their cone, then bump the version and publish the cone as a
        conservative invalidation."""
        cone = self._affected_cone(changed)
        stats = self._recompute(cone)
        stats.lsn = lsn
        self.maintenance.record(stats)
        self.version += 1
        self._notify_delta(
            Invalidation(
                lsn=lsn, preds=frozenset(cone), precise=False,
                version=self.version,
            )
        )
        return stats

    def _recompute(self, cone: set[str]) -> UpdateStats:
        """Rebuild the cone's derived predicates over the fixed context."""
        # keep everything outside the cone; rebuild the inside, from
        # the base facts (changed EDB facts are reinstated from them).
        kept = []
        removed = 0
        for pred in self.database.predicates():
            if pred not in cone:
                kept.append(self.database.atoms(pred))
            elif pred in self._idb:
                removed += self.database.count(pred)
        fresh = Database(chain(*kept, self._edb_facts, self._idb_facts))
        self.database = fresh
        # cached plans stay valid across swaps: plans hold no database
        # references.
        self._context.db = fresh
        return self._evaluate(cone, removed)

    def _evaluate(self, cone: set[str], facts_removed: int) -> UpdateStats:
        """Run the layered evaluation of the cone's rules over the
        database, whose cone holds only base and program facts."""
        stats = UpdateStats(
            mode="recompute", affected_predicates=len(cone),
            facts_removed=facts_removed,
        )
        for i, layer_components in enumerate(self._schedule):
            for component in layer_components:
                rules = tuple(
                    r for r in component.rules if r.head.pred in cone
                )
                if not rules:
                    continue
                scc = evaluate_component(
                    self.database,
                    component,
                    self._context,
                    layer=i,
                    rules=rules,
                )
                stats.fixpoint.merge(scc.fixpoint)
        self.last_update = stats
        return stats
