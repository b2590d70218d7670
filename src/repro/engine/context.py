"""The per-run evaluation context: database, observers, executor, sizes.

Every evaluation strategy (layered bottom-up, incremental, magic,
tabled top-down) runs against an :class:`EvalContext` that owns

* the database under evaluation and its live relation-cardinality
  snapshot (:meth:`EvalContext.refresh_sizes` updates it once per
  fixpoint iteration, so plans compiled later order their joins
  against live sizes),
* the executor choice (``"batch"`` compiled ID-row closures or the
  ``"tuple"`` one-binding-at-a-time reference; ``None`` defers to the
  process-wide default in :mod:`repro.engine.exec`),
* :attr:`EvalContext.on`, the run's :class:`~repro.observe.Dispatcher`:
  the ``hooks`` and ``metrics`` subscribers resolved once into one
  handler per event (:data:`repro.observe.EVENTS`).

Rule plans are not the run's: they come from a shared
:class:`~repro.engine.plan.PlanCache` — the compiled program's
(:mod:`repro.engine.compiled`), so every run of one program compiles
each (rule, delta occurrence, initially-bound variables) key once — or
a private one for a direct call that has no compiled program.

Every emitter guards with ``if ctx.on.<event> is not None``, and times
only what a subscriber will receive, so an unobserved run pays one
attribute check per event site.
"""

from __future__ import annotations

from time import perf_counter

from repro.engine.database import Database
from repro.engine.plan import PlanCache, RulePlan
from repro.observe import MetricsCollector, Subscriber, compose_hooks
from repro.program.rule import Rule


class EvalContext:
    """The state of one run: database, observers, executor, sizes."""

    __slots__ = ("db", "plans", "executor", "on", "sizes")

    def __init__(
        self,
        db: Database | None = None,
        plans: PlanCache | None = None,
        hooks: Subscriber | None = None,
        metrics: MetricsCollector | None = None,
        executor: str | None = None,
    ) -> None:
        self.db = db
        self.plans = plans if plans is not None else PlanCache()
        # None defers to repro.engine.exec.default_executor() at each
        # call, so set_default_executor affects existing contexts too.
        self.executor = executor
        self.on = compose_hooks(hooks, metrics)
        self.sizes: dict[str, int] | None = None
        # seed the snapshot so even the first plans see live sizes
        self.refresh_sizes()

    def plan_for(
        self,
        rule: Rule,
        first: int | None = None,
        initially_bound: frozenset[str] = frozenset(),
    ) -> RulePlan:
        """The compiled plan for ``rule``, compiled at most once per key.

        ``first`` pins a body occurrence to the front (the semi-naive
        delta); ``initially_bound`` seeds the bound-variable set
        (top-down sideways information).  Compilation emits
        ``plan_built``, a cache hit ``plan_reused``.
        """
        on = self.on
        start = perf_counter() if on.plan_built is not None else 0.0
        plan, built = self.plans.get(rule, first, initially_bound, self.sizes)
        if built:
            if on.plan_built is not None:
                on.plan_built(plan=plan, seconds=perf_counter() - start)
        elif on.plan_reused is not None:
            on.plan_reused(plan=plan)
        return plan

    def over(self, db: Database) -> "EvalContext":
        """A context for another database with the same plans,
        observers and executor."""
        return EvalContext(db, self.plans, hooks=self.on, executor=self.executor)

    def refresh_sizes(self) -> None:
        """Snapshot live relation sizes; called once per fixpoint
        iteration.  Plans compiled *later* — new rules, new delta
        occurrences — order their joins against them; plans already
        built are kept."""
        if self.db is not None:
            self.sizes = {
                pred: self.db.count(pred) for pred in self.db.predicates()
            }

    def __repr__(self) -> str:
        return f"EvalContext(plans={len(self.plans)}, on={self.on!r})"
