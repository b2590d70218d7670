"""The per-run evaluation context: database, hooks, metrics, sizes.

Every evaluation strategy (layered bottom-up, incremental, magic,
tabled top-down) runs against an :class:`EvalContext` that owns

* the database under evaluation and its live relation-cardinality
  snapshot (:meth:`EvalContext.refresh_sizes` updates it once per
  fixpoint iteration, so plans compiled later order their joins
  against live sizes),
* the executor choice (``"batch"`` compiled ID-row closures or the
  ``"tuple"`` one-binding-at-a-time reference; ``None`` defers to the
  process-wide default in :mod:`repro.engine.exec`),
* the :class:`~repro.observe.EngineHooks` sink and an optional
  :class:`~repro.observe.MetricsCollector`.

Rule plans are not the run's: they come from a shared
:class:`~repro.engine.plan.PlanCache` — the compiled program's
(:mod:`repro.engine.compiled`), so every run of one program compiles
each (rule, delta occurrence, initially-bound variables) key once — or
a private one for a direct call that has no compiled program.

Hot paths guard hook dispatch behind the plain-attribute
:attr:`EvalContext.observing` flag (and timing behind
:attr:`EvalContext.timing`) so the no-op defaults cost one attribute
check.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.plan import PlanCache, RulePlan
from repro.observe import EngineHooks, MetricsCollector, NULL_HOOKS, NullHooks
from repro.program.rule import Rule


class EvalContext:
    """The state of one run: database, hooks, metrics, executor, sizes."""

    __slots__ = (
        "db",
        "plans",
        "executor",
        "hooks",
        "observing",
        "metrics",
        "timing",
        "sizes",
    )

    def __init__(
        self,
        db: Database | None = None,
        plans: PlanCache | None = None,
        hooks: EngineHooks | None = None,
        metrics: MetricsCollector | None = None,
        executor: str | None = None,
    ) -> None:
        self.db = db
        self.plans = plans if plans is not None else PlanCache()
        # None defers to repro.engine.exec.default_executor() at each
        # call, so set_default_executor affects existing contexts too.
        self.executor = executor
        self.hooks: EngineHooks = hooks if hooks is not None else NULL_HOOKS
        self.observing = not isinstance(self.hooks, NullHooks)
        self.metrics = metrics
        self.timing = metrics is not None
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
        (top-down sideways information).  Compilation fires
        ``on_plan_built`` and is timed under the ``plan`` phase.
        """
        if self.timing:
            start = self.metrics.now()
        plan, built = self.plans.get(rule, first, initially_bound, self.sizes)
        if not built:
            if self.timing:
                self.metrics.incr("plan_cache_hits")
            return plan
        if self.timing:
            self.metrics.add_time("plan", self.metrics.now() - start)
            self.metrics.incr("plans_built")
            self.metrics.record_join_order(plan)
        if self.observing:
            self.hooks.on_plan_built(plan)
        return plan

    def over(
        self, db: Database, hooks: EngineHooks | None = None
    ) -> "EvalContext":
        """A context for another database reading the same plans."""
        return EvalContext(
            db, self.plans, hooks=hooks, metrics=self.metrics,
            executor=self.executor,
        )

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
        return (
            f"EvalContext(plans={len(self.plans)}, "
            f"observing={self.observing})"
        )
