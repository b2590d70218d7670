"""The shared evaluation context: plan cache, planner policy, hooks.

Every evaluation strategy (layered bottom-up, incremental, magic,
tabled top-down) runs against an :class:`EvalContext` that owns

* the database under evaluation,
* the planner policy and, for size-aware policies, the current
  relation-cardinality snapshot,
* the executor choice (``"batch"`` compiled ID-row closures or the
  ``"tuple"`` one-binding-at-a-time reference; ``None`` defers to the
  process-wide default in :mod:`repro.engine.exec`),
* a cache of compiled :class:`~repro.engine.plan.RulePlan`s keyed by
  (rule, delta occurrence, initially-bound variables) — each distinct
  key is compiled at most once until the policy invalidates it,
* the :class:`~repro.observe.EngineHooks` sink and an optional
  :class:`~repro.observe.MetricsCollector`.

Hot paths guard hook dispatch behind the plain-attribute
:attr:`EvalContext.observing` flag (and timing behind
:attr:`EvalContext.timing`) so the no-op defaults cost one attribute
check.  The seed recomputed ``order_body`` every fixpoint iteration;
under the context the planner is a *re-plan policy*:

* ``"sized-once"`` (default) — cardinality-aware join ordering from
  live size snapshots (:meth:`refresh_sizes` updates them once per
  fixpoint iteration), but a plan compiled for a key is kept for the
  context's lifetime;
* ``"sized"`` — like ``"sized-once"`` but the plan cache is
  invalidated whenever the snapshot changes, so every rule re-plans
  against fresh statistics (the E15 planner experiment);
* ``"static"`` — sizes are never consulted; ordering falls back to
  the syntactic heuristic alone.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.plan import RulePlan, compile_rule
from repro.observe import EngineHooks, MetricsCollector, NULL_HOOKS, NullHooks
from repro.program.rule import Rule

#: planner policies accepted by :class:`EvalContext`.
PLANNERS = ("static", "sized", "sized-once")

#: policies that snapshot live relation sizes for join ordering.
_SIZE_AWARE = ("sized", "sized-once")


class EvalContext:
    """Evaluation-wide state shared by all strategies and layers."""

    __slots__ = (
        "db",
        "planner",
        "sized",
        "executor",
        "hooks",
        "observing",
        "metrics",
        "timing",
        "sizes",
        "_plans",
    )

    def __init__(
        self,
        db: Database | None = None,
        planner: str = "sized-once",
        hooks: EngineHooks | None = None,
        metrics: MetricsCollector | None = None,
        executor: str | None = None,
    ) -> None:
        self.db = db
        self.planner = planner
        # fixpoint loops test this plain attribute instead of calling
        # refresh_sizes() per iteration under the static policy.
        self.sized = planner in _SIZE_AWARE
        # None defers to repro.engine.exec.default_executor() at each
        # call, so set_default_executor affects existing contexts too.
        self.executor = executor
        self.hooks: EngineHooks = hooks if hooks is not None else NULL_HOOKS
        self.observing = not isinstance(self.hooks, NullHooks)
        self.metrics = metrics
        self.timing = metrics is not None
        self.sizes: dict[str, int] | None = None
        self._plans: dict[tuple, RulePlan] = {}
        if self.sized and db is not None:
            # seed the snapshot so even the first plans see live sizes
            self.sizes = {pred: db.count(pred) for pred in db.predicates()}

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
        key = (rule, first, initially_bound)
        plan = self._plans.get(key)
        if plan is not None:
            if self.timing:
                self.metrics.incr("plan_cache_hits")
            return plan
        if self.timing:
            start = self.metrics.now()
        plan = compile_rule(
            rule,
            first=first,
            sizes=self.sizes,
            initially_bound=initially_bound,
            planner=self.planner,
        )
        self._plans[key] = plan
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
        """A context for another database sharing this one's plan cache.

        Plans hold no database references, so one compiled (and
        specialized) plan serves any number of databases, one context
        each; the shared cache only ever gains entries under the
        ``"sized-once"`` policy, so concurrent contexts may fill it.
        """
        clone = EvalContext(
            db, planner=self.planner, hooks=hooks, metrics=self.metrics,
            executor=self.executor,
        )
        clone._plans = self._plans
        return clone

    def refresh_sizes(self) -> None:
        """Size-snapshot policy, called once per fixpoint iteration.

        Under ``"sized-once"`` (the default) the snapshot is updated so
        plans compiled *later* — new rules, new delta occurrences —
        order their joins against live cardinalities, but already-built
        plans are kept.  Under ``"sized"`` a changed snapshot also
        invalidates the plan cache, so the next :meth:`plan_for`
        re-plans with fresh statistics.  A no-op under the static
        policy (callers on hot paths skip the call entirely via
        :attr:`sized`).
        """
        if not self.sized or self.db is None:
            return
        sizes = {pred: self.db.count(pred) for pred in self.db.predicates()}
        if sizes != self.sizes:
            self.sizes = sizes
            if self.planner == "sized" and self._plans:
                if self.timing:
                    self.metrics.incr("plan_invalidations")
                self._plans.clear()

    @property
    def plans_cached(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:
        return (
            f"EvalContext(planner={self.planner!r}, "
            f"plans={len(self._plans)}, observing={self.observing})"
        )


def ensure_context(
    context: EvalContext | None, db: Database, planner: str = "sized-once"
) -> EvalContext:
    """The given context, or a fresh private one for direct calls.

    Strategy entry points accept ``context=None`` so the seed's
    call signatures keep working; callers that share a context get plan
    caching across layers, phases, and updates.
    """
    if context is not None:
        return context
    return EvalContext(db, planner=planner)
