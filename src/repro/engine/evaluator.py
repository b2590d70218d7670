"""Layer-by-layer bottom-up evaluation (paper Theorem 1).

Given an admissible program P with layering ``L1, ..., Ln`` and a set
of U-facts ``M0``, computes ``Mn = Ln(...L1(M0))``: each layer first
applies its grouping rules once over the facts from below (the R1 step
of Lemma 3.2.3), then runs its remaining rules to fixpoint (R2).  The
result is a minimal model of P w.r.t. M0; for positive programs it is
the unique minimal model.

Within a layer the scheduler goes further than Theorem 1's single
fixpoint: the layer's predicates are condensed into strongly connected
components (:func:`repro.program.dependency.scc_schedule`), evaluated
in dependency order — non-recursive components in one semi-naive-free
pass, genuinely recursive components as their own (much smaller)
fixpoint.  Theorem 2 guarantees the model is the same.

Everything that depends on the rules alone — the check, the layering,
the schedule and the rule plans — comes from the program's
:class:`~repro.engine.compiled.CompiledProgram`, built once per
program.  Each run gets its own
:class:`~repro.engine.context.EvalContext` (database, observers);
every layer, SCC, iteration, rule firing and derived fact
is an event of :mod:`repro.observe`, which ``hooks`` and ``metrics``
subscribe to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Literal as TypingLiteral

from repro.engine.compiled import compile_program, load_base
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.fixpoint import (
    FixpointStats,
    install_rows,
    naive_fixpoint,
    seminaive_fixpoint,
    single_pass,
)
from repro.engine.grouping import fire_grouping_rule
from repro.engine.match import Binding, match_atom
from repro.errors import EvaluationError, NotInUniverseError
from repro.observe import MetricsCollector, Subscriber, compose_hooks
from repro.program.dependency import SCCComponent, scc_schedule
from repro.program.rule import Atom, Program, Query, Rule
from repro.program.stratify import Layering, validate_layering
from repro.terms.term import Term, Var, evaluate_ground
from repro.util import gc_paused

Strategy = TypingLiteral["naive", "seminaive"]


@dataclass
class SCCStats:
    """Work counters and wall time for one scheduled SCC."""

    preds: frozenset[str]
    recursive: bool
    grouping_facts: int = 0
    fixpoint: FixpointStats = field(default_factory=FixpointStats)
    seconds: float = 0.0


@dataclass
class LayerStats:
    """Per-layer work counters."""

    layer: int
    grouping_facts: int = 0
    fixpoint: FixpointStats = field(default_factory=FixpointStats)
    sccs: list[SCCStats] = field(default_factory=list)


@dataclass
class EvaluationResult:
    """The computed minimal model plus bookkeeping."""

    database: Database
    layering: Layering
    layer_stats: list[LayerStats]
    strategy: Strategy
    metrics: MetricsCollector | None = None

    @property
    def total_facts(self) -> int:
        return len(self.database)

    @property
    def total_iterations(self) -> int:
        return sum(s.fixpoint.iterations for s in self.layer_stats)

    @property
    def total_firings(self) -> int:
        return sum(s.fixpoint.rule_firings for s in self.layer_stats)

    def answers(self, query: Query) -> list[Binding]:
        """All bindings of the query's variables against the model."""
        return answer_query(self.database, query)

    def answer_atoms(self, query: Query) -> list[Atom]:
        """Matching facts, deterministically ordered."""
        out = []
        for args in _query_tuples(self.database, query):
            for _ in match_atom(query.atom, args, {}):
                out.append(Atom(query.atom.pred, args))
                break
        return sorted(out, key=lambda a: a.sort_key())


def evaluate_component(
    db: Database,
    component: SCCComponent,
    ctx: EvalContext,
    run_fixpoint=seminaive_fixpoint,
    layer: int | None = None,
    rules: Iterable[Rule] | None = None,
) -> SCCStats:
    """Evaluate one scheduled SCC against ``db``.

    Grouping rules apply once over the facts from below (the R1 step —
    their bodies read strictly lower predicates, so component order
    cannot starve them), then the remaining rules run as a fixpoint
    when the component is recursive or as a single pass when it is not.
    ``rules`` restricts the component's rules (incremental cones);
    ``layer`` tags the emitted SCC events and timings.
    """
    stats = SCCStats(component.preds, component.recursive)
    effective = component.rules if rules is None else tuple(rules)
    grouping = [r for r in effective if r.is_grouping()]
    other = [r for r in effective if not r.is_grouping()]
    on = ctx.on
    if on.scc_start is not None:
        on.scc_start(
            layer=layer, preds=component.preds, recursive=component.recursive
        )
    start = time.perf_counter()
    for rule in grouping:
        dr = fire_grouping_rule(rule, db, ctx)
        stats.grouping_facts += install_rows(ctx, db, rule, dr)
    if other:
        if component.recursive:
            stats.fixpoint = run_fixpoint(db, other, context=ctx)
        else:
            stats.fixpoint = single_pass(db, other, context=ctx)
    stats.seconds = time.perf_counter() - start
    if on.scc_end is not None:
        on.scc_end(
            layer=layer,
            preds=component.preds,
            recursive=component.recursive,
            new_facts=stats.grouping_facts + stats.fixpoint.facts_derived,
            seconds=stats.seconds,
        )
    return stats


@gc_paused()
def evaluate(
    program: Program,
    edb: Iterable[Atom] = (),
    strategy: Strategy = "seminaive",
    layering: Layering | None = None,
    hooks: Subscriber | None = None,
    metrics: MetricsCollector | None = None,
    executor: str | None = None,
    workers: int | None = None,
) -> EvaluationResult:
    """Compute the standard minimal model of ``program`` over ``edb``.

    ``layering`` overrides the canonical stratification (it is validated
    first); Theorem 2 guarantees the result does not depend on the
    choice.  ``strategy`` selects the fixpoint algorithm within
    recursive components.  ``hooks`` subscribes to the engine events
    (:data:`repro.observe.EVENTS` — e.g. a
    :class:`~repro.observe.TraceRecorder`); ``metrics`` is one more
    subscriber, collecting per-phase, per-layer and per-SCC wall-clock
    timings, and comes back as :attr:`EvaluationResult.metrics`.

    ``executor`` and ``workers`` are accepted and ignored — every rule
    body runs serially on the compiled lane; the keywords stay only
    because the frozen ledger probes still pass ``executor="tuple"`` and
    ``workers=2``, and go with those probes.  An executor name other
    than ``"batch"`` or ``"tuple"`` raises :class:`ValueError` before
    anything is loaded.
    """
    if executor not in (None, "batch", "tuple"):
        raise ValueError(
            f"unknown executor {executor!r}; expected 'batch' or 'tuple'"
        )
    compiled = compile_program(program)
    if strategy not in ("naive", "seminaive"):
        raise EvaluationError(f"unknown strategy {strategy!r}")
    if layering is None:
        layering, schedule = compiled.layering, compiled.schedule
    elif validate_layering(program, layering):
        schedule = scc_schedule(
            program, layering, compiled.graph, compiled.components
        )
    else:
        raise EvaluationError("supplied layering violates the layering conditions")

    on = compose_hooks(hooks, metrics)
    db = load_base(program, edb, on)
    ctx = EvalContext(db, compiled.plans, hooks=on)
    run_fixpoint = naive_fixpoint if strategy == "naive" else seminaive_fixpoint

    layer_stats: list[LayerStats] = []
    for i, components in enumerate(schedule):
        stats = LayerStats(layer=i)
        if on.layer_start is not None:
            on.layer_start(
                layer=i,
                rules=[
                    r for r in layering.rules_in_layer(program, i)
                    if not r.is_fact()
                ],
            )
        start = time.perf_counter()
        for component in components:
            scc = evaluate_component(db, component, ctx, run_fixpoint, layer=i)
            stats.sccs.append(scc)
            stats.grouping_facts += scc.grouping_facts
            stats.fixpoint.merge(scc.fixpoint)
        if on.layer_end is not None:
            on.layer_end(
                layer=i,
                new_facts=stats.grouping_facts + stats.fixpoint.facts_derived,
                seconds=time.perf_counter() - start,
            )
        layer_stats.append(stats)
    return EvaluationResult(db, layering, layer_stats, strategy, metrics)


def _query_tuples(db: Database, query: Query) -> Iterable[tuple[Term, ...]]:
    """Candidate tuples for a query atom, probed by ground positions.

    Ground query arguments form an index signature routed through
    :meth:`Database.lookup` instead of scanning the whole relation.  An
    argument that evaluates outside U makes the query unsatisfiable.
    """
    positions: list[int] = []
    key_parts: list[Term] = []
    for i, arg in enumerate(query.atom.args):
        if arg.is_ground():
            try:
                key_parts.append(evaluate_ground(arg))
            except (NotInUniverseError, EvaluationError):
                return ()
            positions.append(i)
    return db.lookup(query.atom.pred, tuple(positions), tuple(key_parts))


def answer_rows(db: Database, query: Query) -> tuple[tuple[Term, ...], ...]:
    """The stored argument tuples the query atom matches, sorted.

    The row-valued sibling of :func:`answer_query` (one index probe,
    one sort, no bindings): what the answer cache stores, because rows
    for a pattern can answer any more-bound query later by re-matching.

    The sort keys only the free (non-ground) positions.  The probe
    returns rows holding one equality class at every bound position,
    and ``sort_key`` ignores the quoting that is all a spelling can
    change there, so those columns would compare equal anyway: the
    order is that of a key over every column, and ``sorted`` is stable.
    """
    atom = query.atom
    rows = _query_tuples(db, query)
    free = [i for i, arg in enumerate(atom.args) if not arg.is_ground()]
    patterns = {atom.args[i] for i in free}
    if not all(isinstance(arg, Var) for arg in patterns) or len(patterns) < len(free):
        # compound patterns or repeated variables: match row by row
        rows = [
            args for args in rows
            if next(iter(match_atom(atom, args, {})), None) is not None
        ]
    else:
        rows = list(rows)
    if not rows or len(rows[0]) != len(atom.args):
        return ()  # no row of another arity matches
    if len(free) == 1:
        (i,) = free
        rows.sort(key=lambda r: r[i].sort_key())
    elif free:
        rows.sort(key=lambda r: [r[i].sort_key() for i in free])
    return tuple(rows)


def answer_query(db: Database, query: Query) -> list[Binding]:
    """Match a query atom against the database; sorted distinct bindings."""
    answers: list[Binding] = []
    seen: set[frozenset] = set()
    for args in _query_tuples(db, query):
        for binding in match_atom(query.atom, args, {}):
            key = frozenset(binding.items())
            if key not in seen:
                seen.add(key)
                answers.append(binding)
    answers.sort(
        key=lambda b: tuple(
            (name, value.sort_key()) for name, value in sorted(b.items())
        )
    )
    return answers
