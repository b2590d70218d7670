"""Constrained bottom-up evaluation of magic-rewritten programs (§6).

The rewritten program is *not* layered (magic predicates cycle with the
rules they guard), so plain stratified evaluation does not apply.  Per
the paper, grouping rules and rules with negation on derived predicates
must see fully evaluated bodies *for each magic tuple*; the evaluation
therefore alternates:

1. **saturation** — semi-naive fixpoint of all magic rules and
   non-deferred modified rules (all positive, so order-free);
2. **deferred step** — one application of each deferred rule
   (grouping / negation on derived predicates) against the saturated
   database, lowest layer of the original program first; a layer that
   derives anything new ends the step before any higher layer runs,
   since a higher layer's rules may negate or group over what it
   derived (and over the demand that derivation creates);

repeating until the deferred step derives nothing new.  A final
validation recomputes every deferred rule and checks it derives exactly
the facts recorded during the run — catching any violation of the
saturation argument (e.g. a group that grew after it was formed) and
raising :class:`UnstableMagicEvaluationError`.

The saturation step itself is SCC-condensed
(:func:`repro.program.dependency.condense_program`): the rewritten
rules' dependency graph is condensed once, and each sweep evaluates the
components in dependency order — non-recursive components with a single
rule application, recursive ones as their own small fixpoint.

Everything above except the seed fact depends only on the query's
predicate and adornment, so it is built once, as a
:class:`PreparedQuery` (memoized per form by
:meth:`~repro.engine.compiled.CompiledProgram.prepare`), and run per
request over an overlay that *shares* the base database's relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.engine.compiled import base_database, compile_program
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.evaluator import answer_query, answer_rows
from repro.engine.fixpoint import FixpointStats, seminaive_fixpoint, single_pass
from repro.program.dependency import condense_program
from repro.engine.exec import derive_facts
from repro.engine.grouping import apply_grouping_rule
from repro.engine.match import Binding
from repro.engine.relation import ArgTuple
from repro.errors import (
    EvaluationError,
    MagicRewriteError,
    NotInUniverseError,
    UnstableMagicEvaluationError,
)
from repro.observe import Subscriber
from repro.magic.adornment import unadorned_name
from repro.magic.rewrite import MagicProgram, magic_rewrite
from repro.program.rule import Atom, Program, Query, Rule
from repro.terms.term import evaluate_ground


@dataclass
class MagicStats:
    """Work counters for a constrained magic evaluation."""

    phases: int = 0
    saturation: FixpointStats = field(default_factory=FixpointStats)
    deferred_facts: int = 0


@dataclass
class MagicResult:
    """Outcome of evaluating a query by magic sets.

    ``database`` holds the adorned / magic facts derived for this query
    next to the base relations it read, which it shares with the base
    database it ran over rather than copying.
    """

    database: Database
    magic_program: MagicProgram
    stats: MagicStats

    @property
    def total_facts(self) -> int:
        return len(self.database)

    def answers(self) -> list[Binding]:
        """Bindings of the query's variables."""
        query = self.magic_program.adorned.query
        adorned_query = Query(
            Atom(self.magic_program.answer_pred, query.atom.args)
        )
        return answer_query(self.database, adorned_query)

    def answer_atoms(self) -> list[Atom]:
        """Matching answer facts under the *original* predicate name."""
        query = self.magic_program.adorned.query
        out = []
        for binding in self.answers():
            atom = query.atom.substitute(binding)
            args = tuple(evaluate_ground(a) for a in atom.args)
            out.append(Atom(query.atom.pred, args))
        return sorted(set(out), key=lambda a: a.sort_key())


def _apply_deferred(rule: Rule, db: Database, ctx: EvalContext) -> list[Atom]:
    if rule.is_grouping():
        return list(apply_grouping_rule(rule, db, context=ctx))
    return derive_facts(db, ctx.plan_for(rule), executor=ctx.executor)


class PreparedQuery:
    """One query *form*, rewritten and planned for repeated execution.

    Section 6 makes the rewrite a function of the query predicate and
    its adornment alone; the bound constants enter only through the
    seed fact ``m_p__a(c)``.  So per (program, rewrite algorithm,
    predicate, effective adornment) — :attr:`key`, within one program —
    this object holds what does not depend on them: the rewritten
    rules, the condensed saturation schedule and the deferred rules.
    Rule plans come from the program's
    :class:`~repro.engine.compiled.CompiledProgram`, which checked and
    layered the rules once.  It is never mutated after construction,
    so concurrent runs may use one instance.

    :meth:`run` evaluates one seed over an *overlay* of a base database
    (see :func:`~repro.engine.compiled.base_database`): the base's
    relations are shared as they are, read-only — no copy, no
    copy-on-write flag — the original derived predicates are hidden,
    and only the adorned / magic / supplementary predicates get fresh
    relations.
    """

    __slots__ = (
        "program", "rewrite", "magic_program", "schedule", "deferred",
        "private", "plans",
    )

    def __init__(
        self,
        program: Program,
        query: Query,
        rewrite=magic_rewrite,
    ) -> None:
        compiled = compile_program(program)
        mp = rewrite(program, query)
        self.program = program
        self.rewrite = rewrite
        #: the rewritten program; its ``seed`` and ``adorned.query`` are
        #: those of the query it was prepared from.
        self.magic_program = mp
        self.schedule = tuple(
            c
            for c in condense_program(
                Program(mp.magic_rules + mp.modified_rules)
            )
            if c.rules
        )
        #: the deferred rules grouped by the original program's layer
        #: of their head predicate, lowest first.
        layering = compiled.layering
        by_layer: dict[int, list[Rule]] = {}
        for rule in mp.deferred_rules:
            layer = layering.index(unadorned_name(rule.head.pred))
            by_layer.setdefault(layer, []).append(rule)
        self.deferred = tuple(
            tuple(by_layer[layer]) for layer in sorted(by_layer)
        )
        heads = {(r.head.pred, len(r.head.args)) for r in mp.all_rules()}
        heads.add((mp.seed.pred, mp.seed.arity))
        #: (predicate, arity) of every relation a run writes.
        self.private = tuple(sorted(heads))
        self.plans = compiled.plans

    @property
    def key(self) -> tuple:
        adorned = self.magic_program.adorned
        return (self.rewrite, adorned.query.atom.pred, adorned.query_adornment)

    def seed_for(self, query: Query) -> ArgTuple:
        """The seed tuple of ``query``: its arguments at the bound
        positions, evaluated to U-values."""
        adorned = self.magic_program.adorned
        atom = query.atom
        if (
            atom.pred != adorned.query.atom.pred
            or len(atom.args) != len(adorned.query_adornment)
        ):
            raise MagicRewriteError(
                f"{query!r} is not of the prepared form "
                f"{adorned.query.atom.pred}/{adorned.query_adornment}"
            )
        try:
            return tuple(
                evaluate_ground(arg)
                for marker, arg in zip(adorned.query_adornment, atom.args)
                if marker == "b"
            )
        except (EvaluationError, NotInUniverseError) as exc:
            raise MagicRewriteError(
                f"cannot evaluate query constants: {exc}"
            ) from exc

    def run(
        self,
        seed: ArgTuple,
        base: Database,
        hooks: Subscriber | None = None,
        max_phases: int = 10_000,
    ) -> tuple[Database, MagicStats]:
        """Evaluate the rewritten program for one seed tuple over
        ``base``; returns the overlay database and the work counters."""
        mp = self.magic_program
        db = base.overlay(self.private, hidden=mp.adorned.idb_predicates)
        db.add(Atom(mp.seed.pred, seed))
        derived_by_rule: dict[Rule, set[Atom]] = {
            r: set() for r in mp.deferred_rules
        }
        stats = MagicStats()
        ctx = EvalContext(db, self.plans, hooks=hooks)

        while True:
            stats.phases += 1
            if stats.phases > max_phases:
                raise UnstableMagicEvaluationError(
                    f"no fixpoint after {max_phases} phases"
                )
            for component in self.schedule:
                if component.recursive:
                    stats.saturation.merge(
                        seminaive_fixpoint(db, component.rules, context=ctx)
                    )
                else:
                    stats.saturation.merge(
                        single_pass(db, component.rules, context=ctx)
                    )
            changed = False
            for layer_rules in self.deferred:
                for rule in layer_rules:
                    for fact in _apply_deferred(rule, db, ctx):
                        derived_by_rule[rule].add(fact)
                        if db.add(fact):
                            stats.deferred_facts += 1
                            changed = True
                if changed:
                    break
            if not changed:
                break

        # stability validation: every deferred rule, recomputed now, must
        # derive exactly what it derived during the run.
        for rule in mp.deferred_rules:
            final = set(_apply_deferred(rule, db, ctx))
            if final != derived_by_rule[rule]:
                raise UnstableMagicEvaluationError(
                    "deferred rule derivations changed after fixpoint: "
                    f"{rule!r}"
                )
        return db, stats

    def answer(
        self,
        query: Query,
        base: Database,
        hooks: Subscriber | None = None,
        max_phases: int = 10_000,
    ) -> MagicResult:
        """Run for ``query``'s constants; the full :class:`MagicResult`."""
        seed = self.seed_for(query)
        db, stats = self.run(seed, base, hooks=hooks, max_phases=max_phases)
        mp = self.magic_program
        return MagicResult(
            db,
            replace(
                mp,
                seed=Atom(mp.seed.pred, seed),
                adorned=replace(mp.adorned, query=query),
            ),
            stats,
        )

    def rows(
        self, query: Query, base: Database, hooks: Subscriber | None = None
    ) -> tuple[ArgTuple, ...]:
        """Run for ``query``'s constants; the sorted ground argument
        rows of the matching answer facts, read straight off the
        adorned answer relation."""
        db, _ = self.run(self.seed_for(query), base, hooks=hooks)
        return answer_rows(
            db, Query(Atom(self.magic_program.answer_pred, query.atom.args))
        )


def evaluate_magic(
    program: Program,
    query: Query,
    edb: Iterable[Atom] = (),
    max_phases: int = 10_000,
    rewrite=magic_rewrite,
    hooks: Subscriber | None = None,
) -> MagicResult:
    """Answer ``query`` over ``program`` + ``edb`` via magic sets.

    Equivalent (Theorem 4) to computing the full minimal model and
    matching the query, but restricted to facts relevant to the query's
    constants.  ``rewrite`` selects the rewriting algorithm (default:
    Generalized Magic Sets; see
    :func:`repro.magic.supplementary.supplementary_rewrite`).  One-shot
    form of :class:`PreparedQuery`: take the program's prepared form,
    build the base, run once.
    """
    prepared = compile_program(program).prepare(query, rewrite)
    return prepared.answer(
        query, base_database(program, edb), hooks=hooks, max_phases=max_phases
    )
