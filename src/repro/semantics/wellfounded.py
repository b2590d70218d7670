"""Well-founded semantics: life beyond admissibility (paper §7).

The paper's first open problem — "whether admissibility is too
restrictive a concept" ([SN86]) — was answered by the field shortly
after with the *well-founded semantics* (Van Gelder, Ross, Schlipf),
which assigns every program with negation a three-valued model: facts
that are definitely **true**, definitely **false**, or **undefined**
(caught in unresolvable negative loops).

This module implements it by the classical alternating fixpoint:

* ``reduct(J)`` — the least model of the program with every negative
  literal evaluated against the fixed interpretation ``J`` (¬q holds
  iff q ∉ J); anti-monotone in J;
* alternating ``U_{k+1} = reduct(O_k)``, ``O_{k+1} = reduct(U_{k+1})``
  from ``U_0 = ∅`` converges to the least fixpoint of ``reduct²``
  (the true facts) and the greatest (the non-false facts).

For admissible programs the well-founded model is total and coincides
with the paper's standard model (tested, including over random
generated programs).  Grouping is not supported here — a grouped set is
not three-valued-monotone — so programs with grouping rules are
rejected; use the stratified evaluator for those.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Iterable

from repro.engine.compiled import base_database
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import derive_facts
from repro.errors import EvaluationError
from repro.program.rule import Atom, Program
from repro.program.wellformed import check_program


@dataclass
class WellFoundedModel:
    """The three-valued result."""

    true: frozenset[Atom]
    undefined: frozenset[Atom]
    rounds: int

    def is_total(self) -> bool:
        """Two-valued: nothing undefined."""
        return not self.undefined

    def value_of(self, fact: Atom) -> str:
        if fact in self.true:
            return "true"
        if fact in self.undefined:
            return "undefined"
        return "false"


def _reduct(
    program: Program, base: Database, assumed: Database, ctx: EvalContext
) -> Database:
    """Least model with ¬q decided against the fixed ``assumed`` set.

    Rule plans come from the shared ``ctx`` (compiled once per
    ``wellfounded`` call, not once per reduct iteration) and run through
    the engine's one executor pipeline with negation checked against
    ``assumed``.
    """
    db = base.copy()
    plans = [ctx.plan_for(rule) for rule in program.proper_rules()]
    changed = True
    while changed:
        changed = False
        for plan in plans:
            for fact in derive_facts(db, plan, negation_db=assumed):
                if db.add(fact):
                    changed = True
    return db


def wellfounded(
    program: Program,
    edb: Iterable[Atom] = (),
    check: bool = True,
    max_rounds: int = 10_000,
) -> WellFoundedModel:
    """Compute the well-founded model of a (possibly non-admissible)
    program with negation.

    ``true`` are the facts in every reasonable model; ``undefined`` are
    those caught in negative cycles (e.g. draws in the win-move game).
    Such a program need not be admissible, so it has no
    :class:`~repro.engine.compiled.CompiledProgram`: ``check`` runs the
    well-formedness and safety checks here, and the plans are private.
    """
    if check:
        check_program(program)
    for rule in program.rules:
        if rule.is_grouping():
            raise EvaluationError(
                "well-founded semantics does not cover grouping rules; "
                "use the stratified evaluator"
            )

    base = base_database(program, edb)

    # one context for the whole alternating fixpoint: every reduct
    # reuses the same compiled plans.
    ctx = EvalContext(base)

    # O_0 = Γ(∅): with nothing assumed true every negation succeeds,
    # giving the most generous overestimate; `under` starts as a
    # placeholder that the first comparison always rejects.
    under = base.copy()
    over = _reduct(program, base, Database(), ctx)
    rounds = 1
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise EvaluationError("alternating fixpoint did not converge")
        new_under = _reduct(program, base, over, ctx)
        new_over = _reduct(program, base, new_under, ctx)
        if new_under == under and new_over == over:
            break
        under, over = new_under, new_over

    true_facts = under.as_set()
    undefined = over.as_set() - true_facts
    return WellFoundedModel(true_facts, frozenset(undefined), rounds)
