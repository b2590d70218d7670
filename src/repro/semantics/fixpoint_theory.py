"""The classical immediate-consequence operator T_P (paper Section 2).

Section 2 recalls that classical logic-program semantics can be given
"model-theoretically and through lattice-theoretic fixed points"
([TARS55], [KE76]) — and then shows why *neither* transfers naively to
LDL1.  This module makes that executable:

* :func:`tp` — the immediate-consequence operator for *simple* rules
  (no grouping, no negation); monotone on the powerset lattice;
* :func:`lfp` — its least fixpoint by Kleene iteration from a base;
* :func:`tp_with_grouping` — the naive extension that also fires
  grouping rules; **not monotone**, and its "fixpoints" depend on the
  iteration schedule — the executable content of Section 2.3's
  negative results.

For simple programs, ``lfp(P, M)`` coincides with the engine's
``R(M)`` (tested), connecting the paper's operational Section 3.2 back
to the lattice view it generalizes.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import derive_facts
from repro.engine.grouping import apply_grouping_rule
from repro.errors import EvaluationError
from repro.program.rule import Atom, Program

Interpretation = frozenset[Atom]


def tp(
    program: Program,
    interpretation: Iterable[Atom],
    context: EvalContext | None = None,
) -> Interpretation:
    """One application of the immediate-consequence operator.

    Only defined for *simple* programs (positive, grouping-free):
    returns the heads of all rule instances whose bodies hold in the
    interpretation, together with the program's ground facts.  Raises
    for non-simple rules — the point of Section 2 is that they have no
    monotone T_P.  ``context`` shares compiled rule plans across
    applications (the Kleene iteration in :func:`lfp` passes one).
    """
    for rule in program.rules:
        if not rule.is_simple():
            raise EvaluationError(
                "T_P is only defined for simple rules (no grouping/negation)"
            )
    db = Database(interpretation)
    ctx = context or EvalContext(db)
    out: set[Atom] = set()
    for rule in program.rules:
        out.update(derive_facts(db, ctx.plan_for(rule)))
    return frozenset(out)


def lfp(
    program: Program, base: Iterable[Atom] = (), max_steps: int = 100_000
) -> Interpretation:
    """Least fixpoint of ``M ↦ base ∪ M ∪ T_P(M)`` by Kleene iteration."""
    current: Interpretation = frozenset(base)
    ctx = EvalContext()  # plans compiled once, reused every step
    for _ in range(max_steps):
        step = current | tp(program, current, context=ctx)
        if step == current:
            return current
        current = step
    raise EvaluationError(f"no fixpoint within {max_steps} steps")


def is_monotone_on(
    program: Program, smaller: Iterable[Atom], larger: Iterable[Atom]
) -> bool:
    """Check T_P(smaller) ⊆ T_P(larger) for one comparable pair."""
    small_set = frozenset(smaller)
    large_set = frozenset(larger)
    if not small_set <= large_set:
        raise ValueError("inputs must be ⊆-comparable")
    return tp(program, small_set) <= tp(program, large_set)


def tp_with_grouping(
    program: Program, interpretation: Iterable[Atom]
) -> Interpretation:
    """The *naive* grouping extension of T_P (for demonstrations).

    Fires simple rules as :func:`tp` and grouping rules by the
    Section 3.2 class construction over the given interpretation.  Not
    monotone: growing the interpretation can change (not just grow) a
    grouped set — the reason the paper abandons the lattice route and
    builds the layered operational semantics instead.
    """
    db = Database(interpretation)
    ctx = EvalContext(db)
    out: set[Atom] = set()
    for rule in program.rules:
        if rule.is_grouping():
            out.update(apply_grouping_rule(rule, db, context=ctx))
            continue
        if any(lit.negative for lit in rule.body):
            raise EvaluationError("negation is not supported by this operator")
        out.update(derive_facts(db, ctx.plan_for(rule)))
    return frozenset(out)
