"""Model checking against the Section 2.2 truth definition.

An interpretation is a set of U-facts (ground atoms); it is a *model*
when every rule evaluates to true.  For an ordinary rule this is the
usual implication; for a grouping rule
``p(t1, ..., <Y>, ..., tn) <- body`` the formula is true when, for
every equivalence class of body bindings with a non-empty finite set of
``Y`` values, the head fact with the grouped set is present.

Model checking is restricted to range-restricted rules (every variable
bound through positive body literals or built-in modes), which covers
every program in the paper and keeps the candidate bindings enumerable
from the finite interpretation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import enumerate_bindings
from repro.engine.grouping import apply_grouping_rule
from repro.engine.match import ground_atom
from repro.program.rule import Atom, Program, Rule

Interpretation = frozenset[Atom]


class Violation(NamedTuple):
    """A witness that a rule is false under an interpretation."""

    rule: Rule
    missing_head: Atom


def _as_database(interpretation: Iterable[Atom]) -> Database:
    return Database(interpretation)


def violations(
    program: Program, interpretation: Iterable[Atom]
) -> Iterator[Violation]:
    """Yield one witness per rule falsified by ``interpretation``."""
    facts = frozenset(interpretation)
    db = _as_database(facts)
    ctx = EvalContext(db)
    for rule in program.rules:
        if rule.is_grouping():
            for fact in apply_grouping_rule(rule, db, context=ctx):
                if fact not in facts:
                    yield Violation(rule, fact)
                    break
            continue
        for binding in enumerate_bindings(
            db, ctx.plan_for(rule), executor=ctx.executor
        ):
            head = ground_atom(rule.head, binding)
            if head is None or head not in facts:
                missing = head if head is not None else rule.head.substitute(binding)
                yield Violation(rule, missing)
                break


def is_model(program: Program, interpretation: Iterable[Atom]) -> bool:
    """True when ``interpretation`` satisfies every rule of ``program``."""
    for _ in violations(program, interpretation):
        return False
    return True


def first_violation(
    program: Program, interpretation: Iterable[Atom]
) -> Violation | None:
    """The first falsifying witness, or None for a model."""
    for violation in violations(program, interpretation):
        return violation
    return None
