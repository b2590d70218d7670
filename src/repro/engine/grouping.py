"""Evaluation of grouping rules (paper Section 3.2, Lemma 3.2.3).

A grouping rule ``p(t1, ..., <Y>, ..., tn) <- body`` is applied *once*
per layer, over the facts of the layers below: bindings of the body are
partitioned into equivalence classes by the interpreted values of the
non-grouped head terms (the paper's ``theta1 == theta2`` relation), and
each non-empty class contributes one fact whose grouped argument is the
finite set of ``Y`` values in the class.

Empty classes contribute nothing — the formula is true with no head
fact "when the set of elements to be grouped is empty" — and finiteness
is automatic over a finite database.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Iterator, Mapping

from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import enumerate_bindings
from repro.errors import EvaluationError, NotInUniverseError
from repro.program.rule import Atom, Rule
from repro.terms.pretty import format_rule
from repro.terms.term import SetVal, Term, Var, evaluate_ground, intern_term


def group_bindings(
    bindings: Iterable[Mapping[str, Term]],
    group_var: str,
    other_terms: Iterable[tuple[int, Term]],
    describe,
) -> dict[tuple[Term, ...], set[Term]]:
    """Batch group-by for grouping rules: bucket the grouped variable's
    canonical values under the canonical key of the remaining head
    arguments.

    An unbound grouped variable is a range-restriction violation and
    raises :class:`EvaluationError` (``describe()`` supplies the message
    context); bindings whose key or value falls outside U drop out,
    exactly as the per-binding path did.  An empty batch yields no
    groups; duplicate bindings collapse in the value *sets*.
    """
    other_terms = tuple(other_terms)
    groups: dict[tuple[Term, ...], set[Term]] = {}
    for binding in bindings:
        value_term = binding.get(group_var)
        if value_term is None:
            raise EvaluationError(
                f"grouped variable {group_var} unbound by body: {describe()}"
            )
        try:
            key = tuple(
                evaluate_ground(term.substitute(binding))
                for _pos, term in other_terms
            )
            value = evaluate_ground(value_term)
        except (NotInUniverseError, EvaluationError):
            continue
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = {value}
        else:
            bucket.add(value)
    return groups


def apply_grouping_rule(
    rule: Rule, db: Database, context: EvalContext | None = None
) -> Iterator[Atom]:
    """Yield the facts derived by one grouping rule over ``db``.

    This is the paper's ``r(M)`` for rules with a ``<X>`` head
    occurrence: ``p Sigma_j`` for every equivalence class ``Sigma_j``
    with a non-empty, finite grouped set.
    """
    positions = rule.head.group_positions()
    if len(positions) != 1:
        raise EvaluationError(
            f"not a base-LDL1 grouping rule: {format_rule(rule)}"
        )
    group_position = positions[0]
    group_inner = rule.head.args[group_position].inner
    if not isinstance(group_inner, Var):
        raise EvaluationError(
            f"grouping over a non-variable (compile LDL1.5 first): {format_rule(rule)}"
        )
    group_var = group_inner.name
    other_terms: list[tuple[int, Term]] = [
        (i, arg) for i, arg in enumerate(rule.head.args) if i != group_position
    ]

    ctx = context or EvalContext(db)
    bindings = enumerate_bindings(
        db,
        ctx.plan_for(rule),
        executor=ctx.executor,
        steps=ctx.on.exec_steps,
    )
    groups = group_bindings(
        bindings, group_var, other_terms, lambda: format_rule(rule)
    )

    for key, values in groups.items():
        args: list[Term] = [None] * len(rule.head.args)  # type: ignore[list-item]
        for (i, _), value in zip(other_terms, key):
            args[i] = value
        # grouped values are evaluate_ground outputs, and the grouped
        # set is probed heavily downstream (partition, member): build
        # trusted and intern so those probes hit the identity fast path.
        args[group_position] = intern_term(SetVal.from_ground(values))
        yield Atom(rule.head.pred, tuple(args))


def apply_grouping_rules(
    rules, db: Database, context: EvalContext | None = None
) -> list[Atom]:
    """Apply every grouping rule once over ``db`` (the R1(M) step)."""
    ctx = context or EvalContext(db)
    fired = ctx.on.rule_fired
    derived: list[Atom] = []
    for rule in rules:
        start = perf_counter()
        facts = list(apply_grouping_rule(rule, db, context=ctx))
        if fired is not None:
            fired(rule=rule, derived=len(facts), seconds=perf_counter() - start)
        derived.extend(facts)
    return derived
