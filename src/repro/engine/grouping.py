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

The group-by runs in ID space.  The rule's plan carries the template
of its *pre-group* head ``p(t1, ..., Y, ..., tn)``
(:func:`~repro.engine.plan.compile_rule`), so
:func:`~repro.engine.exec.derive_rows` yields one ID row per applicable
binding — interpreted head terms evaluated, facts outside U dropped.
:func:`grouped_rows` hashes those rows on the non-grouped slots into
``{key: set of value row IDs}`` and builds each group's set with the
row-ID set constructor
:func:`~repro.terms.term.set_rid`; since row IDs are equality classes,
keys and set elements compare exactly as the terms do.  The fixpoint
installs the result with one ``Database.add_rows``;
:func:`apply_grouping_rule` decodes the same rows into atoms.
"""

from __future__ import annotations

from operator import itemgetter
from time import perf_counter
from typing import Iterator

from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import DerivedRows, derive_rows, enumerate_bindings
from repro.engine.relation import decode_row
from repro.errors import EvaluationError
from repro.program.rule import Atom, Rule
from repro.terms.pretty import format_rule
from repro.terms.term import _ID_TABLE, Var, set_rid


def group_spec(rule: Rule) -> tuple[int, str]:
    """The position and variable of a base-LDL1 grouping head's ``<Y>``."""
    positions = rule.head.group_positions()
    if len(positions) != 1:
        raise EvaluationError(
            f"not a base-LDL1 grouping rule: {format_rule(rule)}"
        )
    position = positions[0]
    inner = rule.head.args[position].inner
    if not isinstance(inner, Var):
        raise EvaluationError(
            f"grouping over a non-variable (compile LDL1.5 first): {format_rule(rule)}"
        )
    return position, inner.name


def grouped_rows(
    rule: Rule, db: Database, context: EvalContext | None = None
) -> DerivedRows:
    """The facts one grouping rule derives over ``db``, as ID rows: one
    row per non-empty group.

    An unbound grouped variable is a range-restriction violation and
    raises :class:`EvaluationError` as soon as the body has a binding.
    A group's key slots are spelled as the first row derived in it.
    """
    position, group_var = group_spec(rule)
    ctx = context or EvalContext(db)
    plan = ctx.plan_for(rule)
    pred, arity = rule.head.pred, len(rule.head.args)
    steps = ctx.on.exec_steps
    if not any(
        group_var in lit.atom.variables() for lit in rule.body if lit.positive
    ):
        for _binding in enumerate_bindings(db, plan, steps=steps):
            raise EvaluationError(
                f"grouped variable {group_var} unbound by body: {format_rule(rule)}"
            )
        return DerivedRows(pred, arity, [], None)
    pre = derive_rows(db, plan, steps=steps)
    others = [i for i in range(arity) if i != position]
    key_of = itemgetter(*others) if others else (lambda row: ())
    groups: dict = {}
    get = groups.get
    for row in pre.rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            groups[key] = {row[position]}
        else:
            bucket.add(row[position])
    if len(others) == 1:  # a bare-ID key
        rows = [
            (key, set_rid(values)) if position else (set_rid(values), key)
            for key, values in groups.items()
        ]
    else:
        rows = [
            key[:position] + (set_rid(values),) + key[position:]
            for key, values in groups.items()
        ]
    decode = None
    if pre.decode is not None:
        # spell each group's key slots as its first derived row
        first: dict = {}
        for row in pre.rows:
            first.setdefault(key_of(row), row)
        spelled = {}
        for key, row in zip(groups, rows):
            args = list(pre.decode(first[key]))
            args[position] = _ID_TABLE[row[position]]
            spelled[row] = tuple(args)
        decode = spelled.__getitem__
    return DerivedRows(pred, arity, rows, decode)


def fire_grouping_rule(
    rule: Rule, db: Database, ctx: EvalContext
) -> DerivedRows:
    """:func:`grouped_rows`, reported to a ``rule_fired`` handler with
    ``derived`` the number of groups."""
    fired = ctx.on.rule_fired
    start = perf_counter() if fired is not None else 0.0
    dr = grouped_rows(rule, db, ctx)
    if fired is not None:
        fired(rule=rule, derived=len(dr.rows), seconds=perf_counter() - start)
    return dr


def _atoms(dr: DerivedRows) -> list[Atom]:
    decode = dr.decode or decode_row
    out = []
    for row in dr.rows:
        fact = Atom(dr.pred, decode(row))
        fact._ground = True
        fact._row = row
        out.append(fact)
    return out


def apply_grouping_rule(
    rule: Rule, db: Database, context: EvalContext | None = None
) -> Iterator[Atom]:
    """Yield the facts derived by one grouping rule over ``db``.

    This is the paper's ``r(M)`` for rules with a ``<X>`` head
    occurrence: ``p Sigma_j`` for every equivalence class ``Sigma_j``
    with a non-empty, finite grouped set.
    """
    yield from _atoms(grouped_rows(rule, db, context))


def apply_grouping_rules(
    rules, db: Database, context: EvalContext | None = None
) -> list[Atom]:
    """Apply every grouping rule once over ``db`` (the R1(M) step)."""
    ctx = context or EvalContext(db)
    derived: list[Atom] = []
    for rule in rules:
        derived.extend(_atoms(fire_grouping_rule(rule, db, ctx)))
    return derived
