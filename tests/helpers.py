"""Shared helpers for the LDL1 test suite."""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.engine import evaluate
from repro.errors import EvaluationError, NotInUniverseError
from repro.parser import parse_program
from repro.program.rule import Atom
from repro.terms.pretty import format_atom, format_rule
from repro.terms.term import SetVal, Term, evaluate_ground, intern_term


def run(src: str, strategy: str = "seminaive", **kwargs):
    """Parse and evaluate a program, returning the EvaluationResult."""
    program, _ = parse_program(src)
    return evaluate(program, strategy=strategy, **kwargs)


def facts_of(result, pred: str) -> set[str]:
    """The extension of one predicate, as formatted strings."""
    return {format_atom(a) for a in result.database.atoms(pred)}


def assert_sizes_do_not_change_facts(program, db) -> None:
    """Join order is an optimization, not a semantics.

    For every rule of ``program`` and every body occurrence it can be
    pinned to, a plan compiled with ``sizes=None`` (syntactic order)
    and one compiled against ``db``'s live relation sizes derive the
    same facts over ``db`` — for grouping rules, the pre-group head's.
    """
    from repro.engine.exec import derive_facts, enumerate_bindings
    from repro.engine.plan import compile_rule
    from repro.names import is_builtin_predicate

    def derived(plan):
        if plan.head is None:
            return {
                frozenset(b.materialize().items())
                for b in enumerate_bindings(db, plan)
            }
        return set(derive_facts(db, plan))

    sizes = {pred: db.count(pred) for pred in db.predicates()}
    for rule in program.proper_rules():
        firsts = [None] + [
            i for i, lit in enumerate(rule.body)
            if lit.positive and not is_builtin_predicate(lit.atom.pred)
        ]
        for first in firsts:
            unsized = compile_rule(rule, first=first)
            sized = compile_rule(rule, first=first, sizes=sizes)
            assert derived(unsized) == derived(sized), (rule, first)


def group_bindings(
    bindings: Iterable[Mapping[str, Term]],
    group_var: str,
    other_terms: Iterable[tuple[int, Term]],
    describe,
) -> dict[tuple[Term, ...], set[Term]]:
    """The term-level group-by of a grouping rule, the oracle for the
    engine's ID-space one: bucket the grouped variable's canonical
    values under the canonical key of the remaining head arguments.

    An unbound grouped variable raises :class:`EvaluationError`
    (``describe()`` supplies the message context); bindings whose key
    or value falls outside U drop out.  An empty batch yields no
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
        groups.setdefault(key, set()).add(value)
    return groups


def grouping_oracle(rule, db) -> list[Atom]:
    """One grouping rule's facts over ``db``: :func:`group_bindings`
    over the reference executor's bindings, each group's key spelled as
    its first binding's and its set built and interned term by term."""
    from repro.engine.exec import run_plan_tuple
    from repro.engine.plan import compile_rule

    (position,) = rule.head.group_positions()
    group_var = rule.head.args[position].inner.name
    others = [(i, arg) for i, arg in enumerate(rule.head.args) if i != position]
    groups = group_bindings(
        run_plan_tuple(db, compile_rule(rule)), group_var, others,
        lambda: format_rule(rule),
    )
    facts = []
    for key, values in groups.items():
        args: list = [None] * len(rule.head.args)
        for (i, _), value in zip(others, key):
            args[i] = value
        args[position] = intern_term(SetVal.from_ground(values))
        facts.append(Atom(rule.head.pred, tuple(args)))
    return facts
