"""Shared helpers for the LDL1 test suite."""

from __future__ import annotations

from repro.engine import evaluate
from repro.parser import parse_program
from repro.terms.pretty import format_atom


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
    same facts over ``db`` — grouping rules, which have no head
    template, the same applicable bindings.
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
