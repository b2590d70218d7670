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


def idb_facts(program, edb=(), strategy: str = "seminaive") -> set[str]:
    """The IDB part of ``evaluate``'s model, as formatted strings."""
    idb = program.idb_predicates()
    return {
        format_atom(a)
        for a in evaluate(program, edb=edb, strategy=strategy).database.atoms()
        if a.pred in idb
    }


def topdown_idb_facts(program, edb=()) -> set[str]:
    """The whole-program oracle: every IDB predicate asked all-free of
    the tabled :class:`~repro.engine.topdown.TopDownEvaluator`, as
    formatted strings.  It solves every literal itself (``match.py`` and
    ``solve_builtin``), so it shares no code with the compiled lane or
    the reference executor; it borrows only the body order."""
    from repro.engine.topdown import TopDownEvaluator
    from repro.program.rule import Query
    from repro.terms.term import Var

    evaluator = TopDownEvaluator(program, edb=edb)
    heads = {
        (rule.head.pred, len(rule.head.args))
        for rule in program.rules
        if not rule.is_fact()
    }
    out: set[str] = set()
    for pred, arity in sorted(heads):
        query = Query(Atom(pred, tuple(Var(f"V{i}") for i in range(arity))))
        out.update(format_atom(a) for a in evaluator.query(query))
    return out


def reference_facts(db, plan, **kwargs) -> list[Atom]:
    """``plan``'s head instantiated per binding of the reference
    executor (:func:`~repro.engine.exec.run_plan_tuple`; ``kwargs`` go
    to it), one fact per derivation, bindings outside U dropped: what
    ``derive_facts`` must return."""
    from repro.engine.exec import run_plan_tuple

    facts = map(plan.instantiate_head, run_plan_tuple(db, plan, **kwargs))
    return [fact for fact in facts if fact is not None]


def reference_model(program, edb=()):
    """The whole-program model with every rule body run through the
    per-binding reference executor: layer by layer, each grouping rule
    once (:func:`grouping_oracle`), then the layer's other rules
    re-applied naively (:func:`reference_facts`) until nothing new is
    derived.  Its join paths are the reference's, not the compiled
    lane's, so it is the oracle for ``evaluate``'s body executor."""
    from repro.engine.compiled import base_database
    from repro.engine.plan import compile_rule
    from repro.program.stratify import stratify

    layering = stratify(program)
    db = base_database(program, edb)
    for i in range(len(layering)):
        rules = [
            r for r in layering.rules_in_layer(program, i) if not r.is_fact()
        ]
        for rule in rules:
            if rule.is_grouping():
                for fact in grouping_oracle(rule, db):
                    db.add(fact)
        plans = [compile_rule(r) for r in rules if not r.is_grouping()]
        changed = True
        while changed:
            changed = False
            for plan in plans:
                for fact in reference_facts(db, plan):
                    changed |= db.add(fact)
    return db


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


def fused_and_unfused(plan, template, db, overrides=None, negation_db=None):
    """Compile ``plan``'s seedless closure for ``template`` twice — as
    the engine does, and with the tail-filter fusion refused (a
    monkeypatched :func:`~repro.engine.exec.specialize.filter_fuses`) —
    and run both: ``[(source, row multiset, exec_steps counts)]`` for
    the fused closure, then the unfused one."""
    from collections import Counter

    import pytest

    from repro.engine.exec import specialize

    negdb = db if negation_db is None else negation_db
    runs = []
    for fuse in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not fuse:
                patch.setattr(specialize, "filter_fuses", lambda step: False)
            source, env = specialize._generate(plan, template)
        fn = specialize._define(source, "<test>", env, "_specialized")
        seen = []
        rows = fn(
            db, overrides, {}, negdb,
            lambda counts, rows: seen.append((counts, rows)),
        )
        runs.append((source, Counter(rows), seen))
    return runs


def looped(program):
    """A copy of ``program`` compiled with no component marked as a
    linear closure (a monkeypatched
    :func:`~repro.engine.fixpoint.closure_shape` while it compiles), so
    ``evaluate`` runs every recursive component through the semi-naive
    loop: for tests of that loop on closure-shaped rules."""
    import pytest

    from repro.engine import compiled
    from repro.program.rule import Program

    fresh = Program(program.rules)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled, "closure_shape", lambda component: None)
        compiled.compile_program(fresh)
    return fresh
