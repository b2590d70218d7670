"""Unit tests for grouping-rule evaluation (repro.engine.grouping).

The engine groups in ID space; :func:`tests.helpers.group_bindings` is
the term-level oracle it is held to, rule by rule
(:func:`tests.helpers.grouping_oracle` runs it over the reference
executor's bindings).
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.engine import evaluate
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.grouping import (
    apply_grouping_rule,
    apply_grouping_rules,
    grouped_rows,
)
from repro.engine.relation import decode_row
from repro.errors import EvaluationError
from repro.parser import parse_atom, parse_rule
from repro.terms.pretty import format_atom
from repro.terms.term import Const, SetVal

from tests.helpers import group_bindings, grouping_oracle
from tests.strategies import generated_programs


def db_of(*sources):
    return Database(parse_atom(s) for s in sources)


#: The engine's ID-space group-by over the compiled lane, and the
#: term-level oracle over the tuple-at-a-time reference executor.
LANES = {"batch": apply_grouping_rule, "tuple": grouping_oracle}


def derived(rule_src, *facts):
    rule = parse_rule(rule_src)
    return {format_atom(a) for a in apply_grouping_rule(rule, db_of(*facts))}


class TestApplyGroupingRule:
    def test_basic_grouping(self):
        assert derived(
            "g(K, <V>) <- e(K, V).", "e(a, 1)", "e(a, 2)", "e(b, 3)"
        ) == {"g(a, {1, 2})", "g(b, {3})"}

    def test_group_position_first(self):
        assert derived(
            "g(<V>, K) <- e(K, V).", "e(a, 1)", "e(a, 2)"
        ) == {"g({1, 2}, a)"}

    def test_zero_other_args(self):
        assert derived("g(<V>) <- e(_, V).", "e(a, 1)", "e(b, 2)") == {
            "g({1, 2})"
        }

    def test_empty_body_solutions_yield_nothing(self):
        assert derived("g(K, <V>) <- e(K, V).") == set()

    def test_duplicate_values_collapse(self):
        assert derived(
            "g(K, <V>) <- e(K, V, _).", "e(a, 1, x)", "e(a, 1, y)"
        ) == {"g(a, {1})"}

    def test_key_is_interpreted_term(self):
        # keys are equivalence classes of *interpreted* head terms (§3.2)
        assert derived(
            "g(K + 0, <V>) <- e(K, V).", "e(1, a)", "e(1.0, b)"
        ) == {"g(1, {a})", "g(1.0, {b})"}

    def test_arithmetic_key_merges_classes(self):
        assert derived(
            "g(K * K, <V>) <- e(K, V).", "e(2, a)", "e(-2, b)"
        ) == {"g(4, {a, b})"}

    def test_functor_key(self):
        assert derived(
            "g(f(K), <V>) <- e(K, V).", "e(1, a)", "e(2, b)"
        ) == {"g(f(1), {a})", "g(f(2), {b})"}

    def test_grouping_set_values(self):
        assert derived(
            "g(K, <S>) <- e(K, S).", "e(a, {1})", "e(a, {2, 3})"
        ) == {"g(a, {{1}, {2, 3}})"}

    def test_body_with_builtins(self):
        assert derived(
            "g(K, <V>) <- e(K, V), V > 1.", "e(a, 1)", "e(a, 2)", "e(a, 3)"
        ) == {"g(a, {2, 3})"}

    def test_body_with_negation(self):
        # extended grouping bodies (the §6 running example's shape)
        assert derived(
            "g(K, <V>) <- e(K, V), ~bad(V).",
            "e(a, 1)", "e(a, 2)", "bad(2)",
        ) == {"g(a, {1})"}

    def test_non_variable_group_rejected(self):
        rule = parse_rule("g(K, <f(V)>) <- e(K, V).")
        with pytest.raises(EvaluationError):
            list(apply_grouping_rule(rule, db_of("e(a, 1)")))

    def test_multiple_group_terms_rejected(self):
        rule = parse_rule("g(<K>, <V>) <- e(K, V).")
        with pytest.raises(EvaluationError):
            list(apply_grouping_rule(rule, db_of("e(a, 1)")))

    @pytest.mark.parametrize("lane", sorted(LANES))
    def test_key_spelling_is_the_rules(self, lane):
        rule = parse_rule("g('a', K, <V>) <- e(K, V).")
        facts = LANES[lane](rule, db_of("e(b, 1)", "e(b, 2)"))
        assert [format_atom(a) for a in facts] == ["g('a', b, {1, 2})"]


class TestApplyGroupingRules:
    def test_several_rules_combined(self):
        rules = [
            parse_rule("by_key(K, <V>) <- e(K, V)."),
            parse_rule("by_val(V, <K>) <- e(K, V)."),
        ]
        facts = apply_grouping_rules(rules, db_of("e(a, 1)", "e(b, 1)"))
        rendered = {format_atom(a) for a in facts}
        assert "by_key(a, {1})" in rendered
        assert "by_val(1, {a, b})" in rendered

    def test_no_rules(self):
        assert apply_grouping_rules([], db_of("e(a, 1)")) == []


class TestGroupBindings:
    """The ID-space group-by (:func:`grouped_rows`) on the batches the
    term-level oracle pins: the same groups, the same error."""

    def test_empty_batch_yields_no_groups(self):
        rule = parse_rule("g(K, <V>) <- e(K, V).")
        assert grouped_rows(rule, Database()).rows == []
        assert group_bindings([], "X", [], lambda: "r") == {}

    def test_all_duplicate_batch_collapses(self):
        rule = parse_rule("g(K, <X>) <- e(K, X, _).")
        db = db_of(*(f"e(0, 1, w{i})" for i in range(5)))
        dr = grouped_rows(rule, db)
        assert [decode_row(row) for row in dr.rows] == [
            (Const(0), SetVal([Const(1)]))
        ]
        groups = group_bindings(
            [{"X": Const(1), "K": Const(0)}] * 5,
            "X", [(0, parse_atom("k(K)").args[0])], lambda: "r",
        )
        assert groups == {(Const(0),): {Const(1)}}

    def test_unbound_group_var_raises(self):
        rule = parse_rule("r(<X>) <- e(Y).")
        db = db_of("e(1)")
        with pytest.raises(EvaluationError, match="unbound by body"):
            grouped_rows(rule, db, EvalContext(db))
        with pytest.raises(EvaluationError, match="unbound by body"):
            grouping_oracle(rule, db)
        # no binding, no violation to report
        assert grouped_rows(rule, Database()).rows == []
        with pytest.raises(EvaluationError, match="unbound by body"):
            group_bindings([{"Y": Const(1)}], "X", [], lambda: "r(X)")


@given(generated_programs)
@settings(max_examples=30, deadline=None)
def test_grouping_rules_equal_the_oracle(generated):
    """Rule by rule over a generated program's model, the ID-space
    group-by derives exactly the oracle's facts, spellings included."""
    db = evaluate(generated.program, edb=generated.edb).database
    for rule in generated.program.rules:
        if not rule.is_grouping():
            continue
        expected = Counter(format_atom(a) for a in grouping_oracle(rule, db))
        got = Counter(format_atom(a) for a in apply_grouping_rule(rule, db))
        assert got == expected, rule
