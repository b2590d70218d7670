"""Tests for well-formedness and safety checks (paper §2.1, §7)."""

import pytest

from repro.engine import evaluate
from repro.errors import SafetyError, WellFormednessError
from repro.parser import parse_atom, parse_program, parse_rule, parse_rules
from repro.program.wellformed import (
    check_program,
    check_rule_safe,
    check_rule_wellformed,
    derivable_variables,
    head_group_variable,
)


class TestGroupingRestrictions:
    def test_plain_grouping_rule_ok(self):
        check_rule_wellformed(parse_rule("part(P, <S>) <- p(P, S)."))

    def test_w1_no_group_in_body(self):
        rule = parse_rule("p(X) <- q(<X>).")
        with pytest.raises(WellFormednessError):
            check_rule_wellformed(rule)

    def test_w2_single_group_occurrence(self):
        rule = parse_rule("p(<X>, <Y>) <- q(X, Y).")
        with pytest.raises(WellFormednessError):
            check_rule_wellformed(rule)

    def test_w2_group_must_be_direct_argument(self):
        rule = parse_rule("p(f(<X>)) <- q(X).")
        with pytest.raises(WellFormednessError):
            check_rule_wellformed(rule)

    def test_w3_strict_mode_rejects_negation_in_grouping_body(self):
        rule = parse_rule("p(<X>) <- q(X), ~r(X).")
        with pytest.raises(WellFormednessError):
            check_rule_wellformed(rule, strict_w3=True)

    def test_w3_default_allows_negation_in_grouping_body(self):
        # the paper's own Section 6 running example needs this
        check_rule_wellformed(parse_rule("p(<X>) <- q(X), ~r(X)."))

    def test_ldl15_complex_group_rejected_in_base(self):
        rule = parse_rule("p(X, <g(Y)>) <- q(X, Y).")
        with pytest.raises(WellFormednessError):
            check_rule_wellformed(rule)

    def test_ldl15_flag_accepts_everything(self):
        check_rule_wellformed(parse_rule("p(X) <- q(<X>)."), allow_ldl15=True)
        check_rule_wellformed(
            parse_rule("p(X, <g(Y)>) <- q(X, Y)."), allow_ldl15=True
        )

    def test_head_group_variable(self):
        assert head_group_variable(parse_rule("p(X, <S>) <- q(X, S).")) == "S"
        assert head_group_variable(parse_rule("p(X) <- q(X).")) is None


class TestSafety:
    def test_safe_rule(self):
        check_rule_safe(parse_rule("p(X) <- q(X)."))

    def test_unbound_head_variable(self):
        with pytest.raises(SafetyError):
            check_rule_safe(parse_rule("p(X, Y) <- q(X)."))

    def test_fact_with_variable_unsafe(self):
        # Section 7: "facts may not have variables as arguments".
        with pytest.raises(SafetyError):
            check_rule_safe(parse_rule("p(X)."))

    def test_unbound_negative_literal(self):
        with pytest.raises(SafetyError):
            check_rule_safe(parse_rule("p(X) <- q(X), ~r(X, Z)."))

    def test_builtin_can_bind_head_variable(self):
        # C is produced by '=' from bound C1, C2.
        check_rule_safe(parse_rule("p(X, C) <- q(X, C1, C2), C = C1 + C2."))

    def test_member_binds_element(self):
        check_rule_safe(parse_rule("p(X) <- s(S), member(X, S)."))

    def test_partition_binds_parts(self):
        check_rule_safe(parse_rule("p(A, B) <- s(S), partition(S, A, B)."))

    def test_chain_of_builtins(self):
        check_rule_safe(
            parse_rule("p(N) <- s(S), card(S, C), N = C + 1.")
        )

    def test_comparison_binds_nothing(self):
        with pytest.raises(SafetyError):
            check_rule_safe(parse_rule("p(X) <- q(Y), X < Y."))

    def test_strict_mode_rejects_builtin_bindings(self):
        rule = parse_rule("p(X, C) <- q(X, C1, C2), C = C1 + C2.")
        with pytest.raises(SafetyError):
            check_rule_safe(rule, strict=True)

    def test_strict_mode_accepts_plain_rules(self):
        check_rule_safe(parse_rule("p(X) <- q(X), ~r(X)."), strict=True)

    def test_derivable_variables(self):
        rule = parse_rule("p(N) <- s(S), card(S, N).")
        assert derivable_variables(rule) == {"S", "N"}


class TestProgramChecks:
    def test_builtin_redefinition_rejected(self):
        program = parse_rules("member(X, S) <- weird(X, S).")
        with pytest.raises(WellFormednessError):
            check_program(program)

    def test_builtin_fact_rejected(self):
        with pytest.raises(WellFormednessError):
            check_program(parse_rules("union({1}, {2}, {1, 2})."))

    def test_valid_program_passes(self):
        check_program(
            parse_rules(
                """
                parent(a, b).
                ancestor(X, Y) <- parent(X, Y).
                ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
                part(P, <S>) <- parent(P, S).
                """
            )
        )

    @pytest.mark.parametrize("src", [
        # a unary fact read by a binary literal
        "p(1). q(X) <- p(X, Y).",
        # a binary fact read by a ternary literal
        "p(1, 2). r(1). q(Y) <- r(X), p(X, Y, Z).",
        # two heads of one predicate
        "p(X) <- r(X). p(X, X) <- r(X). r(1).",
        # a negated literal
        "r(1). q(X) <- r(X), ~r(X, X).",
    ])
    def test_one_arity_per_predicate(self, src):
        with pytest.raises(WellFormednessError, match="arity"):
            check_program(parse_rules(src))

    @pytest.mark.parametrize("strategy", ["naive", "seminaive"])
    def test_edb_arity_must_match_the_rules(self, strategy):
        """Facts given to ``evaluate`` as its EDB are held to the rules'
        arities too; a predicate the rules do not use takes any."""
        program = parse_program("q(X) <- p(X, Y).").program
        with pytest.raises(WellFormednessError, match="arity 2"):
            evaluate(program, edb=[parse_atom("p(1)")], strategy=strategy)
        edb = [parse_atom("p(1, 2)"), parse_atom("r(1, 2, 3)")]
        result = evaluate(program, edb=edb, strategy=strategy)
        assert list(result.database.atoms("q")) == [parse_atom("q(1)")]
