"""Tests for the tabled top-down evaluator (repro.engine.topdown)."""

import pytest

from repro.engine import evaluate
from repro.engine.topdown import TopDownEvaluator, evaluate_topdown
from repro.errors import NotAdmissibleError
from repro.parser import parse_program, parse_query, parse_rules
from repro.terms.pretty import format_atom

ANCESTOR = """
parent(a, b). parent(b, c). parent(c, d). parent(e, f).
anc(X, Y) <- parent(X, Y).
anc(X, Y) <- parent(X, Z), anc(Z, Y).
"""

YOUNG = """
p(adam, john). p(adam, mary). p(eve, john). p(eve, mary). p(john, bob).
siblings(john, mary). siblings(mary, john).
a(X, Y) <- p(X, Y).
a(X, Y) <- a(X, Z), a(Z, Y).
sg(X, Y) <- siblings(X, Y).
sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
has_desc(X) <- a(X, _).
young(X, <Y>) <- sg(X, Y), ~has_desc(X).
"""


def check(src, query_text):
    program, _ = parse_program(src)
    query = parse_query(query_text)
    topdown, stats = evaluate_topdown(program, query)
    full = evaluate(program).answer_atoms(query)
    assert topdown == full
    return topdown, stats


class TestBasicQueries:
    def test_bound_free(self):
        answers, _ = check(ANCESTOR, "? anc(a, X).")
        assert [format_atom(a) for a in answers] == [
            "anc(a, b)",
            "anc(a, c)",
            "anc(a, d)",
        ]

    def test_free_bound(self):
        check(ANCESTOR, "? anc(X, d).")

    def test_bound_bound_yes_no(self):
        yes, _ = check(ANCESTOR, "? anc(a, d).")
        assert yes
        no, _ = check(ANCESTOR, "? anc(a, f).")
        assert not no

    def test_free_free(self):
        answers, _ = check(ANCESTOR, "? anc(X, Y).")
        assert len(answers) == 7

    def test_facts_of_a_derived_predicate_are_answers(self):
        # p has a program fact besides its rule; q is queried directly
        src = "p(a). p(X) <- q(X). q(b). r(X) <- p(X), ~q(X)."
        for query in ("? p(X).", "? p(a).", "? q(X).", "? r(X)."):
            assert check(src, query)[0], query
        answers, _ = check(src, "? p(X).")
        assert [format_atom(a) for a in answers] == ["p(a)", "p(b)"]

    def test_goal_directedness(self):
        # the e-f chain must not be explored for a query rooted at a.
        program, _ = parse_program(ANCESTOR)
        evaluator = TopDownEvaluator(program)
        answers = evaluator.query(parse_query("? anc(a, X)."))
        assert len(answers) == 3
        touched = {pred for (pred, _key) in evaluator._tables}
        assert touched == {"anc"}
        assert all(
            key[0] is None or key[0].value != "e"
            for (_p, key) in evaluator._tables
        )


class TestNegationAndGrouping:
    @pytest.mark.parametrize(
        "query",
        [
            "? young(mary, S).",
            "? young(john, S).",
            "? young(bob, S).",
            "? young(X, S).",
            "? has_desc(adam).",
            "? sg(john, Y).",
        ],
    )
    def test_young_program(self, query):
        check(YOUNG, query)

    def test_grouping_with_bound_set(self):
        answers, _ = check(YOUNG, "? young(mary, {john}).")
        assert answers

    def test_grouping_with_wrong_bound_set(self):
        answers, _ = check(YOUNG, "? young(mary, {bob}).")
        assert not answers

    def test_stratified_negation_chain(self):
        src = """
        b(1). b(2). b(3). r(1).
        p(X) <- b(X), ~r(X).
        q(X) <- b(X), ~p(X).
        """
        answers, _ = check(src, "? q(X).")
        assert [format_atom(a) for a in answers] == ["q(1)"]

    def test_inadmissible_rejected(self):
        program = parse_rules("p(X) <- b(X), ~p(X). b(1).")
        with pytest.raises(NotAdmissibleError):
            TopDownEvaluator(program)


class TestSetsTopDown:
    def test_parts_explosion_goal_directed(self):
        src = """
        p(1,2). p(1,7). p(2,3). p(2,4). p(3,5). p(3,6).
        q(4,20). q(5,10). q(6,15). q(7,200).
        part(P, <S>) <- p(P, S).
        tc({X}, C) <- q(X, C).
        tc({X}, C) <- part(X, S), tc(S, C).
        tc(S, C) <- part(P, SS), subset(S, SS), partition(S, S1, S2),
                    S1 != {}, S2 != {}, tc(S1, C1), tc(S2, C2), C = C1 + C2.
        result(X, C) <- tc({X}, C).
        """
        answers, stats = check(src, "? result(1, C).")
        assert [format_atom(a) for a in answers] == ["result(1, 245)"]
        # goal-directed: far fewer subgoals than the full model's facts
        assert stats.subgoals < 15

    def test_set_valued_query_argument(self):
        src = "g(K, <V>) <- e(K, V). e(a, 1). e(a, 2). e(b, 3)."
        answers, _ = check(src, "? g(a, S).")
        assert [format_atom(a) for a in answers] == ["g(a, {1, 2})"]


class TestStats:
    def test_stats_populated(self):
        program, _ = parse_program(ANCESTOR)
        _, stats = evaluate_topdown(program, parse_query("? anc(a, X)."))
        assert stats.subgoals >= 1
        assert stats.answers >= 3
        assert stats.driver_rounds >= 1

    def test_memoization_shares_subgoals(self):
        # diamond: d reachable from a two ways; the sub-query for the
        # shared suffix must be tabled once.
        src = """
        e(a, b1). e(a, b2). e(b1, c). e(b2, c). e(c, d).
        t(X, Y) <- e(X, Y).
        t(X, Y) <- e(X, Z), t(Z, Y).
        """
        program, _ = parse_program(src)
        _, stats = evaluate_topdown(program, parse_query("? t(a, X)."))
        # subgoals: a, b1, b2, c, d at most
        assert stats.subgoals <= 5
