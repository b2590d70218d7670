"""Integration tests for bottom-up evaluation (paper §3.2, Theorem 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.errors import EvaluationError, NotAdmissibleError
from repro.parser import parse_program, parse_query
from repro.program.stratify import linear_layerings
from repro.terms.term import Const

from tests.helpers import facts_of, run


class TestSimplePrograms:
    def test_transitive_closure(self, ancestor_program):
        result = run(ancestor_program)
        assert facts_of(result, "ancestor") == {
            "ancestor(a, b)",
            "ancestor(a, c)",
            "ancestor(a, d)",
            "ancestor(b, c)",
            "ancestor(b, d)",
            "ancestor(c, d)",
        }

    def test_naive_equals_seminaive(self, ancestor_program):
        naive = run(ancestor_program, strategy="naive")
        semi = run(ancestor_program, strategy="seminaive")
        assert naive.database == semi.database

    def test_seminaive_fires_fewer_rules(self):
        chain = "".join(f"e({i}, {i + 1}). " for i in range(30))
        src = chain + "t(X, Y) <- e(X, Y). t(X, Y) <- e(X, Z), t(Z, Y)."
        naive = run(src, strategy="naive")
        semi = run(src, strategy="seminaive")
        assert naive.database == semi.database
        assert semi.total_firings < naive.total_firings

    def test_function_symbols(self):
        result = run(
            """
            n(z).
            n(s(X)) <- n(X), small(X).
            small(z). small(s(z)).
            """
        )
        assert facts_of(result, "n") == {"n(z)", "n(s(z))", "n(s(s(z)))"}

    def test_empty_program(self):
        result = run("")
        assert result.total_facts == 0

    def test_workers_keyword_is_ignored(self, ancestor_program):
        # still accepted for callers that pass it; evaluation is serial
        program, _ = parse_program(ancestor_program)
        assert evaluate(program, workers=2).database == evaluate(program).database


class TestNegation:
    def test_excl_ancestor(self):
        result = run(
            """
            parent(a, b). parent(b, c).
            person(a). person(b). person(c).
            anc(X, Y) <- parent(X, Y).
            anc(X, Y) <- parent(X, Z), anc(Z, Y).
            excl(X, Y, Z) <- anc(X, Y), person(Z), ~anc(X, Z).
            """
        )
        # a is an ancestor of b, and a is NOT an ancestor of a.
        assert "excl(a, b, a)" in facts_of(result, "excl")
        # but (a, b, c) is excluded since a IS an ancestor of c.
        assert "excl(a, b, c)" not in facts_of(result, "excl")

    def test_negation_sees_completed_lower_layer(self):
        result = run(
            """
            b(1). b(2). b(3).
            q(X) <- b(X), X < 3.
            p(X) <- b(X), ~q(X).
            """
        )
        assert facts_of(result, "p") == {"p(3)"}

    def test_inadmissible_program_rejected(self):
        with pytest.raises(NotAdmissibleError):
            run("p(X) <- b(X), ~p(X). b(1).")

    def test_negation_over_set_valued_fact(self):
        result = run(
            """
            s(1, {a}). s(2, {a, b}).
            keyset({a}).
            odd(X) <- s(X, S), ~keyset(S).
            """
        )
        assert facts_of(result, "odd") == {"odd(2)"}


class TestGroupingEvaluation:
    def test_supplier_parts(self):
        result = run(
            """
            supplies(s1, p1). supplies(s1, p2). supplies(s2, p3).
            sp(S, <P>) <- supplies(S, P).
            """
        )
        assert facts_of(result, "sp") == {
            "sp(s1, {p1, p2})",
            "sp(s2, {p3})",
        }

    def test_empty_group_derives_nothing(self):
        result = run(
            """
            item(1).
            match(X, X) <- item(X), item(X), X != X.
            g(X, <Y>) <- item(X), match(X, Y).
            """
        )
        assert facts_of(result, "g") == set()

    def test_grouping_key_by_interpreted_terms(self):
        # §3.2: classes are formed by the *interpreted* head terms.
        result = run(
            """
            d(1, a). d(-1, b). d(2, c).
            g(X * X, <Y>) <- d(X, Y).
            """
        )
        assert facts_of(result, "g") == {"g(1, {a, b})", "g(4, {c})"}

    def test_group_variable_in_key_gives_singletons(self):
        # "<X> with X also in the head groups singletons" (§2.2 note)
        result = run("b(1). b(2). g(X, <X>) <- b(X).")
        assert facts_of(result, "g") == {"g(1, {1})", "g(2, {2})"}

    def test_grouping_over_sets(self):
        result = run(
            """
            s(a, {1}). s(a, {2}). s(b, {}).
            g(X, <S>) <- s(X, S).
            """
        )
        assert facts_of(result, "g") == {
            "g(a, {{1}, {2}})",
            "g(b, {{}})",
        }

    def test_multilayer_grouping(self):
        result = run(
            """
            e(a, 1). e(a, 2). e(b, 3).
            g1(X, <Y>) <- e(X, Y).
            size(X, N) <- g1(X, S), card(S, N).
            g2(<N>) <- size(X, N).
            """
        )
        assert facts_of(result, "g2") == {"g2({1, 2})"}


class TestSetEnumeration:
    def test_book_deal(self):
        result = run(
            """
            book(b1, 30). book(b2, 40). book(b3, 50). book(b4, 90).
            deal({X, Y}) <- book(X, Px), book(Y, Py), X != Y, Px + Py < 100.
            """
        )
        assert facts_of(result, "deal") == {
            "deal({b1, b2})",
            "deal({b1, b3})",
            "deal({b2, b3})",
        }

    def test_head_set_collapses_duplicates(self):
        # same title different price: {X, Y} with X = Y gives a singleton
        result = run(
            """
            book(b1, 30). book(b1, 35).
            deal({X, Y}) <- book(X, Px), book(Y, Py), Px + Py < 100.
            """
        )
        assert facts_of(result, "deal") == {"deal({b1})"}

    def test_set_pattern_in_body(self):
        result = run(
            """
            pair({1, 2}). pair({3}).
            elem(X) <- pair({X | _}).
            """
        )
        assert facts_of(result, "elem") == {"elem(1)", "elem(2)", "elem(3)"}


class TestPartsExplosion:
    SRC = """
    p(1,2). p(1,7). p(2,3). p(2,4). p(3,5). p(3,6).
    q(4,20). q(5,10). q(6,15). q(7,200).
    part(P, <S>) <- p(P, S).
    tc({X}, C) <- q(X, C).
    tc({X}, C) <- part(X, S), tc(S, C).
    tc(S, C) <- partition(S, S1, S2), S1 != {}, S2 != {},
                tc(S1, C1), tc(S2, C2), C = C1 + C2.
    result(X, C) <- tc({X}, C).
    """

    def test_paper_costs(self):
        result = run(self.SRC)
        assert facts_of(result, "result") == {
            "result(1, 245)",
            "result(2, 45)",
            "result(3, 25)",
            "result(4, 20)",
            "result(5, 10)",
            "result(6, 15)",
            "result(7, 200)",
        }

    def test_paper_tc_tuples_present(self):
        result = run(self.SRC)
        tc = facts_of(result, "tc")
        assert "tc({3}, 25)" in tc
        assert "tc({2}, 45)" in tc
        assert "tc({1}, 245)" in tc

    def test_impure_q_footnote(self):
        # footnote 2: the derivation still holds if q also contains
        # cost tuples for some aggregate parts.
        impure = self.SRC + " q(3, 25)."
        result = run(impure)
        assert "result(1, 245)" in facts_of(result, "result")


class TestTheorems:
    def test_theorem2_layering_independence(self):
        src = """
        par(a, b). par(b, c). person(a). person(b). person(c).
        anc(X, Y) <- par(X, Y).
        anc(X, Y) <- par(X, Z), anc(Z, Y).
        lonely(X) <- person(X), ~anc(X, X).
        grouped(X, <Y>) <- anc(X, Y).
        """
        program, _ = parse_program(src)
        reference = evaluate(program)
        for layering in linear_layerings(program, limit=8):
            result = evaluate(program, layering=layering)
            assert result.database == reference.database

    def test_invalid_layering_rejected(self):
        from repro.program.stratify import Layering

        program, _ = parse_program("p(X) <- q(X), ~r(X). q(1). r(1).")
        bad = Layering([frozenset({"p", "q", "r"})])
        with pytest.raises(EvaluationError):
            evaluate(program, layering=bad)


class TestQueries:
    def test_query_answers(self, ancestor_program):
        result = run(ancestor_program)
        answers = result.answers(parse_query("? ancestor(a, X)."))
        assert [b["X"] for b in answers] == [Const("b"), Const("c"), Const("d")]

    def test_query_no_answers(self, ancestor_program):
        result = run(ancestor_program)
        assert result.answers(parse_query("? ancestor(d, X).")) == []

    def test_query_with_set_constant(self):
        result = run("s(a, {1, 2}). s(b, {3}).")
        answers = result.answers(parse_query("? s(X, {1, 2})."))
        assert [b["X"] for b in answers] == [Const("a")]

    def test_answer_atoms_sorted(self, ancestor_program):
        result = run(ancestor_program)
        atoms = result.answer_atoms(parse_query("? ancestor(X, Y)."))
        assert len(atoms) == 6
        assert atoms == sorted(atoms, key=lambda a: a.sort_key())


#: Constants whose order mixes kinds: ints, floats, symbols, quoted
#: strings, compounds holding quoted strings, and sets.
_ROW_VALUES = (
    "1", "2", "1.0", "2.5", "-1", "a", "'a'", "b", "'b c'", "f('a')",
    "f(a)", "f(1, 'x')", "{1, 2}", "{'a', b}", "{}", "g({1}, 'a')",
)


def _all_columns_rows(db, query):
    """``answer_rows`` as it was, sorting on every column: the oracle."""
    from repro.engine.evaluator import _query_tuples
    from repro.engine.match import match_atom
    from repro.terms.term import Var

    atom = query.atom
    rows = _query_tuples(db, query)
    free = [arg for arg in atom.args if not arg.is_ground()]
    if not all(isinstance(arg, Var) for arg in free) or len(set(free)) < len(free):
        rows = [
            args for args in rows
            if next(iter(match_atom(atom, args, {})), None) is not None
        ]
    return tuple(sorted(rows, key=lambda r: tuple(t.sort_key() for t in r)))


@st.composite
def _rows_and_pattern(draw):
    """Rows of one arity (2 or 3) over a few of ``_ROW_VALUES``, so
    rows often share a bound value (``a`` and ``'a'`` included), and a
    query pattern over them: bound, free, repeated-variable, compound
    and anonymous arguments."""
    arity = draw(st.sampled_from([2, 3]))
    values = draw(st.lists(
        st.sampled_from(_ROW_VALUES), min_size=2, max_size=6, unique=True
    ))
    rows = draw(st.lists(
        st.lists(st.sampled_from(values), min_size=arity, max_size=arity),
        min_size=1,
        max_size=25,
    ))
    args = []
    for i in range(arity):
        kind = draw(st.sampled_from(
            ["bound", "bound", "var", "var", "repeat", "compound", "anon"]
        ))
        if kind == "bound":
            args.append(draw(st.sampled_from(values)))
        else:
            args.append({
                "var": f"X{i}", "repeat": "R", "compound": f"f(C{i})",
                "anon": "_",
            }[kind])
    return rows, args


@given(_rows_and_pattern())
@settings(max_examples=200, deadline=None)
def test_answer_rows_order_equals_all_columns_sort(rows_and_pattern):
    """Sorting on the free positions only returns exactly the tuples,
    spellings included, that the sort over every column returns."""
    from repro.engine.database import Database
    from repro.engine.evaluator import answer_rows
    from repro.terms.pretty import format_term

    rows, args = rows_and_pattern
    program = parse_program(" ".join(f"p({', '.join(r)})." for r in rows))
    db = Database(rule.head for rule in program.program.facts())
    query = parse_query(f"? p({', '.join(args)}).")
    got = answer_rows(db, query)
    expected = _all_columns_rows(db, query)
    assert got == expected
    assert [[format_term(t) for t in r] for r in got] == [
        [format_term(t) for t in r] for r in expected
    ]
