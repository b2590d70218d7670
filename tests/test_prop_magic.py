"""Property-based equivalence tests for magic sets (Theorem 4)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.engine.topdown import evaluate_topdown
from repro.magic import evaluate_magic
from repro.parser import parse_rules
from repro.program.rule import Atom, Query
from repro.terms.term import Const, Var
from tests.strategies import generated_program, generated_programs

TC_RULES = """
t(X, Y) <- e(X, Y).
t(X, Y) <- e(X, Z), t(Z, Y).
"""

LEFT_TC_RULES = """
t(X, Y) <- e(X, Y).
t(X, Y) <- t(X, Z), e(Z, Y).
"""

NEG_RULES = """
node(X) <- e(X, _).
node(Y) <- e(_, Y).
reach(X, X) <- node(X).
reach(X, Y) <- reach(X, Z), e(Z, Y).
blocked_pair(X, Y) <- node(X), node(Y), ~reach(X, Y).
"""

GROUP_RULES = """
node(X) <- e(X, _).
node(Y) <- e(_, Y).
reach(X, X) <- node(X).
reach(X, Y) <- reach(X, Z), e(Z, Y).
reachset(X, <Y>) <- reach(X, Y).
"""

edges = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    min_size=1,
    max_size=18,
    unique=True,
)


def edge_atoms(pairs):
    return [Atom("e", (Const(a), Const(b))) for a, b in pairs]


def check(rules: str, pairs, query: Query):
    program = parse_rules(rules)
    edb = edge_atoms(pairs)
    magic = evaluate_magic(program, query, edb=edb)
    full = evaluate(program, edb=edb)
    assert magic.answer_atoms() == full.answer_atoms(query)


@given(edges, st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_right_linear_tc_bound_free(pairs, start):
    check(TC_RULES, pairs, Query(Atom("t", (Const(start), Var("Y")))))


@given(edges, st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_left_linear_tc_bound_free(pairs, start):
    check(LEFT_TC_RULES, pairs, Query(Atom("t", (Const(start), Var("Y")))))


@given(edges, st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_tc_free_bound(pairs, end):
    check(TC_RULES, pairs, Query(Atom("t", (Var("X"), Const(end)))))


@given(edges, st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_tc_bound_bound(pairs, start, end):
    check(TC_RULES, pairs, Query(Atom("t", (Const(start), Const(end)))))


@given(edges)
@settings(max_examples=20, deadline=None)
def test_tc_free_free(pairs):
    check(TC_RULES, pairs, Query(Atom("t", (Var("X"), Var("Y")))))


@given(edges, st.integers(0, 8))
@settings(max_examples=25, deadline=None)
def test_negation_bound_free(pairs, start):
    check(
        NEG_RULES, pairs, Query(Atom("blocked_pair", (Const(start), Var("Y"))))
    )


@given(edges, st.integers(0, 8))
@settings(max_examples=25, deadline=None)
def test_grouping_bound_query(pairs, start):
    check(GROUP_RULES, pairs, Query(Atom("reachset", (Const(start), Var("S")))))


@given(edges)
@settings(max_examples=15, deadline=None)
def test_grouping_free_query(pairs):
    check(GROUP_RULES, pairs, Query(Atom("reachset", (Var("X"), Var("S")))))


# -- three-way equivalence: bottom-up, magic, top-down tabling ---------------


@given(edges, st.integers(0, 8))
@settings(max_examples=25, deadline=None)
def test_three_strategies_agree_tc(pairs, start):
    program = parse_rules(TC_RULES)
    edb = edge_atoms(pairs)
    query = Query(Atom("t", (Const(start), Var("Y"))))
    full = evaluate(program, edb=edb).answer_atoms(query)
    magic = evaluate_magic(program, query, edb=edb).answer_atoms()
    topdown, _ = evaluate_topdown(program, query, edb=edb)
    assert magic == full
    assert topdown == full


@given(edges, st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_three_strategies_agree_grouping(pairs, start):
    program = parse_rules(GROUP_RULES)
    edb = edge_atoms(pairs)
    query = Query(Atom("reachset", (Const(start), Var("S"))))
    full = evaluate(program, edb=edb).answer_atoms(query)
    magic = evaluate_magic(program, query, edb=edb).answer_atoms()
    topdown, _ = evaluate_topdown(program, query, edb=edb)
    assert magic == full
    assert topdown == full


@given(edges, st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_three_strategies_agree_negation(pairs, start):
    program = parse_rules(NEG_RULES)
    edb = edge_atoms(pairs)
    query = Query(Atom("blocked_pair", (Const(start), Var("Y"))))
    full = evaluate(program, edb=edb).answer_atoms(query)
    magic = evaluate_magic(program, query, edb=edb).answer_atoms()
    topdown, _ = evaluate_topdown(program, query, edb=edb)
    assert magic == full
    assert topdown == full


@given(edges, st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_supplementary_rewrite_agrees(pairs, start):
    from repro.magic import supplementary_rewrite

    program = parse_rules(TC_RULES)
    edb = edge_atoms(pairs)
    query = Query(Atom("t", (Const(start), Var("Y"))))
    full = evaluate(program, edb=edb).answer_atoms(query)
    sup = evaluate_magic(
        program, query, edb=edb, rewrite=supplementary_rewrite
    ).answer_atoms()
    assert sup == full


@given(edges, st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_bound_first_sip_agrees(pairs, start):
    from repro.magic import bound_first_sip, magic_rewrite

    program = parse_rules(LEFT_TC_RULES)
    edb = edge_atoms(pairs)
    query = Query(Atom("t", (Const(start), Var("Y"))))
    full = evaluate(program, edb=edb).answer_atoms(query)
    result = evaluate_magic(
        program,
        query,
        edb=edb,
        rewrite=lambda p, q: magic_rewrite(p, q, sip_strategy=bound_first_sip),
    ).answer_atoms()
    assert result == full


# -- section 6 as a property: one rewrite per adornment, many seeds ----------


def _assert_prepared_equivalence(generated, rewrite):
    """One ``PreparedQuery`` per (predicate, adornment), run for several
    bound constants against the *same* shared base database: answers
    equal the full model's each time, and the base is left as it was."""
    from repro.engine.compiled import base_database
    from repro.magic.evaluate import PreparedQuery

    program, edb = generated.program, generated.edb
    full = evaluate(program, edb=edb)
    base = base_database(program, edb)
    facts_before = base.as_set()
    relations_before = {p: base.get_relation(p) for p in base.predicates()}
    # constants of the generated EDB, plus one that occurs nowhere
    constants = [Const(c) for c in (0, 1, 3, 5, 99)]
    for pred in sorted(program.idb_predicates()):
        free = Var("S" if program.rules_for(pred)[0].is_grouping() else "Y")
        prepared = PreparedQuery(
            program, Query(Atom(pred, (constants[0], free))), rewrite=rewrite
        )
        for constant in constants:
            query = Query(Atom(pred, (constant, free)))
            result = prepared.answer(query, base)
            assert result.answer_atoms() == full.answer_atoms(query), query
            assert result.magic_program.seed.args == (constant,)
            rows = prepared.rows(query, base)
            assert [Atom(pred, r) for r in rows] == full.answer_atoms(query)
    # the base is as it was: same facts, the very same relation objects
    # (Relation has no __eq__), no copy-on-write flag left on any
    assert base.as_set() == facts_before
    assert {p: base.get_relation(p) for p in base.predicates()} == (
        relations_before
    )
    assert not any(rel._cow for rel in relations_before.values())


@given(generated_programs)
# a deferred rule negating a predicate whose own rule is deferred one
# layer lower: it must not fire before that layer has settled
@example(generated_program(59833))
@settings(max_examples=25, deadline=None)
def test_prepared_query_reused_across_seeds(generated):
    from repro.magic import magic_rewrite

    _assert_prepared_equivalence(generated, magic_rewrite)


@given(generated_programs)
@example(generated_program(9548))  # the same, through supplementary rules
@settings(max_examples=15, deadline=None)
def test_prepared_supplementary_reused_across_seeds(generated):
    from repro.magic import supplementary_rewrite

    _assert_prepared_equivalence(generated, supplementary_rewrite)
