"""Property-based tests for the §2.4 domination orders."""

from itertools import permutations

from hypothesis import given
from hypothesis import strategies as st

from repro.program.rule import Atom
from repro.terms.domination import (
    element_dominated,
    fact_dominated,
    factset_dominated,
)
from repro.terms.term import Const, SetVal

from tests.strategies import ground_sets, ground_terms

facts = st.builds(
    lambda args: Atom("p", args), st.lists(ground_terms, max_size=3).map(tuple)
)
set_facts = st.builds(lambda s: Atom("p", (s,)), ground_sets)


@given(ground_terms)
def test_element_domination_reflexive(term):
    assert element_dominated(term, term)


@given(ground_terms, ground_terms, ground_terms)
def test_element_domination_transitive(a, b, c):
    if element_dominated(a, b) and element_dominated(b, c):
        assert element_dominated(a, c)


@given(ground_sets, ground_sets)
def test_subset_implies_elaborate_domination(a, b):
    if a.elements <= b.elements:
        assert element_dominated(a, b)


@given(facts)
def test_fact_domination_reflexive(fact):
    assert fact_dominated(fact, fact)
    assert fact_dominated(fact, fact, elaborate=True)


@given(set_facts, set_facts, set_facts)
def test_fact_domination_transitive(a, b, c):
    if fact_dominated(a, b) and fact_dominated(b, c):
        assert fact_dominated(a, c)


@given(set_facts, set_facts)
def test_basic_fact_domination_antisymmetric(a, b):
    if fact_dominated(a, b) and fact_dominated(b, a):
        assert a == b


@given(set_facts, set_facts)
def test_basic_implies_elaborate(a, b):
    if fact_dominated(a, b):
        assert fact_dominated(a, b, elaborate=True)


@given(st.lists(set_facts, max_size=4))
def test_factset_domination_reflexive(pool):
    assert factset_dominated(pool, pool)


@given(st.lists(set_facts, max_size=4), st.lists(set_facts, max_size=3))
def test_factset_domination_monotone_in_target(a, extra):
    # enlarging the dominating side can never break domination
    if factset_dominated(a, a):
        assert factset_dominated(a, list(a) + list(extra))


@given(st.lists(set_facts, min_size=1, max_size=4))
def test_factset_domination_requires_enough_targets(pool):
    # the matching is injective, so |A| > |B| can never dominate
    distinct = list({fact for fact in pool})
    if len(distinct) >= 2:
        assert not factset_dominated(distinct, distinct[:1])
    assert not factset_dominated(distinct, [])


@given(st.lists(set_facts, max_size=4), st.lists(set_facts, max_size=4))
def test_factset_domination_sound(a, b):
    # whenever A <= B holds, every element of A is dominated by some
    # element of B (the matching's necessary condition).
    if factset_dominated(a, b):
        for fact in a:
            assert any(fact_dominated(fact, other) for other in b)


#: facts over one small set of small integers: domination is frequent
#: but far from total, so matchings are often partial.
small_set_facts = st.builds(
    lambda xs: Atom("p", (SetVal([Const(x) for x in xs]),)),
    st.lists(st.integers(0, 3), max_size=3),
)


def _injection_exists(a, b, dominates):
    """Brute force: some injective assignment of ``a`` into ``b``."""
    return any(
        all(dominates(x, b[j]) for x, j in zip(a, choice))
        for choice in permutations(range(len(b)), len(a))
    )


@given(
    st.lists(small_set_facts, max_size=6),
    st.lists(small_set_facts, max_size=6),
    st.booleans(),
)
def test_factset_domination_is_an_injective_matching(a, b, elaborate):
    def dominates(x, y):
        return fact_dominated(x, y, elaborate=elaborate)

    assert factset_dominated(a, b, elaborate=elaborate) == _injection_exists(
        a, b, dominates
    )


@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_factset_domination_over_any_relation(n, m, data):
    rows = st.lists(st.booleans(), min_size=m, max_size=m)
    relation = data.draw(st.lists(rows, min_size=n, max_size=n))

    def dominates(i, j):
        return relation[i][j]

    assert factset_dominated(
        range(n), range(m), dominates=dominates
    ) == _injection_exists(range(n), range(m), dominates)
