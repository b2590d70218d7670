"""Property-based tests for the evaluation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import evaluate, evaluate_component
from repro.engine.builtins import solve_builtin
from repro.engine.compiled import base_database
from repro.engine.context import EvalContext
from repro.parser import parse_rules
from repro.program.dependency import SCCComponent
from repro.program.rule import Atom
from repro.program.stratify import stratify
from repro.terms.term import Const, SetVal, Var

from tests.helpers import idb_facts, reference_model, topdown_idb_facts
from tests.strategies import generated_programs, ground_sets

TC_RULES = """
t(X, Y) <- e(X, Y).
t(X, Y) <- e(X, Z), t(Z, Y).
"""

edges = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    max_size=25,
    unique=True,
)


def edge_atoms(pairs):
    return [Atom("e", (Const(a), Const(b))) for a, b in pairs]


@given(edges)
@settings(max_examples=40, deadline=None)
def test_naive_equals_seminaive_on_random_graphs(pairs):
    program = parse_rules(TC_RULES)
    edb = edge_atoms(pairs)
    naive = evaluate(program, edb=edb, strategy="naive")
    semi = evaluate(program, edb=edb, strategy="seminaive")
    assert naive.database == semi.database


@given(generated_programs)
@settings(max_examples=25, deadline=None)
def test_scc_schedule_equals_layer_schedule(generated):
    """SCC-condensed scheduling is an optimization, not a semantics.

    On random admissible programs — negation and grouping included —
    evaluating each stratum SCC-by-SCC (non-recursive components in a
    single pass) must produce exactly the model of the layer-at-a-time
    fixpoint (Theorem 2 licenses the per-component order).  The
    reference runs Theorem 1's formulation directly: each layer's rules
    as one recursive component, grouping rules once first."""
    program, edb = generated.program, generated.edb
    layering = stratify(program)
    layered = base_database(program, edb)
    ctx = EvalContext(layered)
    for i, layer in enumerate(layering):
        rules = tuple(
            r for r in layering.rules_in_layer(program, i) if not r.is_fact()
        )
        if rules:
            evaluate_component(
                layered, SCCComponent(layer, True, rules), ctx
            )
    assert evaluate(program, edb=edb).database == layered


@given(generated_programs)
@settings(max_examples=25, deadline=None)
def test_batch_executor_equals_tuple_executor(generated):
    """The compiled body executor is an optimization, not a semantics.

    On random admissible programs — negation and grouping included —
    ``evaluate``'s model, every rule body run through the compiled
    ID-row closures, is exactly the model of a naive fixpoint that runs
    every rule body through the one-binding-at-a-time reference
    recursion."""
    expected = reference_model(generated.program, generated.edb)
    got = evaluate(generated.program, edb=generated.edb)
    assert got.database == expected


@given(generated_programs)
@settings(max_examples=10, deadline=None)
def test_batch_executor_equals_tuple_executor_naive(generated):
    """Same differential under the naive strategy (no delta overrides),
    covering the compiled lane's full-scan join paths."""
    expected = reference_model(generated.program, generated.edb)
    got = evaluate(generated.program, edb=generated.edb, strategy="naive")
    assert got.database == expected


@given(generated_programs)
@settings(max_examples=25, deadline=None)
def test_evaluate_equals_topdown_model(generated):
    """Bottom-up evaluation is checked by a whole-program oracle that
    shares no code with the compiled lane or the reference executor.

    On random admissible programs — negation and grouping included —
    the model of every IDB predicate under ``seminaive`` and ``naive``
    equals what the tabled top-down evaluator answers when asked each
    predicate all-free, compared as printed facts so spellings count."""
    expected = topdown_idb_facts(generated.program, generated.edb)
    for strategy in ("seminaive", "naive"):
        got = idb_facts(generated.program, generated.edb, strategy)
        assert got == expected, strategy


@given(edges)
@settings(max_examples=30, deadline=None)
def test_transitive_closure_matches_reference(pairs):
    program = parse_rules(TC_RULES)
    result = evaluate(program, edb=edge_atoms(pairs))
    # reference closure by floyd-style saturation over python sets
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    computed = {
        (atom.args[0].value, atom.args[1].value)
        for atom in result.database.atoms("t")
    }
    assert computed == closure


@given(edges)
@settings(max_examples=30, deadline=None)
def test_grouping_matches_manual_groupby(pairs):
    program = parse_rules("g(K, <V>) <- e(K, V).")
    result = evaluate(program, edb=edge_atoms(pairs))
    expected: dict[int, set[int]] = {}
    for a, b in pairs:
        expected.setdefault(a, set()).add(b)
    computed = {
        atom.args[0].value: {e.value for e in atom.args[1]}
        for atom in result.database.atoms("g")
    }
    assert computed == expected


@given(edges)
@settings(max_examples=20, deadline=None)
def test_stratified_negation_complement(pairs):
    # p(X) holds exactly for sources with no incoming edge
    program = parse_rules(
        """
        node(X) <- e(X, _).
        node(Y) <- e(_, Y).
        has_in(Y) <- e(_, Y).
        root(X) <- node(X), ~has_in(X).
        """
    )
    result = evaluate(program, edb=edge_atoms(pairs))
    nodes = {a for a, _ in pairs} | {b for _, b in pairs}
    targets = {b for _, b in pairs}
    roots = {atom.args[0].value for atom in result.database.atoms("root")}
    assert roots == nodes - targets


@given(ground_sets, ground_sets)
@settings(max_examples=60)
def test_union_builtin_matches_frozenset_union(a, b):
    [binding] = solve_builtin("union", (a, b, Var("S")), {})
    assert binding["S"] == SetVal(a.elements | b.elements)


@given(ground_sets)
@settings(max_examples=40)
def test_partition_builtin_parts_are_complementary(s):
    if len(s) > 8:
        return
    for binding in solve_builtin("partition", (s, Var("A"), Var("B")), {}):
        left, right = binding["A"], binding["B"]
        assert left.elements | right.elements == s.elements
        assert not left.elements & right.elements


@given(ground_sets)
@settings(max_examples=60)
def test_member_builtin_enumerates_exactly(s):
    values = {b["X"] for b in solve_builtin("member", (Var("X"), s), {})}
    assert values == set(s.elements)


@given(ground_sets)
@settings(max_examples=40)
def test_card_builtin(s):
    [binding] = solve_builtin("card", (s, Var("N")), {})
    assert binding["N"] == Const(len(s))


@given(ground_sets, ground_sets)
@settings(max_examples=40)
def test_subset_builtin_test_mode(a, b):
    holds = bool(list(solve_builtin("subset", (a, b), {})))
    assert holds == (a.elements <= b.elements)
