"""Property-based tests for the evaluation engine."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import evaluate, evaluate_component
from repro.engine.builtins import solve_builtin
from repro.engine.compiled import base_database
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import RowBatch, run_plan_tuple, specialized_plan
from repro.engine.exec import specialize
from repro.engine.plan import compile_rule
from repro.engine.relation import encode_args
from repro.parser import parse_atom, parse_rules
from repro.program.dependency import SCCComponent
from repro.program.rule import Atom
from repro.program.stratify import stratify
from repro.terms.pretty import format_atom, format_term
from repro.terms.term import Const, SetVal, Var

from tests.helpers import (
    fused_and_unfused,
    idb_facts,
    reference_model,
    topdown_idb_facts,
)
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


#: Bodies binding A and B, the filters that can end them, and heads.
FILTER_BODIES = ("q(A, B)", "q(A, M), s(M, B)", "t(A), q(A, B)", "q(A, B), t(B)")
TAIL_FILTERS = (
    "~s(A, B)", "~s(B, A)", "~s(A, 1)", "~t(B)",
    "A != B", "A = B", "A != 1", "B = 'u1'", "B != 1.0",
)
FILTER_HEADS = ("r(A, B)", "r(B, A)", "r(A, c)")

#: ``u1`` beside ``'u1'`` (one class, two spellings) and ``1`` beside
#: ``1.0`` (two classes: ``!=`` holds between them).
filter_values = st.sampled_from(("u1", "'u1'", "1", "1.0", "c"))
filter_facts = st.tuples(
    st.lists(st.tuples(filter_values, filter_values), max_size=12),
    st.lists(st.tuples(filter_values, filter_values), max_size=8),
    st.lists(filter_values, max_size=4),
)


def _atoms(pred, tuples):
    return [parse_atom(f"{pred}({', '.join(args)})") for args in tuples]


def _printed_model(src, edb, fuse):
    with pytest.MonkeyPatch.context() as patch:
        if not fuse:
            patch.setattr(specialize, "filter_fuses", lambda step: False)
        db = evaluate(parse_rules(src), edb=edb).database
    return sorted(map(format_atom, db.atoms()))


@given(
    st.sampled_from(FILTER_HEADS),
    st.sampled_from(FILTER_BODIES),
    st.sampled_from(TAIL_FILTERS),
    filter_facts,
    filter_facts,
)
# a binary copy anti-joined on its pair: the unfused rule must keep
# its negation step whatever closure reads the scan
@example(
    "r(A, B)", "q(A, B)", "~s(A, B)",
    ([("u1", "1"), ("u1", "c")], [("u1", "1")], []), ([], [], []),
)
@settings(max_examples=60, deadline=None)
def test_fused_filter_equals_unfused_and_reference(head, body, tail, facts, other):
    """A rule ending in a negation or ``=``/``!=`` gives the same rows,
    ``exec_steps`` counts and printed model with its tail filter fused
    into the gather as without, and the reference's bindings: scanning
    the database, a plain argument-tuple delta or a ``RowBatch`` delta,
    with the database or another one as the negation database."""
    src = f"{head} <- {body}, {tail}."
    q, s, t = facts
    edb = _atoms("q", q) + _atoms("s", s) + _atoms("t", [(v,) for v in t])
    db = Database(edb)
    q2, s2, t2 = other
    negation_db = Database(_atoms("s", s2) + _atoms("t", [(v,) for v in t2]))
    assert _printed_model(src, edb, True) == _printed_model(src, edb, False)
    (rule,) = parse_rules(src).rules
    pairs = [atom.args for atom in _atoms("x", q2)]
    for first in (None, 0, 1):
        if first is None:
            sources = (None,)
        else:
            literal = rule.body[first]
            if not literal.positive or literal.atom.pred not in "qst":
                continue
            arity = len(literal.atom.args)
            delta = [args[:arity] for args in pairs + pairs[:1]]
            batch = RowBatch(literal.atom.pred, arity)
            for args in delta:
                batch.add(encode_args(args), args)
            sources = (delta, batch)
        plan = compile_rule(rule, first=first)
        for source in sources:
            overrides = None if source is None else {first: source}
            for negdb in (None, negation_db):
                spec = specialized_plan(plan)
                for template in (spec.templates["head"], spec.templates["vars"]):
                    fused, unfused = fused_and_unfused(
                        plan, template, db, overrides, negdb
                    )
                    assert fused[1:] == unfused[1:], src
                reference = run_plan_tuple(
                    db, plan, overrides=overrides, negation_db=negdb
                )
                rows = spec.run("vars", db, {}, overrides, negdb, None)
                assert _bindings(spec.binder()(rows, {})) == _bindings(reference)


def _bindings(bindings):
    return Counter(
        frozenset((name, format_term(value)) for name, value in b.items())
        for b in bindings
    )


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
