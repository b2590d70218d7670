"""Linear closure components evaluated by reachability.

A recursive component that is one left- or right-linear closure over a
lower binary relation (:func:`repro.engine.fixpoint.closure_shape`)
runs under the semi-naive strategy as :func:`closure_fixpoint`: one
SCC pass over the step graph and one reach set per component.  These
tests hold it to the semi-naive loop run directly (answers, spellings
and ``facts_derived``, exactly) and to the tabled top-down evaluator,
check that near-miss shapes stay on the loop, and that a maintained
model recomputes through it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import IncrementalModel, evaluate
from repro.engine.compiled import base_database, compile_program
from repro.engine.context import EvalContext
from repro.engine.fixpoint import closure_shape, seminaive_fixpoint
from repro.engine.relation import encode_args
from repro.engine.topdown import evaluate_topdown
from repro.parser import parse_program, parse_query
from repro.program.rule import Atom
from repro.terms.pretty import format_atom
from repro.terms.term import Const
from repro.workloads.social import SOCIAL_PROGRAM

#: The four closure forms: left- and right-linear, each with both
#: column orders of ``e``.
FORMS = {
    "left": "p(A, B) <- p(A, C), e(C, B).",
    "left-swapped": "p(A, B) <- p(A, C), e(B, C).",
    "right": "p(A, B) <- e(A, C), p(C, B).",
    "right-swapped": "p(A, B) <- e(C, A), p(C, B).",
}

#: ``'n1'`` beside ``n1`` and ``1.0`` beside ``1``: each pair one
#: equality class, spelled two ways.
SPELLINGS = {
    "n1": ["n1", "'n1'"],
    "1": ["1", "1.0"],
    "n2": ["n2", "'n2'"],
    "n3": ["n3"],
    "2": ["2", "2.0"],
    "n4": ["n4"],
    "n5": ["n5", "'n5'"],
    "n6": ["n6"],
}
NODES = sorted(SPELLINGS)


def _const(spelled: str) -> Const:
    if spelled.startswith("'"):
        return Const(spelled[1:-1], True)
    for kind in (int, float):
        try:
            return Const(kind(spelled))
        except ValueError:
            pass
    return Const(spelled)


@st.composite
def spelled_nodes(draw, pool=NODES):
    return draw(st.sampled_from(SPELLINGS[draw(st.sampled_from(pool))]))


@st.composite
def closure_cases(draw):
    """A closure program and its EDB: a random digraph ``e`` over part
    of the nodes (self-loops, 2-cycles, possibly empty), exit pairs
    ``s`` over all of them (so some nodes are isolated in ``e``), the
    exit rule before or after the recursive rule, and perhaps a
    program fact of ``p``."""
    form = draw(st.sampled_from(sorted(FORMS)))
    graph = NODES[: draw(st.integers(1, len(NODES)))]
    pair = st.tuples(spelled_nodes(graph), spelled_nodes(graph))
    edges = draw(st.lists(pair, max_size=12))
    for a, b in draw(st.lists(pair, max_size=3)):
        edges += [(a, b), (b, a)]  # 2-cycles
    edges += [(a, a) for a in draw(st.lists(spelled_nodes(graph), max_size=2))]
    seeds = draw(st.lists(st.tuples(spelled_nodes(), spelled_nodes()), max_size=5))
    rules = ["p(A, B) <- s(A, B).", FORMS[form]]
    if draw(st.booleans()):
        rules.reverse()
    if draw(st.booleans()):
        a, b = draw(st.tuples(spelled_nodes(), spelled_nodes()))
        rules.append(f"p({a}, {b}).")
    program, _ = parse_program("\n".join(rules))
    edb = [Atom("e", (_const(a), _const(b))) for a, b in edges]
    edb += [Atom("s", (_const(a), _const(b))) for a, b in seeds]
    return form, program, edb


def _printed(db, pred="p"):
    return sorted(format_atom(a) for a in db.atoms(pred))


@given(closure_cases())
@settings(max_examples=150, deadline=None)
def test_closure_equals_seminaive_loop_and_topdown(case):
    form, program, edb = case
    result = evaluate(program, edb=edb)
    (scc,) = [scc for layer in result.layer_stats for scc in layer.sccs]
    assert scc.path == "closure"
    # the semi-naive loop itself, over the same base facts
    db = base_database(program, edb)
    rules = [r for r in program.rules if not r.is_fact()]
    stats = seminaive_fixpoint(db, rules, context=EvalContext(db))
    assert _printed(result.database) == _printed(db)
    assert scc.fixpoint.facts_derived == stats.facts_derived
    assert (scc.fixpoint.iterations, scc.fixpoint.rule_firings) == (2, 2)
    # the tabled top-down oracle spells a bound variable as the first
    # spelling it met, so it is compared in ID space
    answers, _ = evaluate_topdown(program, parse_query("? p(X, Y)."), edb=edb)
    assert {encode_args(a.args) for a in answers} == {
        encode_args(a.args) for a in result.database.atoms("p")
    }


def test_empty_and_missing_edge_relation():
    for edb in ([], [Atom("s", (Const("a"), Const("b")))]):
        for form in FORMS.values():
            program, _ = parse_program("p(A, B) <- s(A, B).\np(x, y).\n" + form)
            result = evaluate(program, edb=edb)
            assert [s.path for layer in result.layer_stats for s in layer.sccs] == [
                "closure"
            ]
            expected = ["p(x, y)"] + (["p(a, b)"] if edb else [])
            assert _printed(result.database) == sorted(expected)


def test_fact_events_attribute_exit_and_recursive_rules():
    program, _ = parse_program(
        "e(a, b). e(b, c). e(c, a). s(a, b).\n"
        "p(A, B) <- s(A, B).\n" + FORMS["left"]
    )
    derived = []

    class Facts:
        def on_fact_derived(self, fact, rule):
            derived.append((format_atom(fact), str(rule)))

    evaluate(program, hooks=Facts())
    exit_rule, recursive = (str(r) for r in program.proper_rules())
    assert derived[0] == ("p(a, b)", exit_rule)
    assert sorted(derived[1:]) == [
        ("p(a, a)", recursive), ("p(a, c)", recursive),
    ]


#: Shapes that are not one linear closure: each stays on the loop.
NEAR_MISSES = {
    "non-linear": "a(X, Y) <- e(X, Y).\na(X, Y) <- a(X, Z), a(Z, Y).",
    "negated": "a(X, Y) <- e(X, Y).\na(X, Y) <- a(X, Z), e(Z, Y), ~b(Y).",
    "builtin": "a(X, Y) <- e(X, Y).\na(X, Y) <- a(X, Z), e(Z, Y), X != Y.",
    "two recursive rules": (
        "a(X, Y) <- e(X, Y).\na(X, Y) <- a(X, Z), e(Z, Y).\n"
        "a(X, Y) <- a(X, Z), f(Z, Y)."
    ),
    "mutually recursive": (
        "a(X, Y) <- e(X, Y).\na(X, Y) <- c(X, Z), e(Z, Y).\nc(X, Y) <- a(X, Y)."
    ),
    "repeated head variable": "a(X, X) <- e(X, X).\na(X, X) <- a(X, Z), e(Z, X).",
    "repeated body variable": "a(X, Y) <- e(X, Y).\na(X, Y) <- a(X, X), e(X, Y).",
    "constant": "a(X, Y) <- e(X, Y).\na(X, 3) <- a(X, Z), e(Z, 3).",
    "exit rule mentions it": "a(X, Y) <- e(X, Y), a(Y, X).\na(X, Y) <- a(X, Z), e(Z, Y).",
    "spelled exit after": "a(X, Y) <- a(X, Z), e(Z, Y).\na(X, 'k') <- e(X, _).",
}


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_near_misses_stay_on_the_loop(name):
    program, _ = parse_program(
        NEAR_MISSES[name] + "\ne(1, 2). e(2, 3). e(3, 1). f(3, 4). b(9)."
    )
    result = evaluate(program)
    paths = {
        pred: scc.path
        for layer in result.layer_stats for scc in layer.sccs
        for pred in scc.preds
    }
    assert paths["a"] == "seminaive"
    assert all(
        c.closure is None and closure_shape(c) is None
        for layer in compile_program(program).schedule for c in layer
    )
    # and the loop's model is the top-down oracle's
    answers, _ = evaluate_topdown(program, parse_query("? a(X, Y)."))
    assert {format_atom(a) for a in answers} == set(
        _printed(result.database, "a")
    )


# -- a maintained model recomputes through the closure ----------------------

SOCIAL, _ = parse_program(SOCIAL_PROGRAM)

#: a 12-node ring plus chords from every even node: strongly connected,
#: so removing a chord condemns the whole closure and trips DRed's gate.
RING = [(i, (i + 1) % 12) for i in range(12)] + [
    (i, (i + 2) % 12) for i in range(0, 12, 2)
]


def _follows(pairs, spell=lambda i: f"u{i}"):
    return [Atom("follows", (_const(spell(a)), _const(spell(b)))) for a, b in pairs]


class _Paths:
    def __init__(self):
        self.paths = []

    def on_scc_end(self, layer, preds, recursive, path, new_facts, seconds):
        if "influences" in preds:
            self.paths.append(path)


@pytest.mark.parametrize("maintain", ["delta", "recompute"])
def test_gated_removal_recomputes_through_the_closure(maintain):
    seen = _Paths()
    model = IncrementalModel(
        SOCIAL, _follows(RING), hooks=seen, maintain=maintain
    )
    assert seen.paths == ["closure"]
    stats = model.remove_facts(_follows([(0, 2)]))
    if maintain == "delta":
        assert stats.component_recomputes == 1
    assert seen.paths == ["closure", "closure"]
    expected = evaluate(SOCIAL, edb=_follows(RING[:12] + RING[13:])).database
    assert _printed(model.database, None) == _printed(expected, None)


@st.composite
def update_batches(draw):
    """Follows edges over six users spelled ``u1``/``'u1'``/``1``/
    ``1.0``, and add/remove batches drawn from the same pool."""
    def spell(i):
        return draw(st.sampled_from([f"u{i}", f"'u{i}'", str(i), f"{i}.0"]))

    pool = _follows(
        draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=14, unique=True)),
        spell,
    )
    initial = draw(st.lists(st.sampled_from(pool), unique=True))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "remove"]),
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True),
        ),
        min_size=1, max_size=5,
    ))
    return initial, ops


@pytest.mark.parametrize("maintain", ["delta", "recompute"])
@given(case=update_batches())
@settings(max_examples=30, deadline=None)
def test_maintained_model_equals_fresh_evaluation(maintain, case):
    initial, ops = case
    model = IncrementalModel(SOCIAL, initial, maintain=maintain)
    current = dict.fromkeys(initial)
    for op, batch in ops:
        if op == "add":
            model.add_facts(batch)
            current.update(dict.fromkeys(batch))
        else:
            model.remove_facts(batch)
            for atom in batch:
                current.pop(atom, None)
        fresh = evaluate(SOCIAL, edb=list(current)).database
        assert _printed(model.database, None) == _printed(fresh, None)
