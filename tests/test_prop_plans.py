"""Property tests: plan caching and join ordering never change facts.

A plan cached once and reused across fixpoint iterations has to yield
exactly the facts a fresh compilation — and the reference executor —
would; and ordering a body by live relation sizes instead of by the
syntactic heuristic has to derive the same facts, rule by rule.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import derive_facts
from repro.engine.plan import compile_rule
from repro.parser import parse_rules
from repro.program.rule import Atom
from repro.terms.term import Const

from tests.helpers import assert_sizes_do_not_change_facts
from tests.strategies import generated_programs

TC_RULES = """
t(X, Y) <- e(X, Y).
t(X, Y) <- e(X, Z), t(Z, Y).
"""

edges = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10)),
    max_size=20,
    unique=True,
)


def edge_atoms(pairs):
    return [Atom("e", (Const(a), Const(b))) for a, b in pairs]


@given(generated_programs)
@settings(max_examples=25, deadline=None)
def test_unsized_and_sized_plans_derive_the_same_facts(generated):
    """On random admissible programs — negation and grouping included —
    every rule derives the same facts over the model whether its plan
    was ordered with ``sizes=None`` or against live sizes."""
    model = evaluate(generated.program, edb=generated.edb)
    assert_sizes_do_not_change_facts(generated.program, model.database)


@given(edges)
@settings(max_examples=30, deadline=None)
def test_cached_plan_equals_fresh_compilation(pairs):
    """A plan reused across growing databases matches per-call planning
    and the reference executor."""
    rules = parse_rules(TC_RULES)
    db = Database(edge_atoms(pairs))
    ctx = EvalContext(db)
    for _ in range(3):  # grow the db, reusing the cached plans each round
        for rule in rules.rules:
            cached = set(derive_facts(db, ctx.plan_for(rule)))
            fresh = set(derive_facts(db, compile_rule(rule)))
            reference = set(
                derive_facts(db, compile_rule(rule), executor="tuple")
            )
            assert cached == fresh == reference
            for fact in cached:
                db.add(fact)
