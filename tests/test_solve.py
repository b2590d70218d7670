"""Tests for literal ordering and body solving.

Body order comes from :func:`repro.engine.plan.order_body`; applicable
bindings and head facts come from the executor entry points
(:func:`~repro.engine.exec.enumerate_bindings`,
:func:`~repro.engine.exec.derive_facts`) over a compiled plan.
"""

import pytest

from repro.engine.database import Database
from repro.engine.exec import derive_facts, enumerate_bindings
from repro.engine.plan import compile_body, compile_rule, order_body
from repro.errors import SafetyError
from repro.parser import parse_atom, parse_rule
from repro.terms.term import Const


def solve(db, body, binding=None, overrides=None):
    """The applicable bindings of ``body`` over ``db``, as dicts."""
    plan = compile_body(
        body, initially_bound=frozenset(binding) if binding else frozenset()
    )
    return [
        b.materialize()
        for b in enumerate_bindings(
            db, plan, binding=binding, overrides=overrides
        )
    ]


def plan_of(rule_src, bound=frozenset(), first=None):
    rule = parse_rule(rule_src)
    return order_body(rule.body, bound, first=first), rule


class TestOrderBody:
    def test_negation_after_binding(self):
        plan, rule = plan_of("p(X) <- ~r(X), q(X).")
        # ~r(X) needs X bound: q must come first
        assert plan == (1, 0)

    def test_test_builtins_run_early(self):
        plan, rule = plan_of("p(X) <- q(X), X < 3, r(X).")
        # once q binds X, the cheap comparison precedes the second scan
        assert plan.index(1) < plan.index(2)

    def test_equality_as_soon_as_one_side_bound(self):
        plan, rule = plan_of("p(Y) <- q(X), Y = X + 1, r(Y).")
        assert plan == (0, 1, 2)

    def test_generative_builtin_deferred(self):
        # partition's generative mode runs only after S is bound
        plan, rule = plan_of("p(A, B) <- partition(S, A, B), s(S).")
        assert plan == (1, 0)

    def test_forced_first_occurrence(self):
        plan, rule = plan_of(
            "t(X, Y) <- e(X, Z), t(Z, Y).", first=1
        )
        assert plan[0] == 1

    def test_unsafe_body_raises(self):
        rule = parse_rule("p(X) <- q(X), ~r(X, Z).")
        with pytest.raises(SafetyError):
            order_body(rule.body)

    def test_bound_args_preferred(self):
        # with X pre-bound, the literal using X should be first
        plan, rule = plan_of(
            "p(X, Y) <- big(Y), keyed(X, Y).", bound=frozenset({"X"})
        )
        assert plan == (1, 0)

    def test_empty_body(self):
        assert order_body(()) == ()


class TestSolveBody:
    def _db(self):
        db = Database()
        for src in ("q(1)", "q(2)", "q(3)", "r(2)", "s(1, 10)", "s(3, 30)"):
            db.add(parse_atom(src))
        return db

    def test_join(self):
        rule = parse_rule("p(X, V) <- q(X), s(X, V).")
        results = {
            (b["X"].value, b["V"].value)
            for b in solve(self._db(), rule.body)
        }
        assert results == {(1, 10), (3, 30)}

    def test_negation_filters(self):
        rule = parse_rule("p(X) <- q(X), ~r(X).")
        values = {b["X"].value for b in solve(self._db(), rule.body)}
        assert values == {1, 3}

    def test_negated_builtin(self):
        rule = parse_rule("p(X) <- q(X), ~member(X, {1, 2}).")
        values = {b["X"].value for b in solve(self._db(), rule.body)}
        assert values == {3}

    def test_initial_binding_restricts(self):
        rule = parse_rule("p(X) <- q(X).")
        results = list(
            solve(self._db(), rule.body, binding={"X": Const(2)})
        )
        assert len(results) == 1

    def test_overrides_swap_source(self):
        rule = parse_rule("p(X) <- q(X).")
        override_tuples = [(Const(99),)]
        results = solve(self._db(), rule.body, overrides={0: override_tuples})
        assert [b["X"].value for b in results] == [99]

    def test_head_facts_skips_outside_universe(self):
        rule = parse_rule("p(scons(1, X)) <- q(X).")
        # scons onto non-set values (1, 2, 3) falls outside U: no facts
        assert derive_facts(self._db(), compile_rule(rule)) == []

    def test_head_facts_canonicalize(self):
        rule = parse_rule("p(X + 1) <- q(X).")
        facts = {
            f.args[0].value for f in derive_facts(self._db(), compile_rule(rule))
        }
        assert facts == {2, 3, 4}

    def test_arithmetic_filter_chain(self):
        rule = parse_rule("p(X, V) <- q(X), s(X, V), V > 10, X != 2.")
        results = {
            (b["X"].value, b["V"].value)
            for b in solve(self._db(), rule.body)
        }
        assert results == {(3, 30)}
