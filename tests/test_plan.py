"""Tests for compiled rule plans and the per-run EvalContext.

Covers the compile/execute split (repro.engine.plan), plan caching
through EvalContext (each rule compiled at most once per (rule, delta
occurrence, initially-bound variables)), and the chained copy-on-write
bindings the executor yields.
"""

from repro.engine.binding import EMPTY_BINDING, ChainBinding, as_chain, extended
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import derive_facts, enumerate_bindings
from repro.engine.plan import compile_body, compile_rule, order_body
from repro.observe import MetricsCollector, TraceRecorder
from repro.parser import parse_atom, parse_rule

from tests.helpers import run


def db_of(*atom_srcs):
    return Database(parse_atom(src) for src in atom_srcs)


class TestCompile:
    def test_plan_order_matches_order_body(self):
        rule = parse_rule("p(X) <- ~r(X), q(X).")
        plan = compile_rule(rule)
        assert plan.order == order_body(rule.body)

    def test_first_occurrence_leads(self):
        rule = parse_rule("t(X, Y) <- e(X, Z), t(Z, Y).")
        plan = compile_rule(rule, first=1)
        assert plan.order[0] == 1
        assert plan.first == 1

    def test_probe_positions_use_bound_vars(self):
        rule = parse_rule("t(X, Y) <- e(X, Z), t(Z, Y).")
        plan = compile_rule(rule)
        # after e(X, Z) binds both vars, t(Z, _) probes position 0
        recursive_step = plan.steps[1]
        assert recursive_step.probe_positions == (0,)

    def test_fully_bound_membership_step(self):
        rule = parse_rule("p(X) <- q(X), r(X).")
        plan = compile_rule(rule)
        assert plan.steps[1].fully_bound

    def test_constant_probe(self):
        rule = parse_rule("p(X) <- e(a, X).")
        plan = compile_rule(rule)
        assert plan.steps[0].probe_positions == (0,)

    def test_grouping_rule_has_no_head_template(self):
        # a grouping rule's template is its *pre-group* head: the
        # grouped position holds its variable, one row per binding
        rule = parse_rule("p(X, <Y>) <- e(X, Y).")
        plan = compile_rule(rule)
        assert plan.head.atom == parse_atom("p(X, Y)")
        assert plan.head.fast
        assert plan.head.parts == (("var", "X"), ("var", "Y"))


class TestRunPlan:
    def test_join_results(self):
        rule = parse_rule("t(X, Y) <- e(X, Z), e(Z, Y).")
        db = db_of("e(1, 2)", "e(2, 3)", "e(2, 4)")
        facts = set(derive_facts(db, compile_rule(rule)))
        assert facts == {parse_atom("t(1, 3)"), parse_atom("t(1, 4)")}

    def test_overrides_restrict_one_occurrence(self):
        rule = parse_rule("t(X, Y) <- e(X, Z), t(Z, Y).")
        db = db_of("e(1, 2)", "e(2, 3)", "t(2, 9)", "t(3, 9)")
        plan = compile_rule(rule, first=1)
        # delta contains only t(3, 9): joins must go through it
        facts = set(
            derive_facts(db, plan, overrides={1: [parse_atom("t(3, 9)").args]})
        )
        assert facts == {parse_atom("t(2, 9)")}

    def test_negation_uses_negation_db(self):
        rule = parse_rule("p(X) <- q(X), ~r(X).")
        db = db_of("q(1)", "q(2)", "r(1)")
        other = db_of("r(2)")
        # negation consulted against `other`, not the probe db
        facts = set(derive_facts(db, compile_rule(rule), negation_db=other))
        assert facts == {parse_atom("p(1)")}

    def test_run_plan_yields_mappings(self):
        plan = compile_body(parse_rule("p(X) <- e(X, Y).").body)
        db = db_of("e(1, 2)")
        (binding,) = list(enumerate_bindings(db, plan))
        assert dict(binding) == {
            "X": parse_atom("e(1, 2)").args[0],
            "Y": parse_atom("e(1, 2)").args[1],
        }

    def test_builtins_in_plan(self):
        rule = parse_rule("p(Y) <- e(X, _), Y = X + 1, Y < 4.")
        db = db_of("e(1, 9)", "e(2, 9)", "e(3, 9)")
        facts = set(derive_facts(db, compile_rule(rule)))
        assert facts == {parse_atom("p(2)"), parse_atom("p(3)")}


class TestChainBinding:
    def test_bind_does_not_mutate_parent(self):
        base = as_chain({"X": 1})
        child = base.bind("Y", 2)
        assert "Y" not in base
        assert dict(child) == {"X": 1, "Y": 2}

    def test_materialize_roundtrip(self):
        chain = EMPTY_BINDING.bind("A", 1).bind("B", 2)
        assert chain.materialize() == {"A": 1, "B": 2}
        assert len(chain) == 2

    def test_as_chain_passthrough(self):
        chain = EMPTY_BINDING.bind("A", 1)
        assert as_chain(chain) is chain
        assert as_chain(None) is EMPTY_BINDING

    def test_extended_copies_dicts(self):
        original = {"X": 1}
        copy = extended(original)
        copy["Y"] = 2
        assert original == {"X": 1}

    def test_extended_keeps_chains(self):
        chain = EMPTY_BINDING.bind("X", 1)
        assert extended(chain) is chain

    def test_equality_with_dict(self):
        chain = EMPTY_BINDING.bind("X", 1)
        assert chain == {"X": 1}
        assert isinstance(chain, ChainBinding)


class TestEvalContext:
    def test_plan_for_caches(self):
        rule = parse_rule("p(X) <- q(X).")
        ctx = EvalContext(Database())
        first = ctx.plan_for(rule)
        assert ctx.plan_for(rule) is first
        assert len(ctx.plans) == 1

    def test_distinct_keys_per_occurrence(self):
        rule = parse_rule("t(X, Y) <- e(X, Z), t(Z, Y).")
        ctx = EvalContext(Database())
        assert ctx.plan_for(rule) is not ctx.plan_for(rule, first=1)
        assert len(ctx.plans) == 2

    def test_plan_survives_db_growth(self):
        db = db_of("e(1, 2)")
        ctx = EvalContext(db)
        rule = parse_rule("p(X) <- e(X, Y).")
        plan = ctx.plan_for(rule)
        db.add(parse_atom("e(3, 4)"))
        ctx.refresh_sizes()  # later plans see the new sizes; built ones stay
        assert ctx.sizes == {"e": 2}
        assert ctx.plan_for(rule) is plan

    def test_contexts_over_one_cache_share_plans(self):
        rule = parse_rule("p(X) <- e(X, Y).")
        ctx = EvalContext(db_of("e(1, 2)"))
        other = ctx.over(db_of("e(3, 4)"))
        assert other.plans is ctx.plans
        assert other.plan_for(rule) is ctx.plan_for(rule)


TC = """
t(X, Y) <- e(X, Y).
t(X, Y) <- e(X, Z), t(Z, Y).
"""

#: Non-linear closure: not a closure shape, so it stays on the
#: semi-naive loop.
NONLINEAR = """
a(X, Y) <- e(X, Y).
a(X, Y) <- a(X, Z), a(Z, Y).
"""


def chain(n):
    return "".join(f"e({i}, {i + 1}). " for i in range(n))


class TestPlanOnce:
    """Each (rule, delta occurrence) is compiled at most once per run."""

    def test_seminaive_plan_count_independent_of_iterations(self):
        counts = {}
        for n in (4, 24):
            recorder = TraceRecorder()
            run(chain(n) + NONLINEAR, strategy="seminaive", hooks=recorder)
            counts[n] = recorder.plans_built
        # a 6x longer chain means more fixpoint rounds but the same
        # plans: both rules once for round 0, plus the recursive rule's
        # two delta occurrences of a.
        assert counts[4] == counts[24] == 4

    def test_closure_plans_no_rounds(self):
        # the right-linear t is a closure: only its exit rule is
        # planned, and the closure step is one firing of no plan
        for n in (4, 24):
            recorder = TraceRecorder()
            result = run(chain(n) + TC, strategy="seminaive", hooks=recorder)
            assert recorder.plans_built == 1
            assert recorder.count("plan_reused") == 0
            assert result.total_iterations == 2

    def test_naive_plan_count_is_rule_count(self):
        recorder = TraceRecorder()
        result = run(chain(12) + TC, strategy="naive", hooks=recorder)
        assert recorder.plans_built == 2
        assert result.total_iterations > 2

    def test_cache_hits_recorded(self):
        metrics = MetricsCollector()
        run(chain(12) + NONLINEAR, strategy="seminaive", metrics=metrics)
        assert metrics.counters["plans_built"] == 4
        assert metrics.counters["plan_cache_hits"] > 0
