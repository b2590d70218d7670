"""Tests for the fixpoint operators (repro.engine.fixpoint)."""

from repro.engine.database import Database
from repro.engine.fixpoint import naive_fixpoint, seminaive_fixpoint
from repro.parser import parse_atom, parse_rules


def chain_db(n):
    db = Database()
    for i in range(n):
        db.add(parse_atom(f"e({i}, {i + 1})"))
    return db


TC = parse_rules(
    """
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
    """
).proper_rules()


class TestNaive:
    def test_reaches_fixpoint(self):
        db = chain_db(6)
        stats = naive_fixpoint(db, TC)
        assert db.count("t") == 21  # 6*7/2

    def test_iteration_count_tracks_depth(self):
        db = chain_db(6)
        stats = naive_fixpoint(db, TC)
        # naive iterates once per new "distance" plus the final no-change pass
        assert stats.iterations == 7

    def test_idempotent(self):
        db = chain_db(4)
        naive_fixpoint(db, TC)
        before = db.count()
        stats = naive_fixpoint(db, TC)
        assert db.count() == before
        assert stats.facts_derived == 0

    def test_no_rules(self):
        db = chain_db(3)
        stats = naive_fixpoint(db, [])
        assert stats.facts_derived == 0


class TestSemiNaive:
    def test_same_fixpoint_as_naive(self):
        db1 = chain_db(8)
        db2 = chain_db(8)
        naive_fixpoint(db1, TC)
        seminaive_fixpoint(db2, TC)
        assert db1 == db2

    def test_fires_fewer_rules(self):
        db1 = chain_db(12)
        db2 = chain_db(12)
        naive_stats = naive_fixpoint(db1, TC)
        semi_stats = seminaive_fixpoint(db2, TC)
        assert semi_stats.rule_firings < naive_stats.rule_firings

    def test_nonrecursive_rules_single_round(self):
        rules = parse_rules("p(X) <- e(X, _).").proper_rules()
        db = chain_db(5)
        stats = seminaive_fixpoint(db, rules)
        assert db.count("p") == 5
        # round 0 plus the empty delta round
        assert stats.iterations <= 2

    def test_mutual_recursion(self):
        rules = parse_rules(
            """
            even_dist(X, Y) <- e(X, Z), odd_dist(Z, Y).
            odd_dist(X, Y) <- e(X, Y).
            odd_dist(X, Y) <- e(X, Z), even_dist(Z, Y).
            """
        ).proper_rules()
        db1 = chain_db(7)
        db2 = chain_db(7)
        naive_fixpoint(db1, rules)
        seminaive_fixpoint(db2, rules)
        assert db1 == db2
        # distance 2 pairs are even
        assert (parse_atom("even_dist(0, 2)")) in db2

    def test_stats_merge(self):
        from repro.engine.fixpoint import FixpointStats

        a = FixpointStats(iterations=1, rule_firings=2, facts_derived=3)
        b = FixpointStats(iterations=4, rule_firings=5, facts_derived=6)
        a.merge(b)
        assert (a.iterations, a.rule_firings, a.facts_derived) == (5, 7, 9)


class TestAttribution:
    """Derivation attribution and firing counts agree across strategies."""

    def test_rule_firings_count_applications(self):
        # one non-recursive rule: naive runs it once per iteration
        # (deriving round + no-change round), so exactly 2 applications
        # regardless of how many tuples each application produced.
        rules = parse_rules("p(X) <- e(X, _).").proper_rules()
        db = chain_db(5)
        stats = naive_fixpoint(db, rules)
        assert stats.rule_firings == 2
        assert stats.facts_derived == 5

    def test_both_strategies_attribute_the_deriving_rule(self):
        from repro.engine.context import EvalContext
        from repro.observe import TraceRecorder

        attributions = {}
        for strategy in (naive_fixpoint, seminaive_fixpoint):
            recorder = TraceRecorder()
            db = chain_db(5)
            strategy(db, TC, context=EvalContext(db, hooks=recorder))
            events = [
                e for e in recorder.events if e.kind == "fact_derived"
            ]
            assert events and all(
                e.payload["rule"] is not None for e in events
            )
            attributions[strategy.__name__] = {
                (e.payload["fact"], e.payload["rule"]) for e in events
            }
        # same facts attributed to the same rules under both strategies
        assert (
            attributions["naive_fixpoint"]
            == attributions["seminaive_fixpoint"]
        )


class TestSizedPlanner:
    def test_same_fixpoint_as_static(self):
        from repro.engine import evaluate
        from repro.parser import parse_program

        from tests.helpers import assert_sizes_do_not_change_facts

        src = """
        tiny(0). tiny(1).
        out(Y) <- big(X, Y), tiny(X).
        """
        program, _ = parse_program(src)
        edb = [parse_atom(f"big({i % 7}, {i})") for i in range(200)]
        model = evaluate(program, edb=edb)
        # the live sizes put tiny first, the syntactic order big
        assert_sizes_do_not_change_facts(program, model.database)
        assert model.database.count("out") == 58

    def test_sized_order_puts_small_relation_first(self):
        from repro.engine.plan import order_body
        from repro.parser import parse_rule

        rule = parse_rule("out(Y) <- big(X, Y), tiny(X).")
        static = order_body(rule.body)
        sized = order_body(rule.body, sizes={"big": 10_000, "tiny": 3})
        assert static == (0, 1)
        assert sized == (1, 0)

    def test_sized_respects_bound_args(self):
        from repro.engine.plan import order_body
        from repro.parser import parse_rule

        # with X bound, probing big by index may beat scanning tiny
        rule = parse_rule("out(X, Y) <- big(X, Y), tiny(Z).")
        sized = order_body(
            rule.body, initially_bound=frozenset({"X"}),
            sizes={"big": 100, "tiny": 50},
        )
        assert sized == (0, 1)  # 100/4 < 50
