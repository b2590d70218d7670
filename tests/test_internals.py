"""White-box tests for evaluator internals: tabling, magic phases,
incremental bookkeeping, and statistics plumbing."""


from repro.engine import evaluate
from repro.engine.incremental import IncrementalModel
from repro.engine.topdown import TopDownEvaluator
from repro.magic import evaluate_magic
from repro.parser import parse_atom, parse_program, parse_query, parse_rules

ANCESTOR = """
parent(a, b). parent(b, c). parent(c, d).
anc(X, Y) <- parent(X, Y).
anc(X, Y) <- parent(X, Z), anc(Z, Y).
"""


class TestTopDownTables:
    def test_subgoal_key_includes_bound_args_only(self):
        program, _ = parse_program(ANCESTOR)
        evaluator = TopDownEvaluator(program)
        evaluator.query(parse_query("? anc(a, X)."))
        keys = {key for (pred, key) in evaluator._tables if pred == "anc"}
        for key in keys:
            assert key[1] is None  # second argument always free

    def test_tables_marked_complete_after_solve(self):
        program, _ = parse_program(ANCESTOR)
        evaluator = TopDownEvaluator(program)
        evaluator.query(parse_query("? anc(a, X)."))
        assert all(t.complete for t in evaluator._tables.values())

    def test_second_query_reuses_tables(self):
        program, _ = parse_program(ANCESTOR)
        evaluator = TopDownEvaluator(program)
        evaluator.query(parse_query("? anc(a, X)."))
        subgoals_before = evaluator.stats.subgoals
        rounds_before = evaluator.stats.driver_rounds
        evaluator.query(parse_query("? anc(a, X)."))
        assert evaluator.stats.subgoals == subgoals_before
        # a completed root returns without another driver round
        assert evaluator.stats.driver_rounds == rounds_before

    def test_distinct_keys_get_distinct_tables(self):
        program, _ = parse_program(ANCESTOR)
        evaluator = TopDownEvaluator(program)
        evaluator.query(parse_query("? anc(a, X)."))
        evaluator.query(parse_query("? anc(b, X)."))
        anc_tables = [k for (p, k) in evaluator._tables if p == "anc"]
        assert len(anc_tables) >= 2


class TestMagicPhases:
    def test_pure_positive_program_single_phase(self):
        program, _ = parse_program(ANCESTOR)
        result = evaluate_magic(program, parse_query("? anc(a, X)."))
        # no deferred rules: the loop runs saturation once, sees no
        # deferred change, and stops.
        assert result.stats.phases == 1
        assert result.stats.deferred_facts == 0

    def test_grouping_adds_phase(self):
        program, _ = parse_program(
            ANCESTOR + "descendants(X, <Y>) <- anc(X, Y)."
        )
        result = evaluate_magic(program, parse_query("? descendants(a, S)."))
        assert result.stats.phases >= 2
        assert result.stats.deferred_facts >= 1

    def test_seed_in_database(self):
        program, _ = parse_program(ANCESTOR)
        result = evaluate_magic(program, parse_query("? anc(a, X)."))
        assert parse_atom("m_anc__bf(a)") in result.database


class TestIncrementalBookkeeping:
    def test_update_stats_modes(self):
        program = parse_rules(
            """
            anc(X, Y) <- parent(X, Y).
            anc(X, Y) <- parent(X, Z), anc(Z, Y).
            """
        )
        # the oracle's cone recompute, insert and delete alike
        model = IncrementalModel(
            program, [parse_atom("parent(a, b)")], maintain="recompute"
        )
        insert = model.add_facts([parse_atom("parent(b, c)")])
        assert insert.mode == "recompute"
        assert insert.fixpoint.facts_derived >= 2
        removal = model.remove_facts([parse_atom("parent(b, c)")])
        assert removal.mode == "recompute"
        assert removal.facts_removed >= 1
        totals = model.maintenance
        assert totals.updates == totals.recompute_updates == 2
        assert totals.delta_updates == 0

    def test_maintained_update_stats(self):
        program = parse_rules(
            """
            anc(X, Y) <- parent(X, Y).
            anc(X, Y) <- parent(X, Z), anc(Z, Y).
            """
        )
        model = IncrementalModel(
            program, [parse_atom("parent(a, b)")], maintain="delta"
        )
        delta = model.add_facts([parse_atom("parent(b, c)")])
        assert delta.mode == "maintain"
        assert delta.fixpoint.facts_derived >= 2
        removal = model.remove_facts([parse_atom("parent(b, c)")])
        assert removal.mode == "maintain"
        assert removal.overdeleted >= 2
        assert removal.facts_removed >= 1
        totals = model.maintenance
        assert totals.updates == 2
        assert totals.delta_updates == 2
        assert totals.recompute_updates == 0

    def test_recompute_counts_only_idb_facts(self):
        program = parse_rules("q(X) <- p(X).")
        model = IncrementalModel(
            program,
            [parse_atom("p(1)"), parse_atom("p(2)")],
            maintain="recompute",
        )
        stats = model.remove_facts([parse_atom("p(2)")])
        # removed: q(1), q(2) rebuilt; p facts reinstated, not counted
        assert stats.facts_removed == 2

    def test_edb_facts_tracked_separately(self):
        program = parse_rules("q(X) <- p(X).")
        model = IncrementalModel(program, [parse_atom("p(1)")])
        assert parse_atom("p(1)") in model._edb_facts
        assert parse_atom("q(1)") not in model._edb_facts


class TestEvaluationStatsPlumbing:
    def test_layer_stats_sum_to_totals(self):
        program, _ = parse_program(
            ANCESTOR + """
            has_kid(X) <- parent(X, _).
            leaf(Y) <- parent(_, Y), ~has_kid(Y).
            kids(P, <C>) <- parent(P, C).
            """
        )
        result = evaluate(program)
        assert result.total_iterations == sum(
            s.fixpoint.iterations for s in result.layer_stats
        )
        assert result.total_firings == sum(
            s.fixpoint.rule_firings for s in result.layer_stats
        )
        assert sum(s.grouping_facts for s in result.layer_stats) == 3

    def test_grouping_facts_counted_per_layer(self):
        program, _ = parse_program("g(K, <V>) <- e(K, V). e(a, 1). e(b, 2).")
        result = evaluate(program)
        grouping_layer = result.layer_stats[-1]
        assert grouping_layer.grouping_facts == 2


class TestDeepRecursion:
    """Derivations and subgoal chains scale with the data, not the
    default interpreter recursion limit."""

    CHAIN_RULES = """
    anc(X, Y) <- parent(X, Y).
    anc(X, Y) <- parent(X, Z), anc(Z, Y).
    """

    def test_explain_long_chain(self):
        import sys

        from repro import LDL
        from repro.workloads import chain_family

        before = sys.getrecursionlimit()
        db = LDL(self.CHAIN_RULES).add_atoms(chain_family(600))
        derivation = db.explain("anc(p0, p600)")
        assert derivation.depth() == 601
        assert derivation.size() == 1200
        assert "anc(p0, p600)" in derivation.format().splitlines()[0]
        assert sys.getrecursionlimit() == before  # restored

    def test_topdown_long_chain(self):
        import sys

        from repro.engine.topdown import evaluate_topdown
        from repro.parser import parse_program, parse_query
        from repro.workloads import chain_family

        before = sys.getrecursionlimit()
        program, _ = parse_program(self.CHAIN_RULES)
        answers, _ = evaluate_topdown(
            program, parse_query("? anc(p0, X)."), edb=chain_family(600)
        )
        assert len(answers) == 600
        assert sys.getrecursionlimit() == before

    def test_deep_recursion_utility(self):
        import sys

        from repro.util import MAX_RECURSION_LIMIT, deep_recursion

        before = sys.getrecursionlimit()
        with deep_recursion(before + 1234):
            assert sys.getrecursionlimit() == before + 1234
        assert sys.getrecursionlimit() == before
        with deep_recursion(10 ** 9):
            assert sys.getrecursionlimit() == MAX_RECURSION_LIMIT
        assert sys.getrecursionlimit() == before
        with deep_recursion(10):  # never lowered
            assert sys.getrecursionlimit() == before
