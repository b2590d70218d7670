"""Tests for adornment, magic rewriting, and constrained evaluation (§6)."""

import pytest

from repro.engine import evaluate
from repro.errors import MagicRewriteError
from repro.magic import adorn, evaluate_magic, magic_rewrite
from repro.parser import parse_program, parse_query, parse_rules
from repro.terms.pretty import format_atom, format_rule

ANCESTOR = """
parent(a, b). parent(b, c). parent(c, d). parent(e, f).
anc(X, Y) <- parent(X, Y).
anc(X, Y) <- parent(X, Z), anc(Z, Y).
"""

SAME_GENERATION = """
p(adam, john). p(adam, mary). p(eve, john). p(eve, mary). p(john, bob).
siblings(john, mary). siblings(mary, john).
sg(X, Y) <- siblings(X, Y).
sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
"""

YOUNG = SAME_GENERATION + """
a(X, Y) <- p(X, Y).
a(X, Y) <- a(X, Z), a(Z, Y).
has_desc(X) <- a(X, _).
young(X, <Y>) <- sg(X, Y), ~has_desc(X).
"""


def answers_match(src, query_text):
    """Magic answers must equal full-model answers (Theorem 4)."""
    program, _ = parse_program(src)
    query = parse_query(query_text)
    magic = evaluate_magic(program, query)
    full = evaluate(program)
    assert magic.answer_atoms() == full.answer_atoms(query)
    return magic, full


class TestAdornment:
    def test_query_adornment_bound_first(self):
        program = parse_rules(ANCESTOR)
        adorned = adorn(program, parse_query("? anc(a, X)."))
        assert adorned.query_pred == "anc__bf"
        heads = {r.rule.head.pred for r in adorned.rules}
        assert heads == {"anc__bf"}

    def test_free_query(self):
        program = parse_rules(ANCESTOR)
        adorned = adorn(program, parse_query("? anc(X, Y)."))
        assert adorned.query_pred == "anc__ff"

    def test_bound_second_argument(self):
        program = parse_rules(ANCESTOR)
        adorned = adorn(program, parse_query("? anc(X, d)."))
        assert adorned.query_pred == "anc__fb"

    def test_edb_predicates_not_adorned(self):
        program = parse_rules(ANCESTOR)
        adorned = adorn(program, parse_query("? anc(a, X)."))
        for ar in adorned.rules:
            for lit in ar.rule.body:
                if lit.atom.pred.startswith("parent"):
                    assert lit.atom.pred == "parent"

    def test_sip_threads_bindings_left_to_right(self):
        # in rule 4 of the paper, Z1 becomes bound through p(Z1, X).
        program = parse_rules(SAME_GENERATION)
        adorned = adorn(program, parse_query("? sg(john, Y)."))
        recursive = [
            ar
            for ar in adorned.rules
            if any(l.atom.pred.startswith("sg") for l in ar.rule.body)
        ]
        assert recursive
        for ar in recursive:
            sg_literals = [
                (lit, adn)
                for lit, adn in zip(ar.rule.body, ar.body_adornments)
                if lit.atom.pred.startswith("sg")
            ]
            assert sg_literals[0][1] == "bf"  # paper: sg stays bf

    def test_grouped_head_argument_never_bound(self):
        # footnote 6: a bound argument appearing only as <X> cannot
        # restrict X.
        program, _ = parse_program(YOUNG)
        adorned = adorn(program, parse_query("? young(mary, S)."))
        young_rules = [
            ar for ar in adorned.rules if ar.rule.head.pred.startswith("young")
        ]
        assert all(ar.head_adornment == "bf" for ar in young_rules)

    def test_negative_literal_produces_no_bindings(self):
        program = parse_rules(
            """
            b(1). b(2). r(1). s(1, 10). s(2, 20).
            p(X, Y) <- b(X), ~r(X), s(X, Y).
            """
        )
        adorned = adorn(program, parse_query("? p(1, Y)."))
        [ar] = adorned.rules
        # after ~r(X), X stays bound but nothing new is added.
        assert ar.body_adornments == ("b", "b", "bf")

    def test_builtin_query_rejected(self):
        with pytest.raises(MagicRewriteError):
            adorn(parse_rules(ANCESTOR), parse_query("? member(X, {1})."))


class TestRewrite:
    def test_textbook_magic_ancestor(self):
        program = parse_rules(ANCESTOR)
        mp = magic_rewrite(program, parse_query("? anc(a, X)."))
        rules = {format_rule(r) for r in mp.magic_rules + mp.modified_rules}
        assert "m_anc__bf(Z) <- m_anc__bf(X), parent(X, Z)." in rules
        assert "anc__bf(X, Y) <- m_anc__bf(X), parent(X, Y)." in rules
        assert format_atom(mp.seed) == "m_anc__bf(a)"

    def test_grouping_rule_deferred(self):
        program, _ = parse_program(YOUNG)
        mp = magic_rewrite(program, parse_query("? young(mary, S)."))
        assert any(r.is_grouping() for r in mp.deferred_rules)
        assert not any(r.is_grouping() for r in mp.modified_rules)

    def test_negation_demands_full_predicate(self):
        # "if a rule contains ~p, we must evaluate p fully for the
        # bound arguments": a magic rule must exist for the negated
        # predicate.
        program, _ = parse_program(YOUNG)
        mp = magic_rewrite(program, parse_query("? young(mary, S)."))
        magic_heads = {r.head.pred for r in mp.magic_rules}
        assert "m_has_desc__b" in magic_heads

    def test_edb_query_rejected(self):
        program = parse_rules(ANCESTOR)
        with pytest.raises(MagicRewriteError):
            magic_rewrite(program, parse_query("? parent(a, X)."))

    def test_zero_ary_magic_for_free_query(self):
        program = parse_rules(ANCESTOR)
        mp = magic_rewrite(program, parse_query("? anc(X, Y)."))
        assert mp.seed.arity == 0


class TestEquivalence:
    """Theorem 4: (P^mg ∪ seed) computes the paper's answer set."""

    def test_ancestor_bound_free(self):
        answers_match(ANCESTOR, "? anc(a, X).")

    def test_ancestor_free_bound(self):
        answers_match(ANCESTOR, "? anc(X, d).")

    def test_ancestor_bound_bound(self):
        answers_match(ANCESTOR, "? anc(a, d).")
        answers_match(ANCESTOR, "? anc(a, f).")  # no answer

    def test_ancestor_free_free(self):
        answers_match(ANCESTOR, "? anc(X, Y).")

    def test_same_generation(self):
        answers_match(SAME_GENERATION, "? sg(john, Y).")
        answers_match(SAME_GENERATION, "? sg(mary, Y).")
        answers_match(SAME_GENERATION, "? sg(bob, Y).")

    def test_young_all_constants(self):
        for person in ("adam", "eve", "john", "mary", "bob"):
            answers_match(YOUNG, f"? young({person}, S).")

    def test_query_on_grouped_set_constant(self):
        answers_match(YOUNG, "? young(mary, {john}).")

    def test_negation_on_edb(self):
        src = """
        b(1). b(2). bad(1).
        ok(X) <- b(X), ~bad(X).
        good(X) <- ok(X).
        """
        answers_match(src, "? good(X).")
        answers_match(src, "? good(2).")

    def test_multi_layer_grouping(self):
        src = """
        e(a, 1). e(a, 2). e(b, 3).
        g1(K, <V>) <- e(K, V).
        size(K, N) <- g1(K, S), card(S, N).
        """
        answers_match(src, "? size(a, N).")
        answers_match(src, "? size(X, N).")

    def test_set_arguments_in_query(self):
        src = """
        item(a, {1, 2}). item(b, {3}).
        pick(K, S) <- item(K, S).
        bigger(K) <- pick(K, S), card(S, N), N > 1.
        """
        answers_match(src, "? bigger(X).")
        answers_match(src, "? bigger(a).")


class TestRelevanceRestriction:
    def test_magic_computes_fewer_facts_on_chains(self):
        # two disconnected chains: magic must not explore the second.
        chain1 = "".join(f"parent(a{i}, a{i + 1}). " for i in range(20))
        chain2 = "".join(f"parent(b{i}, b{i + 1}). " for i in range(20))
        src = chain1 + chain2 + """
        anc(X, Y) <- parent(X, Y).
        anc(X, Y) <- parent(X, Z), anc(Z, Y).
        """
        program, _ = parse_program(src)
        query = parse_query("? anc(a0, X).")
        magic = evaluate_magic(program, query)
        full = evaluate(program)
        assert magic.answer_atoms() == full.answer_atoms(query)
        derived_by_magic = magic.database.count("anc__bf")
        derived_by_full = full.database.count("anc")
        # the right-linear rule still demands every suffix of chain 1,
        # but chain 2 must be untouched: about half the work.
        assert derived_by_magic <= derived_by_full / 2
        from repro.parser import parse_atom

        assert parse_atom("m_anc__bf(b0)") not in magic.database

    def test_stats_reported(self):
        program, _ = parse_program(YOUNG)
        result = evaluate_magic(program, parse_query("? young(mary, S)."))
        assert result.stats.phases >= 2
        assert result.stats.saturation.facts_derived > 0
        assert result.stats.deferred_facts >= 1

    def test_max_phases_guard(self):
        from repro.errors import UnstableMagicEvaluationError

        program, _ = parse_program(YOUNG)
        with pytest.raises(UnstableMagicEvaluationError):
            evaluate_magic(
                program, parse_query("? young(mary, S)."), max_phases=0
            )


class TestPreparedQuery:
    """One rewrite per (predicate, adornment); the constants enter only
    through the seed (section 6)."""

    NUMBERS = """
    succ(X, Y) <- num(X), num(Y), Y = X + 1.
    up(X, Y) <- succ(X, Y).
    up(X, Y) <- succ(X, Z), up(Z, Y).
    tagged(S, X) <- tag(S), member(X, S).
    """

    @staticmethod
    def prepared(src, query_text, edb=()):
        from repro.engine.compiled import base_database
        from repro.magic.evaluate import PreparedQuery

        program, _ = parse_program(src)
        query = parse_query(query_text)
        return program, PreparedQuery(program, query), base_database(program, edb)

    def test_seed_absent_from_the_edb_answers_empty(self):
        program, prepared, base = self.prepared(ANCESTOR, "? anc(a, X).")
        nobody = parse_query("? anc(nobody, X).")
        assert prepared.seed_for(nobody) == nobody.atom.args[:1]
        assert prepared.answer(nobody, base).answer_atoms() == []
        assert prepared.rows(nobody, base) == ()

    def test_one_entry_serves_every_constant(self):
        program, prepared, base = self.prepared(ANCESTOR, "? anc(a, X).")
        full = evaluate(program)
        for start in "abce":
            query = parse_query(f"? anc({start}, X).")
            result = prepared.answer(query, base)
            assert result.answer_atoms() == full.answer_atoms(query)
            assert format_atom(result.magic_program.seed) == f"m_anc__bf({start})"
        # the preparing query's own seed is untouched by later runs
        assert format_atom(prepared.magic_program.seed) == "m_anc__bf(a)"

    def test_arithmetic_and_set_terms_are_evaluated_into_the_seed(self):
        from repro.parser import parse_atom

        edb = [parse_atom(f"num({i})") for i in range(5)]
        edb.append(parse_atom("tag({1, 2})"))
        program, prepared, base = self.prepared(self.NUMBERS, "? up(0, Y).", edb)
        full = evaluate(program, edb=edb)
        query = parse_query("? up(1 + 1, Y).")
        assert [t.value for t in prepared.seed_for(query)] == [2]
        assert prepared.answer(query, base).answer_atoms() == (
            full.answer_atoms(query)
        )
        assert [r[1].value for r in prepared.rows(query, base)] == [3, 4]
        _, tagged, _ = self.prepared(self.NUMBERS, "? tagged({2, 1}, X).", edb)
        query = parse_query("? tagged({2, 1, 1}, X).")
        assert tagged.seed_for(query) == parse_atom("tag({1, 2})").args
        assert tagged.answer(query, base).answer_atoms() == (
            full.answer_atoms(query)
        )
        assert len(tagged.rows(query, base)) == 2

    def test_unevaluable_constants_are_a_rewrite_error(self):
        program, prepared, base = self.prepared(self.NUMBERS, "? up(0, Y).")
        with pytest.raises(MagicRewriteError):
            prepared.seed_for(parse_query("? up(1 / 0, Y)."))
        with pytest.raises(MagicRewriteError):
            prepared.seed_for(parse_query("? anc(a, Y)."))

    def test_grouped_head_position_is_forced_free(self):
        """Footnote 6: a constant in a grouped position never reaches
        the seed; it only filters the answers."""
        from repro.magic.adornment import effective_adornment

        program, prepared, base = self.prepared(YOUNG, "? young(mary, S).")
        full = evaluate(program)
        bound_set = parse_query("? young(mary, {john}).")
        assert effective_adornment(program, bound_set) == "bf"
        assert prepared.key[1:] == ("young", "bf")
        assert len(prepared.seed_for(bound_set)) == 1
        for query in (bound_set, parse_query("? young(mary, {bob}).")):
            assert prepared.answer(query, base).answer_atoms() == (
                full.answer_atoms(query)
            )
            assert len(prepared.rows(query, base)) == len(full.answer_atoms(query))

    def test_demand_through_a_grouped_position_keeps_one_arity(self):
        """A body occurrence bound at a grouped position is demanded
        under the effective adornment, so every magic rule for it passes
        the arguments its guard expects (seed 4373 of the generator)."""
        program = parse_rules("""
        r(X, Z) <- e(X, Y), r(Y, Z).
        r(X, Z) <- e(X, Z).
        g(X, <Y>) <- r(X, Y).
        top(X, S) <- e(X, Y), g(X, S), top(Y, S).
        top(X, S) <- e(X, X), g(X, S).
        """)
        mp = magic_rewrite(program, parse_query("? top(1, S)."))
        arities = {}
        for rule in mp.all_rules():
            arities.setdefault(rule.head.pred, set()).add(rule.head.arity)
        assert all(len(found) == 1 for found in arities.values()), arities

    def test_program_facts_are_visible_exactly_once(self):
        from repro.parser import parse_atom

        # the program's own parent/2 facts, again as EDB, plus one more
        edb = [parse_atom("parent(a, b)"), parse_atom("parent(d, g)")]
        program, prepared, base = self.prepared(ANCESTOR, "? anc(a, X).", edb)
        assert base.count("parent") == 5
        query = parse_query("? anc(a, X).")
        result = prepared.answer(query, base)
        assert [format_atom(a) for a in result.answer_atoms()] == [
            "anc(a, b)", "anc(a, c)", "anc(a, d)", "anc(a, g)",
        ]
        assert result.database.count("parent") == 5
        assert result.database.get_relation("parent") is base.get_relation("parent")

    def test_session_drops_prepared_entries_when_rules_change(self):
        from repro import LDL
        from repro.engine.compiled import compile_program

        db = LDL(ANCESTOR)
        assert len(db.query("? anc(a, X).", strategy="magic")) == 3
        assert len(db.query("? anc(e, X).", strategy="magic")) == 1
        # one form, two constants
        (old,) = compile_program(db.program)._prepared.values()
        db.load("anc(X, Y) <- parent(Y, X).")
        assert compile_program(db.program)._prepared == {}
        assert db.query("? anc(b, X).", strategy="magic") == db.query("? anc(b, X).")
        (new,) = compile_program(db.program)._prepared.values()
        assert new is not old and new.program is db.program

    def test_in_memory_base_is_rebuilt_per_edb_version(self):
        from repro import LDL

        db = LDL(ANCESTOR)
        db.query("? anc(a, X).", strategy="magic")
        base = db._magic_base
        db.query("? anc(b, X).", strategy="magic")
        assert db._magic_base is base
        db.fact("parent", "d", "g")
        assert db._magic_base is None
        assert len(db.query("? anc(a, X).", strategy="magic")) == 4
        assert db.on_demand_rows("? anc(c, X).") == tuple(
            a.args for a in db.model().answer_atoms(parse_query("? anc(c, X)."))
        )
