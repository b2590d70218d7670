"""Tests for the high-level session API (repro.api)."""

import pytest
from hypothesis import given

from repro import LDL, from_term, to_term
from repro.engine.incremental import IncrementalModel
from repro.errors import EvaluationError, WellFormednessError
from repro.program.rule import Atom
from repro.terms.pretty import format_atom
from repro.terms.term import Const, Func, mkset

from tests.strategies import python_values


class TestValueConversion:
    def test_scalars(self):
        assert to_term(3) == Const(3)
        assert to_term("a") == Const("a")
        assert to_term(2.5) == Const(2.5)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_term(True)

    def test_sets(self):
        assert to_term({1, 2}) == mkset([Const(1), Const(2)])
        assert to_term(frozenset({"a"})) == mkset([Const("a")])

    def test_nested_sets(self):
        assert to_term(frozenset({frozenset({1})})) == mkset(
            [mkset([Const(1)])]
        )

    def test_tuples(self):
        assert to_term((1, "a")) == Func("tuple", (Const(1), Const("a")))

    def test_one_tuple_stays_tuple(self):
        # regression: 1-tuples used to collapse to their bare element,
        # breaking the from_term round trip.
        assert to_term(("a",)) == Func("tuple", (Const("a"),))
        assert to_term(("a",)) != to_term("a")
        assert from_term(to_term(("a",))) == ("a",)

    def test_empty_tuple_rejected(self):
        with pytest.raises(TypeError):
            to_term(())

    def test_terms_pass_through(self):
        term = Const("x")
        assert to_term(term) is term

    def test_roundtrip(self):
        values = [3, "sym", 2.5, frozenset({1, 2}), (1, 2), frozenset()]
        for value in values:
            assert from_term(to_term(value)) == value

    def test_from_term_compound_stays_term(self):
        term = Func("f", (Const(1),))
        assert from_term(term) == term

    @given(python_values)
    def test_roundtrip_property(self, value):
        term = to_term(value)
        assert term.is_ground()
        assert from_term(term) == value


class TestSession:
    def test_quickstart_flow(self):
        db = LDL(
            """
            ancestor(X, Y) <- parent(X, Y).
            ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
            """
        )
        db.facts("parent", [("ann", "bob"), ("bob", "carl")])
        answers = db.query("? ancestor(ann, X).")
        assert answers == [{"X": "bob"}, {"X": "carl"}]

    def test_strategies_agree(self):
        db = LDL(
            """
            anc(X, Y) <- parent(X, Y).
            anc(X, Y) <- parent(X, Z), anc(Z, Y).
            """
        )
        db.facts("parent", [(i, i + 1) for i in range(10)])
        q = "? anc(0, X)."
        naive = db.query(q, strategy="naive")
        semi = db.query(q, strategy="seminaive")
        magic = db.query(q, strategy="magic")
        assert naive == semi == magic

    def test_fact_single(self):
        db = LDL("q(X) <- p(X).")
        db.fact("p", 1)
        assert db.extension("q") == [(1,)]

    def test_set_valued_facts(self):
        db = LDL("big(K) <- s(K, S), card(S, N), N >= 2.")
        db.fact("s", "a", {1, 2})
        db.fact("s", "b", {3})
        assert db.extension("big") == [("a",)]

    def test_extension_returns_python_values(self):
        db = LDL("g(K, <V>) <- e(K, V).")
        db.facts("e", [("k", 1), ("k", 2)])
        assert db.extension("g") == [("k", frozenset({1, 2}))]

    def test_incremental_loading_invalidates_cache(self):
        db = LDL("q(X) <- p(X).")
        db.fact("p", 1)
        assert db.query("? q(X).") == [{"X": 1}]
        db.fact("p", 2)
        assert db.query("? q(X).") == [{"X": 1}, {"X": 2}]

    def test_model_caching(self):
        db = LDL("q(X) <- p(X).").fact("p", 1)
        first = db.model()
        assert db.model() is first

    def test_magic_via_model_rejected(self):
        db = LDL("q(X) <- p(X).").fact("p", 1)
        with pytest.raises(EvaluationError):
            db.model(strategy="magic")

    def test_pending_queries(self):
        db = LDL("p(1). p(2). q(X) <- p(X). ? q(X).")
        [(query, answers)] = db.run_pending_queries()
        assert answers == [{"X": 1}, {"X": 2}]

    def test_ldl15_session(self):
        db = LDL("out(T, <S>, <D>) <- r(T, S, D).", ldl15=True)
        db.facts("r", [("t", "s1", "mon"), ("t", "s2", "tue")])
        assert db.extension("out") == [
            ("t", frozenset({"s1", "s2"}), frozenset({"mon", "tue"}))
        ]

    def test_alternative_semantics_flag(self):
        rows = [("t1", "s1", "mon"), ("t2", "s1", "tue")]
        default = LDL("out(T, <h(S, <D>)>) <- r(T, S, D).", ldl15=True)
        default.facts("r", rows)
        alt = LDL(
            "out(T, <h(S, <D>)>) <- r(T, S, D).",
            ldl15=True,
            alternative_semantics=True,
        )
        alt.facts("r", rows)
        assert default.extension("out") != alt.extension("out")

    def test_query_magic_result_object(self):
        db = LDL(
            """
            anc(X, Y) <- parent(X, Y).
            anc(X, Y) <- parent(X, Z), anc(Z, Y).
            """
        )
        db.facts("parent", [("a", "b"), ("b", "c")])
        result = db.query_magic("? anc(a, X).")
        assert result.stats.phases >= 1
        assert len(result.answer_atoms()) == 2

    def test_repr(self):
        db = LDL("q(X) <- p(X).").fact("p", 1)
        assert "1 rules" in repr(db)

    def test_spellings_survive_decode_on_read_and_reopen(self, tmp_path):
        # relations store ID rows, which decode to class representatives:
        # a quoted fact and a head's quoted constant keep their spelling,
        # a variable binds the plain one — in memory, durably, and after
        # a checkpoint and reopen.
        src = "p('a'). p(b). q(X) <- p(X). r('a', X) <- p(X)."
        expected = [
            "p('a')", "p(b)", "q(a)", "q(b)", "r('a', a)", "r('a', b)",
        ]

        def printed(session):
            return sorted(format_atom(a) for a in session.database().atoms())

        assert printed(LDL(src)) == expected
        path = str(tmp_path / "db")
        with LDL(src, path=path) as durable:
            assert printed(durable) == expected
            durable.checkpoint()
        with LDL(src, path=path) as reopened:
            assert printed(reopened) == expected

        # a program fact and an EDB fact that differ only in spelling:
        # the program's spelling wins in every kind of session, in
        # either order of spellings.
        for program_spelling, edb_const in (
            ("'a'", Const("a")), ("a", Const("a", quoted=True)),
        ):
            src = f"p({program_spelling}). q(X) <- p(X)."
            edb = [Atom("p", (edb_const,))]
            expected = [f"p({program_spelling})", "q(a)"]
            assert printed(LDL(src).add_atoms(edb)) == expected
            model = IncrementalModel(LDL(src).program, edb)
            assert sorted(format_atom(a) for a in model.database.atoms()) == (
                expected
            )
            path = str(tmp_path / f"db-{program_spelling}")
            with LDL(src, path=path) as durable:
                durable.add_atoms(edb)
                assert printed(durable) == expected
                durable.checkpoint()
            with LDL(src, path=path) as reopened:
                assert printed(reopened) == expected

    def test_fact_arity_must_match_the_rules(self, tmp_path):
        """A fact of a predicate the rules use with another arity raises
        before any fact of its batch is added or WAL-logged; a
        predicate the rules do not use takes any arity."""
        src = "q(X) <- p(X, Y)."
        bad = [Atom("p", (Const(1), Const(2))), Atom("p", (Const(3),))]
        mem = LDL(src)
        with pytest.raises(WellFormednessError, match="arity 2"):
            mem.fact("p", 1)
        with pytest.raises(WellFormednessError):
            mem.add_atoms(bad)
        assert mem.edb_size == 0 and mem.query("? q(X).") == []
        mem.fact("p", 1, 2).fact("r", 1)
        assert mem.query("? q(X).") == [{"X": 1}]
        # two predicates of two arities, each given the other's
        two = LDL("q(X) <- p(X, Y), u(X).")
        with pytest.raises(WellFormednessError, match="but . has arity"):
            two.add_atoms([Atom("p", (Const(1),)), Atom("u", (Const(1), Const(2)))])
        path = str(tmp_path / "db")
        with LDL(src, path=path) as durable:
            with pytest.raises(WellFormednessError):
                durable.add_atoms(bad)
            assert durable.edb_size == 0
        with LDL(src, path=path) as reopened:
            assert reopened.edb_size == 0 and reopened.query("? q(X).") == []

    def test_facts_given_before_the_rules_are_checked_at_load(self, tmp_path):
        """A fact already given when rules arrive that use its
        predicate with another arity fails the load, in memory and in
        a durable store, and the session keeps the rules it had."""
        mem = LDL().fact("p", 1)
        with pytest.raises(WellFormednessError, match="arity 2"):
            mem.load("q(X) <- p(X, Y).")
        assert len(mem.program) == 0 and mem.query("? p(X).") == [{"X": 1}]
        assert mem.load("q(X) <- p(X).").query("? q(X).") == [{"X": 1}]
        path = str(tmp_path / "db")
        with LDL(path=path) as durable:
            durable.fact("p", 1)
            with pytest.raises(WellFormednessError, match="arity 2"):
                durable.load("q(X) <- p(X, Y).")
            assert len(durable.program) == 0 and durable.edb_size == 1
        with pytest.raises(WellFormednessError, match="arity 2"):
            LDL("q(X) <- p(X, Y).", path=path)
        with LDL("q(X) <- p(X).", path=path) as reopened:
            assert reopened.query("? q(X).") == [{"X": 1}]

    def test_noncanonical_atoms_canonicalized_everywhere(self, tmp_path):
        # regression: evaluate() used to store EDB atoms verbatim while
        # the durable path normalized through evaluate_ground, so the
        # same session computed different models in-memory vs durable.
        atom = Atom("p", (Func("+", (Const(1), Const(2))),))
        mem = LDL("q(X) <- p(X).")
        mem.add_atoms([atom])
        assert mem.extension("q") == [(3,)]
        assert mem.query("? q(3).", strategy="magic") == [{}]
        with LDL("q(X) <- p(X).", path=str(tmp_path / "db")) as dur:
            dur.add_atoms([atom])
            assert dur.extension("q") == mem.extension("q")
