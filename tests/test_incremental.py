"""Tests for incremental model maintenance (repro.engine.incremental)."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.engine.incremental import IncrementalModel
from repro.engine.database import Database
from repro.errors import EvaluationError, WellFormednessError
from repro.parser import parse_atom, parse_rules
from repro.terms.pretty import format_atom

ANCESTOR = parse_rules(
    """
    anc(X, Y) <- parent(X, Y).
    anc(X, Y) <- parent(X, Z), anc(Z, Y).
    """
)

STRATIFIED = parse_rules(
    """
    anc(X, Y) <- parent(X, Y).
    anc(X, Y) <- parent(X, Z), anc(Z, Y).
    person(X) <- parent(X, _).
    person(Y) <- parent(_, Y).
    has_kid(X) <- parent(X, _).
    childless(X) <- person(X), ~has_kid(X).
    kids(P, <C>) <- parent(P, C).
    """
)


def fresh_model_equals(model: IncrementalModel) -> bool:
    scratch = evaluate(model.program, edb=model._edb_facts)
    return scratch.database.as_set() == model.as_set()


def atoms(*sources):
    return [parse_atom(s) for s in sources]


class TestInsertions:
    def test_initial_build(self):
        model = IncrementalModel(ANCESTOR, atoms("parent(a, b)"))
        assert parse_atom("anc(a, b)") in model.database

    def test_insert_is_maintained_differentially(self):
        model = IncrementalModel(
            ANCESTOR, atoms("parent(a, b)"), maintain="delta"
        )
        stats = model.add_facts(atoms("parent(b, c)"))
        assert stats.mode == "maintain"
        assert parse_atom("anc(a, c)") in model.database
        assert fresh_model_equals(model)

    def test_monotone_insert_recomputes_under_recompute_mode(self):
        """The oracle has one path: a monotone insert rebuilds its cone
        like any other update."""
        model = IncrementalModel(
            ANCESTOR, atoms("parent(a, b)"), maintain="recompute"
        )
        stats = model.add_facts(atoms("parent(b, c)"))
        assert stats.mode == "recompute"
        assert parse_atom("anc(a, c)") in model.database
        assert fresh_model_equals(model)
        assert model.maintenance.recompute_updates == 1

    def test_insert_through_negation(self):
        model = IncrementalModel(
            STRATIFIED, atoms("parent(a, b)"), maintain="delta"
        )
        assert parse_atom("childless(b)") in model.database
        stats = model.add_facts(atoms("parent(b, c)"))
        assert stats.mode == "maintain"
        assert parse_atom("childless(b)") not in model.database
        assert fresh_model_equals(model)

    def test_insert_through_negation_recomputes_under_recompute_mode(self):
        model = IncrementalModel(
            STRATIFIED, atoms("parent(a, b)"), maintain="recompute"
        )
        assert parse_atom("childless(b)") in model.database
        stats = model.add_facts(atoms("parent(b, c)"))
        assert stats.mode == "recompute"
        assert parse_atom("childless(b)") not in model.database
        assert fresh_model_equals(model)

    def test_insert_updates_groups(self):
        model = IncrementalModel(STRATIFIED, atoms("parent(a, b)"))
        model.add_facts(atoms("parent(a, c)"))
        kids = {
            format_atom(a) for a in model.database.atoms("kids")
        }
        assert kids == {"kids(a, {b, c})"}
        assert fresh_model_equals(model)

    def test_duplicate_insert_is_noop(self):
        model = IncrementalModel(ANCESTOR, atoms("parent(a, b)"))
        stats = model.add_facts(atoms("parent(a, b)"))
        assert stats.mode == "none"

    def test_insert_into_idb_rejected(self):
        model = IncrementalModel(ANCESTOR, atoms("parent(a, b)"))
        with pytest.raises(EvaluationError):
            model.add_facts(atoms("anc(x, y)"))

    @pytest.mark.parametrize("mode", ["delta", "recompute"])
    def test_fact_arity_must_match_the_rules(self, mode):
        """A base fact of a predicate the rules use with another arity
        raises when the model is built, built or restored, and in
        ``add_facts`` before any fact of its batch is added; a predicate
        the rules do not use takes any arity."""
        program = parse_rules("q(X) <- p(X, Y).")
        with pytest.raises(WellFormednessError, match="arity 2"):
            IncrementalModel(program, atoms("p(1)"), maintain=mode)
        with pytest.raises(WellFormednessError, match="arity 2"):
            IncrementalModel(
                program, atoms("p(1)"), materialized=Database(atoms("p(1)")),
                maintain=mode,
            )
        model = IncrementalModel(program, maintain=mode)
        with pytest.raises(WellFormednessError, match="arity 2"):
            model.add_facts(atoms("p(1, 2)", "p(3)"))
        assert model.edb_size == 0 and model.version == 0
        assert model.as_set() == frozenset()
        model.add_facts(atoms("p(1, 2)", "r(5)"))
        assert parse_atom("q(1)") in model.database
        assert fresh_model_equals(model)


class TestDeletions:
    def test_delete_retracts_derivations(self):
        model = IncrementalModel(
            ANCESTOR, atoms("parent(a, b)", "parent(b, c)"),
            maintain="delta",
        )
        assert parse_atom("anc(a, c)") in model.database
        stats = model.remove_facts(atoms("parent(b, c)"))
        assert stats.mode == "maintain"
        assert stats.overdeleted >= 1
        assert parse_atom("anc(a, c)") not in model.database
        assert parse_atom("anc(a, b)") in model.database
        assert fresh_model_equals(model)

    def test_delete_recomputes_under_recompute_mode(self):
        model = IncrementalModel(
            ANCESTOR, atoms("parent(a, b)", "parent(b, c)"),
            maintain="recompute",
        )
        stats = model.remove_facts(atoms("parent(b, c)"))
        assert stats.mode == "recompute"
        assert parse_atom("anc(a, c)") not in model.database
        assert fresh_model_equals(model)

    def test_delete_keeps_alternative_derivations(self):
        model = IncrementalModel(
            ANCESTOR,
            atoms("parent(a, b)", "parent(b, c)", "parent(a, c)"),
        )
        model.remove_facts(atoms("parent(b, c)"))
        assert parse_atom("anc(a, c)") in model.database  # direct edge

    def test_delete_flips_negation(self):
        model = IncrementalModel(
            STRATIFIED, atoms("parent(a, b)", "parent(b, c)")
        )
        assert parse_atom("childless(b)") not in model.database
        model.remove_facts(atoms("parent(b, c)"))
        assert parse_atom("childless(b)") in model.database
        assert fresh_model_equals(model)

    def test_delete_unknown_fact_noop(self):
        model = IncrementalModel(ANCESTOR, atoms("parent(a, b)"))
        assert model.remove_facts(atoms("parent(z, z)")).mode == "none"


class TestConeLocality:
    TWO_ISLANDS = parse_rules(
        """
        anc(X, Y) <- parent(X, Y).
        anc(X, Y) <- parent(X, Z), anc(Z, Y).
        owner(X, Y) <- owns(X, Y).
        owner(X, Y) <- owns(X, Z), owner(Z, Y).
        """
    )

    def test_untouched_island_not_recomputed(self):
        model = IncrementalModel(
            self.TWO_ISLANDS,
            atoms("parent(a, b)", "owns(o1, o2)", "owns(o2, o3)"),
        )
        stats = model.add_facts(atoms("parent(b, c)"))
        # the owns/owner island is outside the cone
        assert stats.affected_predicates == 2  # parent, anc
        assert fresh_model_equals(model)

    def test_program_facts_preserved_across_updates(self):
        program = parse_rules(
            "parent(seed, root). anc(X, Y) <- parent(X, Y)."
        )
        model = IncrementalModel(program)
        assert parse_atom("anc(seed, root)") in model.database
        model.add_facts(atoms("parent(a, b)"))
        assert parse_atom("anc(seed, root)") in model.database


class TestDerivedProgramFacts:
    """A program fact of a derived predicate holds unconditionally."""

    SOURCE = """
    anc(z, z).
    anc(X, Y) <- parent(X, Y).
    anc(X, Y) <- parent(X, Z), anc(Z, Y).
    named(z).
    named(X) <- parent(X, _).
    """
    PROGRAM = parse_rules(SOURCE)
    CHAIN = [f"parent(n{i}, n{i + 1})" for i in range(12)] + ["parent(n12, z)"]
    #: each step adds or removes base facts whose cone contains ``anc``
    #: (recursive: DRed below and above the cost gate) and ``named``
    #: (non-recursive: support counting), and could condemn the facts.
    SCRIPT = [
        ("add", ["parent(z, y)", "parent(y, z)"]),
        ("remove", ["parent(y, z)"]),
        ("add", CHAIN),
        ("remove", ["parent(n0, n1)"]),
        ("remove", ["parent(z, y)"]),
    ]

    @pytest.mark.parametrize("mode", ["delta", "recompute"])
    def test_model_equals_evaluate_through_updates(self, mode):
        model = IncrementalModel(self.PROGRAM, maintain=mode)
        assert fresh_model_equals(model)
        edb: set = set()
        for op, sources in self.SCRIPT:
            facts = atoms(*sources)
            if op == "add":
                model.add_facts(facts)
                edb.update(facts)
            else:
                model.remove_facts(facts)
                edb.difference_update(facts)
            assert model.as_set() == evaluate(self.PROGRAM, edb=edb).database.as_set()
            assert parse_atom("anc(z, z)") in model.database
            assert parse_atom("named(z)") in model.database

    def test_durable_session_equals_in_memory(self, tmp_path):
        from repro.api import LDL

        with LDL(self.SOURCE, path=str(tmp_path / "db")) as dur:
            mem = LDL(self.SOURCE)
            for session in (mem, dur):
                assert session.query("? anc(z, Y).") == [{"Y": "z"}]
                session.facts("parent", [("y", "z"), ("x", "y")])
                session.remove("parent", "y", "z")
            for pred in ("anc", "named"):
                assert dur.extension(pred) == mem.extension(pred)
            assert dur.query("? anc(z, Y).") == mem.query("? anc(z, Y).")


edge_lists = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    min_size=1,
    max_size=10,
    unique=True,
)


@given(edge_lists, edge_lists)
@settings(max_examples=25, deadline=None)
def test_property_updates_match_scratch_evaluation(initial, updates):
    initial_atoms = [parse_atom(f"parent({a}, {b})") for a, b in initial]
    model = IncrementalModel(STRATIFIED, initial_atoms)
    assert fresh_model_equals(model)
    update_atoms = [parse_atom(f"parent({a}, {b})") for a, b in updates]
    model.add_facts(update_atoms)
    assert fresh_model_equals(model)
    model.remove_facts(update_atoms[: len(update_atoms) // 2])
    assert fresh_model_equals(model)
    model.remove_facts(initial_atoms)
    assert fresh_model_equals(model)
