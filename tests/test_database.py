"""The bulk base-fact loader: ``Database(facts)`` and ``base_database``.

Both load in ID space, one row batch per predicate, and must store
exactly what one :meth:`Database.add` per fact stores — the same ID
rows in the same order, the same printed facts and the same recorded
spellings, with the first spelling of a fact winning — and raise the
same errors.  Every load an evaluation or an in-memory session's
on-demand query base makes is one ``edb_load`` event.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LDL
from repro.engine import evaluate
from repro.engine.compiled import base_database, program_facts
from repro.engine.database import Database
from repro.errors import EvaluationError, NotInUniverseError
from repro.observe import MetricsCollector, TraceRecorder
from repro.parser import parse_program
from repro.program.rule import Atom
from repro.terms.pretty import format_atom
from repro.terms.term import Const, Func, SetVal, Var

from tests.strategies import quoted_ground_terms


def respelled(term):
    """``term`` with the quoting of every string constant flipped: an
    equal term that prints differently."""
    if isinstance(term, Const):
        if isinstance(term.value, str):
            return Const(term.value, quoted=not term.quoted)
        return term
    if isinstance(term, Func):
        return Func(term.functor, [respelled(arg) for arg in term.args])
    if isinstance(term, SetVal):
        return SetVal([respelled(e) for e in term.elements])
    return term


ONE_PLUS_ONE = Func("+", (Const(1), Const(1)))

#: Arguments: arbitrary (possibly quoted) ground terms plus the pairs
#: that are equal only after evaluation (``1 + 1`` and ``2``) or that
#: differ by type alone (``1`` and ``1.0``).
loader_args = quoted_ground_terms | st.sampled_from(
    [ONE_PLUS_ONE, Const(2), Const(1), Const(1.0), SetVal([ONE_PLUS_ONE])]
)


@st.composite
def fact_lists(draw):
    """Facts of ``p/1`` and ``q/2``; some appear twice, once as drawn
    and once respelled, in either order."""
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if draw(st.booleans()):
            atom = Atom("p", (draw(loader_args),))
        else:
            atom = Atom("q", (draw(loader_args), draw(loader_args)))
        facts.append(atom)
        if draw(st.booleans()):
            twin = Atom(atom.pred, tuple(respelled(a) for a in atom.args))
            facts.insert(draw(st.integers(0, len(facts))), twin)
    return facts


def per_fact(facts) -> Database:
    db = Database()
    for atom in facts:
        db.add(atom)
    return db


def stored(db: Database):
    """Everything a load decides: per predicate, the ID rows in order,
    the facts as printed in that order, and the recorded spellings."""
    out = {}
    for pred in db.predicates():
        rel = db.get_relation(pred)
        out[pred] = (
            list(rel.id_rows()),
            [format_atom(Atom(pred, args)) for args in rel],
            dict(rel._spellings),
        )
    return out


PROGRAM = parse_program("p('a'). p(f(b, 'c')). q(1, 'x'). r(X) <- p(X).").program


@given(fact_lists())
@settings(max_examples=150, deadline=None)
def test_loader_equals_per_fact_adds(facts):
    assert stored(Database(facts)) == stored(per_fact(facts))
    reference = per_fact(list(program_facts(PROGRAM)) + facts)
    assert stored(base_database(PROGRAM, facts)) == stored(reference)


class TestFirstSpellingWins:
    def test_plain_then_quoted_prints_plain(self):
        plain, quoted = Atom("p", (Const("a"),)), Atom("p", (Const("a", True),))
        assert [format_atom(a) for a in Database([plain, quoted]).atoms()] == [
            "p(a)"
        ]
        assert [format_atom(a) for a in Database([quoted, plain]).atoms()] == [
            "p('a')"
        ]

    def test_program_facts_come_before_the_edb(self):
        program = parse_program("p('a'). p(b).").program
        edb = [Atom("p", (Const("a"),)), Atom("p", (Const("b", True),))]
        printed = sorted(format_atom(a) for a in base_database(program, edb).atoms())
        assert printed == ["p('a')", "p(b)"]


EMPTY = parse_program("").program
X = Var("X")
A, B = Const("a"), Const("b")


class TestErrorsPerEntryPoint:
    """What one ``add`` per fact raised, each entry point still raises."""

    def test_arity_mismatch_is_a_value_error(self):
        facts = [Atom("p", (A,)), Atom("p", (A, B))]
        for load in (Database, per_fact, lambda f: base_database(EMPTY, f)):
            with pytest.raises(ValueError, match="arity 1 but got 2"):
                load(facts)
        program = parse_program("p(a).").program
        with pytest.raises(ValueError, match="arity 1 but got 2"):
            base_database(program, facts[1:])

    def test_non_ground_fact(self):
        facts = [Atom("p", (A,)), Atom("p", (Func("f", (X,)),))]
        with pytest.raises(EvaluationError):
            base_database(EMPTY, facts)
        for load in (Database, per_fact):
            with pytest.raises(ValueError, match="cannot store non-ground atom"):
                load(facts)

    def test_outside_the_universe(self):
        facts = [Atom("p", (Func("scons", (A, B)),))]
        for load in (Database, per_fact, lambda f: base_database(EMPTY, f)):
            with pytest.raises(NotInUniverseError):
                load(facts)


class TestEdbLoadEvent:
    SRC = "p(1). q(X) <- p(X)."
    EDB = [Atom("p", (Const(2),)), Atom("p", (Const(2),)), Atom("p", (Const(3),))]

    def loads(self, recorder):
        return [e.payload for e in recorder.events if e.kind == "edb_load"]

    def test_once_per_evaluate(self):
        recorder = TraceRecorder()
        evaluate(parse_program(self.SRC).program, self.EDB, hooks=recorder)
        (load,) = self.loads(recorder)
        assert load["facts"] == 3 and load["seconds"] >= 0

    def test_once_per_on_demand_base(self):
        recorder = TraceRecorder()
        session = LDL(self.SRC, hooks=recorder).add_atoms(self.EDB)
        session.query("? q(2).", strategy="magic")
        session.query("? q(3).", strategy="magic")
        assert [load["facts"] for load in self.loads(recorder)] == [3]
        session.fact("p", 4)
        session.query("? q(4).", strategy="magic")
        assert [load["facts"] for load in self.loads(recorder)] == [3, 4]

    def test_metrics_file_it_under_load(self):
        metrics = MetricsCollector()
        LDL(self.SRC, metrics=metrics).add_atoms(self.EDB).model()
        assert metrics.phases["load"] >= 0
        assert {"load", "plan", "match"} <= set(metrics.phases)
