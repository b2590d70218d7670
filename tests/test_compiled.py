"""Tests for the compiled program (repro.engine.compiled).

One :class:`CompiledProgram` per loaded program: checked and layered
exactly once, its plans shared by every run and dropped with the intern
table, and one base database behind every evaluator.
"""

import sys

import pytest

from repro import LDL
from repro.engine import evaluate
from repro.engine.compiled import CompiledProgram, base_database, compile_program
from repro.engine.incremental import IncrementalModel
from repro.engine.topdown import evaluate_topdown
from repro.errors import EvaluationError, NotAdmissibleError
from repro.magic import evaluate_magic
from repro.parser import parse_atom, parse_query, parse_rules
from repro.program.dependency import strongly_connected
from repro.program.rule import Atom
from repro.program.stratify import stratify
from repro.program.wellformed import check_program
from repro.semantics.wellfounded import wellfounded
from repro.terms.term import EMPTY_SET, Const, Func, SetVal, clear_intern_table

SOCIAL = """
follows(ann, bob). follows(bob, cat). follows(cat, dan). follows(eve, ann).
influences(X, Y) <- follows(X, Y).
influences(X, Y) <- follows(X, Z), influences(Z, Y).
audience(X, <Y>) <- influences(Y, X).
recommend(X, Y) <- influences(X, Z), follows(Z, Y), ~follows(X, Y), X != Y.
"""


def _count_calls(monkeypatch, fn) -> list:
    """Count every call of ``fn`` made through any ``repro`` module
    that holds it by name."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


class TestCompileProgram:
    def test_memoized_on_the_program_instance(self):
        program = parse_rules(SOCIAL)
        compiled = compile_program(program)
        assert isinstance(compiled, CompiledProgram)
        assert compile_program(program) is compiled
        # an equal but distinct program is another load
        assert compile_program(parse_rules(SOCIAL)) is not compiled

    def test_holds_layering_schedule_and_fingerprint(self):
        program = parse_rules(SOCIAL)
        compiled = compile_program(program)
        assert compiled.layering == stratify(program)
        assert len(compiled.schedule) == len(compiled.layering)
        assert {
            pred for layer in compiled.schedule for c in layer for pred in c.preds
        } == program.idb_predicates()
        assert compiled.fingerprint == compile_program(parse_rules(SOCIAL)).fingerprint

    def test_rejects_inadmissible_programs(self):
        with pytest.raises(NotAdmissibleError):
            compile_program(parse_rules("p(X) <- q(X), ~p(X)."))

    def test_every_run_shares_the_plans(self):
        # naive first: it plans every rule once, and the closure path
        # plans all of them but the closure's recursive rule.
        program = parse_rules(SOCIAL)
        plans = compile_program(program).plans
        evaluate(program, strategy="naive")
        built = len(plans)
        assert built
        evaluate(program)
        IncrementalModel(program)
        assert len(plans) == built

    def test_prepare_memoizes_per_form(self):
        compiled = compile_program(parse_rules(SOCIAL))
        first = compiled.prepare(parse_query("? influences(ann, X)."))
        assert compiled.prepare(parse_query("? influences(eve, Y).")) is first
        assert compiled.prepare(parse_query("? influences(X, ann).")) is not first
        # the grouped position is forced free: one form for both
        grouped = compiled.prepare(parse_query("? audience(dan, S)."))
        assert compiled.prepare(parse_query("? audience(dan, {}).")) is grouped


def test_one_scc_pass_per_compile(monkeypatch):
    """The layering, the admissibility check and the schedule all read
    the one SCC list the compile computes.  (A closure component's
    evaluation runs the same pass over its ID-space step graph, once
    per run: those passes are not counted.)"""
    calls = _count_calls(monkeypatch, strongly_connected)

    def passes():
        return [
            graph for (graph,) in calls
            if all(isinstance(node, str) for node in graph)
        ]

    program = parse_rules(SOCIAL)
    compile_program(program)
    assert len(passes()) == 1
    evaluate(program)
    IncrementalModel(program).add_facts([parse_atom("follows(dan, eve)")])
    assert len(passes()) == 1


def test_durable_session_checks_and_layers_once_per_load(tmp_path, monkeypatch):
    checks = _count_calls(monkeypatch, check_program)
    layerings = _count_calls(monkeypatch, stratify)
    path = tmp_path / "db"
    with LDL(SOCIAL, path=str(path)) as db:
        db.fact("follows", "dan", "eve")
        for query in (
            "? influences(ann, X).",
            "? recommend(bob, X).",
            "? audience(cat, S).",
            "? influences(eve, X).",
        ):
            db.query(query, strategy="magic")
        assert db.explain("influences(ann, dan)") is not None
        assert (len(checks), len(layerings)) == (1, 1)
        db.load("reach(X) <- influences(ann, X).")
        db.query("? reach(X).", strategy="magic")
        db.explain("reach(dan)")
        db.checkpoint()
        assert (len(checks), len(layerings)) == (2, 2)
    with LDL(SOCIAL, path=str(path)) as db:
        assert db.store.stats.restore_mode == "rebuild"  # rules differ
        db.query("? influences(ann, X).", strategy="magic")
        assert (len(checks), len(layerings)) == (3, 3)


#: A module-level program, compiled once and reused across intern
#: table clears; its constants are baked into specialized plans.
REACH_SOURCE = """
reach(X, Y) <- edge(X, Y).
reach(X, Y) <- edge(X, Z), reach(Z, Y).
from_hub(Y) <- reach(hub, Y).
cut(X) <- node(X), ~reach(hub, X).
sizes(X, <Y>) <- reach(X, Y).
"""
REACH = parse_rules(REACH_SOURCE)


def _graph(names, edges):
    atoms = [Atom("node", (Const(n),)) for n in names]
    atoms += [Atom("edge", (Const(a), Const(b))) for a, b in edges]
    return atoms


def test_plans_do_not_outlive_the_intern_table():
    first = evaluate(
        REACH, edb=_graph(["hub", "a", "b"], [("hub", "a"), ("a", "b")])
    )
    assert first.database.count("from_hub") == 2
    clear_intern_table()
    # new constants intern first, so every dense ID — and the ID of the
    # rule constant ``hub`` — differs from the first run's
    names = [f"n{i}" for i in range(8)] + ["hub"]
    edges = [(f"n{i}", f"n{i + 1}") for i in range(7)] + [("hub", "n3")]
    edb = _graph(names, edges)
    again = evaluate(REACH, edb=edb)
    fresh = evaluate(parse_rules(REACH_SOURCE), edb=edb)
    assert again.database == fresh.database
    assert again.database.count("from_hub") == 5


#: Section 2.2: an argument denotes its U-element, so ``p(1 + 1)`` is
#: ``p(2)`` — for every evaluator, whichever ran first in the process.
NEGATION = "r(X) <- p(X), ~s(X)."
NONCANONICAL_EDBS = [
    (
        [
            Atom("p", (Func("+", (Const(1), Const(1))),)),
            Atom("p", (Func("+", (Const(1), Const(2))),)),
            Atom("s", (Const(2),)),
        ],
        {"r(3)"},
    ),
    (
        [
            Atom("p", (Func("scons", (Const(1), EMPTY_SET)),)),
            Atom("p", (Func("scons", (Const(2), EMPTY_SET)),)),
            Atom("s", (SetVal([Const(1)]),)),
        ],
        {"r({2})"},
    ),
]


@pytest.mark.parametrize("edb, expected", NONCANONICAL_EDBS)
def test_every_evaluator_canonicalizes_the_edb(edb, expected):
    from repro.terms.pretty import format_atom

    program = parse_rules(NEGATION)
    query = parse_query("? r(X).")

    def shown(atoms):
        return {format_atom(a) for a in atoms if a.pred == "r"}

    # the top-down and well-founded evaluators first: they once stored
    # these atoms as spelled, which also poisoned the shared term
    # objects for every evaluator after them
    assert shown(evaluate_topdown(program, query, edb)[0]) == expected
    assert shown(wellfounded(program, edb).true) == expected
    assert shown(evaluate_magic(program, query, edb).answer_atoms()) == expected
    assert shown(IncrementalModel(program, edb).as_set()) == expected
    assert shown(evaluate(program, edb).answer_atoms(query)) == expected


def test_base_database_canonicalizes_and_adds_program_facts():
    program = parse_rules("q(1 + 1). r(X) <- q(X).")
    db = base_database(program, [parse_atom("p(2 + 3)")])
    assert db.as_set() == {parse_atom("q(2)"), parse_atom("p(5)")}
    with pytest.raises(EvaluationError, match="does not denote a U-fact"):
        base_database(parse_rules("q(a + 1)."))
