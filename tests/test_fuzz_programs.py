"""Differential fuzzing over randomly generated admissible programs.

Every generated program must pass the static checks, and every
evaluation strategy must agree on its model / query answers.
"""

import pytest

from repro.engine import evaluate
from repro.engine.incremental import IncrementalModel
from repro.engine.topdown import evaluate_topdown
from repro.magic import evaluate_magic, supplementary_rewrite
from repro.program.dependency import is_admissible
from repro.program.rule import Atom, Query
from repro.program.stratify import linear_layerings, validate_layering
from repro.program.wellformed import check_program
from repro.terms.term import Const, Var
from repro.workloads.generator import GeneratorConfig, random_program

from tests.helpers import assert_sizes_do_not_change_facts

SEEDS = list(range(20))


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_programs_are_admissible_and_safe(seed):
    generated = random_program(seed)
    check_program(generated.program)
    assert is_admissible(generated.program)


@pytest.mark.parametrize("seed", SEEDS)
def test_naive_equals_seminaive(seed):
    generated = random_program(seed)
    naive = evaluate(generated.program, edb=generated.edb, strategy="naive")
    semi = evaluate(generated.program, edb=generated.edb, strategy="seminaive")
    assert naive.database == semi.database


@pytest.mark.parametrize("seed", SEEDS)
def test_sized_planner_equals_static(seed):
    """Size-ordered and syntactically ordered plans derive the same
    facts, rule by rule (the seeded twin of test_prop_plans')."""
    generated = random_program(seed)
    model = evaluate(generated.program, edb=generated.edb)
    assert_sizes_do_not_change_facts(generated.program, model.database)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_alternative_layerings_agree(seed):
    generated = random_program(seed)
    reference = evaluate(generated.program, edb=generated.edb)
    for layering in linear_layerings(generated.program, limit=3):
        assert validate_layering(generated.program, layering)
        result = evaluate(generated.program, edb=generated.edb, layering=layering)
        assert result.database == reference.database


def _queries_for(generated):
    """Bound and free queries over every derived predicate."""
    program = generated.program
    full = evaluate(program, edb=generated.edb)
    queries = []
    for pred in sorted(program.idb_predicates()):
        rule = program.rules_for(pred)[0]
        if rule.is_grouping():
            args = (Const(0), Var("S"))
        else:
            args = (Const(0), Var("Y"))
        queries.append(Query(Atom(pred, args)))
    return full, queries


@pytest.mark.parametrize("seed", SEEDS[:12])
def test_magic_and_topdown_agree_with_bottom_up(seed):
    generated = random_program(seed)
    full, queries = _queries_for(generated)
    for query in queries:
        expected = full.answer_atoms(query)
        magic = evaluate_magic(generated.program, query, edb=generated.edb)
        assert magic.answer_atoms() == expected, query
        sup = evaluate_magic(
            generated.program,
            query,
            edb=generated.edb,
            rewrite=supplementary_rewrite,
        )
        assert sup.answer_atoms() == expected, query
        topdown, _ = evaluate_topdown(generated.program, query, edb=generated.edb)
        assert topdown == expected, query


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_incremental_updates_agree_with_scratch(seed):
    generated = random_program(seed)
    edb = list(dict.fromkeys(generated.edb))  # random draws may repeat
    half = len(edb) // 2
    model = IncrementalModel(generated.program, edb[:half])
    model.add_facts(edb[half:])
    scratch = evaluate(generated.program, edb=edb)
    assert model.as_set() == scratch.database.as_set()
    model.remove_facts(edb[:3])
    scratch2 = evaluate(generated.program, edb=edb[3:])
    assert model.as_set() == scratch2.database.as_set()


def test_generator_is_deterministic():
    a = random_program(7)
    b = random_program(7)
    assert a.program == b.program
    assert a.edb == b.edb


def test_generator_respects_config():
    cfg = GeneratorConfig(strata=1, grouping_probability=0.0)
    generated = random_program(3, cfg)
    assert not any(r.is_grouping() for r in generated.program)
    assert all(lit.positive for r in generated.program for lit in r.body)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_negation_elimination_on_generated_programs(seed):
    from repro.errors import NotAdmissibleError
    from repro.transform import eliminate_negation

    generated = random_program(seed)
    if all(lit.positive for r in generated.program for lit in r.body):
        pytest.skip("no negation generated for this seed")
    try:
        positive = eliminate_negation(generated.program)
    except NotAdmissibleError:
        pytest.skip("negation bound only by same-layer context")
    assert positive.is_positive()
    assert is_admissible(positive)
    original = evaluate(generated.program, edb=generated.edb)
    transformed = evaluate(positive, edb=generated.edb)
    for pred in generated.program.predicates():
        assert set(original.database.atoms(pred)) == set(
            transformed.database.atoms(pred)
        ), pred


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_every_model_fact_is_explainable(seed):
    from repro.engine.explain import explain

    generated = random_program(seed)
    edb = list(dict.fromkeys(generated.edb))
    result = evaluate(generated.program, edb=edb)
    for fact in result.database.sorted_atoms():
        derivation = explain(generated.program, result.database, fact)
        assert derivation is not None, fact
