"""Tests for the executor package (repro.engine.exec).

Covers the default compiled lane against the reference executor on
fixed bodies (joins, anti-join negation, override-source joins,
builtins, metrics), the fallback to the reference for plans the
compiled lane declines, the executor selection machinery, fixed-program
differentials, that the default executor reaches the reference on no
engine path, and a Hypothesis property holding the one compiled shape
(variable rows and head rows) to the reference on every rule of random
programs.
"""

import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LDL
from repro.engine import evaluate
from repro.engine.binding import EMPTY_BINDING
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import (
    EXECUTORS,
    RowBatch,
    default_executor,
    derive_facts,
    derive_rows,
    enumerate_bindings,
    run_plan_tuple,
    set_default_executor,
)
from repro.engine.exec import specialize
from repro.engine.exec.specialize import FALLBACK, head_template, specialized_plan
from repro.engine.grouping import apply_grouping_rule
from repro.engine.maintain.maintainer import DeltaMaintainer
from repro.engine.match import match_atom
from repro.engine.plan import VAR, compile_rule
from repro.engine.relation import decode_row, encode_args
from repro.names import is_builtin_predicate
from repro.observe import MetricsCollector
from repro.parser import parse_atom, parse_program, parse_rule
from repro.program.rule import Atom
from repro.semantics.wellfounded import wellfounded
from repro.terms.pretty import format_atom, format_term
from repro.terms.term import Const

from tests.helpers import facts_of, run
from tests.strategies import generated_programs, ground_sets, quoted_ground_terms


def db_of(*atom_srcs):
    return Database(parse_atom(src) for src in atom_srcs)


def _normalized(bindings):
    return sorted(
        (sorted(b.materialize().items()) for b in bindings),
        key=repr,
    )


def compiled(db, plan, **kwargs):
    """The default lane, pinned so a ``REPRO_EXECUTOR=tuple`` run still
    exercises it."""
    return enumerate_bindings(db, plan, executor="batch", **kwargs)


def bindings_of(db, rule, **kwargs):
    fast = _normalized(compiled(db, compile_rule(rule), **kwargs))
    tup = _normalized(run_plan_tuple(db, compile_rule(rule), **kwargs))
    assert fast == tup
    return fast


class TestBatchJoin:
    def test_two_way_join(self):
        db = db_of("e(1, 2)", "e(2, 3)", "e(1, 3)")
        rule = parse_rule("p(X, Z) <- e(X, Y), e(Y, Z).")
        rows = bindings_of(db, rule)
        assert rows == [
            [("X", Const(1)), ("Y", Const(2)), ("Z", Const(3))]
        ]

    def test_empty_batch_short_circuits(self):
        db = db_of("q(1)")
        rule = parse_rule("p(X) <- r(X), q(X).")
        assert bindings_of(db, rule) == []

    def test_fully_bound_membership_filter(self):
        db = db_of("e(1, 2)", "q(1)", "q(2)")
        rule = parse_rule("p(X, Y) <- e(X, Y), q(X), q(Y).")
        assert len(bindings_of(db, rule)) == 1

    def test_repeated_variable_residual(self):
        db = db_of("e(1, 1)", "e(1, 2)", "e(2, 2)")
        rule = parse_rule("p(X) <- e(X, X).")
        assert len(bindings_of(db, rule)) == 2

    def test_duplicate_multiplicity_matches_tuple(self):
        # two distinct derivations of the same binding must survive in
        # both executors (rule-firing counts compare like with like)
        db = db_of("a(1)", "b(1)", "c(1)")
        rule = parse_rule("p(X) <- a(X), b(X).")
        plan = compile_rule(rule)
        assert len(list(compiled(db, plan))) == len(
            list(run_plan_tuple(db, plan))
        )


class TestAntiJoinNegation:
    def test_negation_filters_batch(self):
        db = db_of("e(1)", "e(2)", "e(3)", "bad(2)")
        rule = parse_rule("p(X) <- e(X), ~bad(X).")
        rows = bindings_of(db, rule)
        assert [dict(r)["X"] for r in rows] == [Const(1), Const(3)]

    def test_negation_against_negation_db(self):
        # the anti-join must respect an alternative interpretation
        db = db_of("e(1)", "e(2)")
        assumed = db_of("bad(1)")
        rule = parse_rule("p(X) <- e(X), ~bad(X).")
        rows = bindings_of(db, rule, negation_db=assumed)
        assert [dict(r)["X"] for r in rows] == [Const(2)]

    def test_negated_builtin_is_closed_test(self):
        db = db_of("e(1)", "e(2)")
        rule = parse_rule("p(X) <- e(X), ~X = 1.")
        rows = bindings_of(db, rule)
        assert [dict(r)["X"] for r in rows] == [Const(2)]

    def test_all_negated_batch_empties(self):
        db = db_of("e(1)", "bad(1)")
        rule = parse_rule("p(X) <- e(X), ~bad(X).")
        assert bindings_of(db, rule) == []


def _d_index(plan):
    return next(
        step.index for step in plan.steps if step.literal.atom.pred == "d"
    )


class TestOverrideSource:
    def test_delta_seed_restricts_first_step(self):
        db = db_of("e(1, 2)", "e(2, 3)", "t(2, 3)")
        rule = parse_rule("t(X, Y) <- e(X, Z), t(Z, Y).")
        plan = compile_rule(rule, first=1)
        delta = [(Const(2), Const(3))]
        fast = list(compiled(db, plan, overrides={1: delta}))
        tup = list(run_plan_tuple(db, plan, overrides={1: delta}))
        assert len(fast) == len(tup) == 1
        assert fast[0].materialize() == tup[0].materialize()

    def test_probed_delta_join(self):
        # the delta occurrence appears second, so the compiled lane
        # probes it
        db = db_of("e(1, 2)", "e(2, 3)")
        rule = parse_rule("p(X, Y) <- e(X, Z), d(Z, Y).")
        plan = compile_rule(rule)
        delta = [(Const(2), Const(9)), (Const(7), Const(8))]
        fast = list(compiled(db, plan, overrides={plan.order[1]: delta}))
        tup = list(run_plan_tuple(db, plan, overrides={plan.order[1]: delta}))
        assert len(fast) == len(tup) == 1

    def test_generator_source_consumed_once(self):
        # an override may be a one-shot iterable; every lane must
        # materialize it before fanning it over the outer bindings
        db = db_of("e(1)", "e(2)")
        plan = compile_rule(parse_rule("p(X, Y) <- e(X), d(Y)."))
        idx = _d_index(plan)

        def source():
            return {idx: iter([(Const(5),), (Const(6),)])}

        fast = _normalized(compiled(db, plan, overrides=source()))
        assert len(fast) == 4
        assert _normalized(run_plan_tuple(db, plan, overrides=source())) == fast
        assert _normalized(
            enumerate_bindings(db, plan, overrides=source(), executor="tuple")
        ) == fast
        facts = {
            name: sorted(map(str, derive_facts(
                db, plan, overrides=source(), executor=name
            )))
            for name in ("batch", "tuple")
        }
        assert len(facts["batch"]) == 4
        assert facts["tuple"] == facts["batch"]


class TestFallbackToReference:
    """A plan the compiled lane declines runs on the reference executor,
    with every override source still unconsumed."""

    def test_seed_keys_differ_from_initially_bound(self):
        db = db_of("e(1, 2)", "e(1, 3)", "e(2, 3)")
        plan = compile_rule(parse_rule("p(X, Y) <- e(X, Y)."))
        seed = {"X": Const(1)}
        assert specialized_plan(plan).run(
            "vars", db, seed, None, None, None
        ) is FALLBACK
        got = _normalized(compiled(db, plan, binding=seed))
        assert got == _normalized(run_plan_tuple(db, plan, binding=seed))
        assert len(got) == 2

    def test_declined_plan_sees_a_fresh_one_shot_source(self):
        db = db_of("e(1)", "e(2)")
        plan = compile_rule(parse_rule("p(X, Y) <- e(X), d(Y)."))
        seed = {"Z": Const(0)}  # not the plan's initially-bound set
        overrides = {_d_index(plan): iter([(Const(5),), (Const(6),)])}
        assert len(list(compiled(db, plan, binding=seed, overrides=overrides))) == 4

    def test_unsupported_shape(self, monkeypatch):
        def unsupported(plan, template):
            raise specialize._Unsupported(repr(template))

        monkeypatch.setattr(specialize, "_generate", unsupported)
        db = db_of("e(1)", "e(2)")
        plan = compile_rule(parse_rule("p(X, Y) <- e(X), d(Y)."))

        def source():
            return {_d_index(plan): iter([(Const(5),), (Const(6),)])}

        facts = derive_facts(db, plan, overrides=source(), executor="batch")
        assert sorted(map(str, facts)) == sorted(map(str, derive_facts(
            db, plan, overrides=source(), executor="tuple"
        )))
        assert len(facts) == 4
        assert len(derive_rows(db, plan, overrides=source()).rows) == 4
        assert len(list(compiled(db, plan, overrides=source()))) == 4

    def test_seed_value_that_cannot_be_interned(self):
        db = db_of("e(1, 2)")
        rule = parse_rule("p(X, Y) <- e(X, Y).")
        plan = compile_rule(rule, initially_bound=frozenset({"X"}))
        seed = {"X": object()}
        assert specialized_plan(plan).run(
            "vars", db, seed, None, None, None
        ) is FALLBACK
        assert list(compiled(db, plan, binding=seed)) == []

    def test_derive_rows_is_total_on_both_executors(self):
        """Every headed plan derives rows on either executor — fast
        heads straight from the compiled closure, non-fast heads and the
        reference by instantiating and encoding — and the rows decode
        to the same printed facts."""
        db = db_of("p('a')", "p(b)", "p(2)")
        for src in ("s(f(X)) <- p(X).", "r('a', X) <- p(X)."):
            plan = compile_rule(parse_rule(src))
            printed = {}
            for name in EXECUTORS:
                dr = derive_rows(db, plan, executor=name)
                decode = dr.decode or decode_row
                printed[name] = sorted(
                    format_atom(Atom(dr.pred, decode(row))) for row in dr.rows
                )
            assert printed["batch"] == printed["tuple"]
            assert len(printed["batch"]) == 3
        assert "r('a', a)" in printed["batch"]
        plan = compile_rule(parse_rule("t(X, Y) <- p(X), p(Y)."))
        assert derive_rows(db, plan, executor="batch").decode is None
        # a grouping rule derives its pre-group head: one row per
        # binding, a non-fast head instantiated and outside U dropped
        db = db_of("e(a, 1)", "e(a, 2)", "e(b, 'x')")
        for src, expected in (
            ("g(K, <V>) <- e(K, V).", ["g(a, 1)", "g(a, 2)", "g(b, x)"]),
            ("g(V * 2, <K>) <- e(K, V).", ["g(2, a)", "g(4, a)"]),
        ):
            plan = compile_rule(parse_rule(src))
            for name in EXECUTORS:
                dr = derive_rows(db, plan, executor=name)
                decode = dr.decode or decode_row
                assert sorted(
                    format_atom(Atom(dr.pred, decode(row))) for row in dr.rows
                ) == expected


class TestBatchBuiltins:
    def test_arithmetic_generate(self):
        db = db_of("e(1)", "e(2)")
        rule = parse_rule("p(X, Y) <- e(X), Y = X + 1.")
        rows = bindings_of(db, rule)
        assert len(rows) == 2

    def test_comparison_filter(self):
        db = db_of("e(1)", "e(2)", "e(3)")
        rule = parse_rule("p(X) <- e(X), X > 1.")
        assert len(bindings_of(db, rule)) == 2


#: The set built-ins in kernel shape (ground operands, fresh output) and
#: one with a bound output, which keeps the handler path.
SET_BUILTIN_RULES = (
    "r(S) <- a(S1), b(S2), intersection(S1, S2, S).",
    "r(S) <- a(S1), b(S2), difference(S1, S2, S).",
    "r(S) <- a(S1), b(S2), union(S1, S2, S).",
    "r(S) <- a(S1), b(S2), partition(S, S1, S2).",
    "r(N) <- a(S), card(S, N).",
    "r(S1, S2) <- a(S1), b(S2), a(S3), intersection(S1, S2, S3).",
)


def _closure_source(rule_src: str) -> str:
    plan = compile_rule(parse_rule(rule_src))
    template = tuple(
        (VAR, name) for name in specialize.body_variables(plan)
    )
    return specialize._generate(plan, template)[0]


class TestSetKernels:
    def test_kernel_shapes_call_the_kernel(self):
        for src in SET_BUILTIN_RULES[:-1]:
            source = _closure_source(src)
            assert "_sk" in source and "_h" not in source, src

    def test_bound_output_keeps_the_handler_call(self):
        source = _closure_source(SET_BUILTIN_RULES[-1])
        assert "_h" in source and "_sk" not in source


set_operands = st.lists(ground_sets | quoted_ground_terms, min_size=1, max_size=4)


@given(set_operands, set_operands)
@settings(max_examples=60, deadline=None)
def test_set_builtins_compiled_equal_reference(left, right):
    """Operands drawn from sets and arbitrary terms (non-sets make the
    built-ins false): every kernel shape and the bound-output shape
    print the same model on both executors."""
    edb = [Atom("a", (v,)) for v in left] + [Atom("b", (v,)) for v in right]
    for src in SET_BUILTIN_RULES:
        program = parse_program(src).program
        printed = {
            name: sorted(
                format_atom(fact)
                for fact in evaluate(program, edb=edb, executor=name).database.atoms()
            )
            for name in EXECUTORS
        }
        assert printed["batch"] == printed["tuple"], src


class TestBatchGroupBy:
    def test_grouping_rule_matches_tuple_executor(self):
        src = """
        item(a, 1). item(a, 2). item(b, 3).
        bag(K, <V>) <- item(K, V).
        """
        batch = run(src, executor="batch")
        tup = run(src, executor="tuple")
        assert facts_of(batch, "bag") == facts_of(tup, "bag")
        assert len(facts_of(batch, "bag")) == 2

    def test_grouping_rule_empty_body_is_no_facts(self):
        rule = parse_rule("bag(K, <V>) <- item(K, V).")
        assert list(apply_grouping_rule(rule, Database())) == []


class TestExecutorSelection:
    def test_known_executors(self):
        assert set(EXECUTORS) == {"batch", "tuple"}

    def test_default_is_batch(self):
        # REPRO_EXECUTOR overrides the process default (the CI
        # differential job runs the whole suite under "tuple").
        expected = os.environ.get("REPRO_EXECUTOR", "batch")
        assert default_executor() == expected

    def test_set_default_round_trip(self):
        previous = default_executor()
        try:
            set_default_executor("tuple")
            assert default_executor() == "tuple"
        finally:
            set_default_executor(previous)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            set_default_executor("vectorized")
        db = db_of("e(1)")
        plan = compile_rule(parse_rule("p(X) <- e(X)."))
        with pytest.raises(ValueError, match="unknown executor"):
            enumerate_bindings(db, plan, executor="vectorized")

    def test_context_executor_flows_through(self):
        ctx = EvalContext(Database(), executor="tuple")
        assert ctx.executor == "tuple"

    def test_evaluate_executor_knob(self):
        src = "e(1). e(2). p(X) <- e(X)."
        assert facts_of(run(src, executor="batch"), "p") == facts_of(
            run(src, executor="tuple"), "p"
        )


class TestDeriveFacts:
    def test_head_instantiation(self):
        db = db_of("e(1)", "e(2)")
        plan = compile_rule(parse_rule("p(X) <- e(X)."))
        facts = derive_facts(db, plan)
        assert sorted(str(f) for f in facts) == sorted(
            str(parse_atom(s)) for s in ("p(1)", "p(2)")
        )

    def test_batch_metrics_recorded(self):
        db = db_of("e(1)", "e(2)", "f(1)")
        plan = compile_rule(parse_rule("p(X) <- e(X), f(X)."))
        metrics = MetricsCollector()
        facts = derive_facts(
            db, plan, executor="batch", steps=metrics.on_exec_steps
        )
        assert metrics.counters["batch_steps"] == 2
        assert metrics.counters["batch_peak"] >= 1
        assert facts == derive_facts(db, plan, executor="tuple")

    def test_empty_plan_yields_seed_binding(self):
        # a fact rule has no steps: exactly one (empty) binding
        plan = compile_rule(parse_rule("p(1)."))
        fast = list(compiled(Database(), plan))
        assert len(fast) == 1 == len(list(run_plan_tuple(Database(), plan)))
        assert fast[0] is not None
        assert EMPTY_BINDING.materialize() == {}


class TestFixedProgramDifferentials:
    TC = """
    e(1, 2). e(2, 3). e(3, 4). e(2, 4).
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
    """

    def test_transitive_closure(self):
        assert facts_of(run(self.TC, executor="batch"), "t") == facts_of(
            run(self.TC, executor="tuple"), "t"
        )

    def test_negation_program(self):
        src = """
        node(1). node(2). node(3). edge(1, 2).
        linked(X) <- edge(X, Y).
        linked(Y) <- edge(X, Y).
        isolated(X) <- node(X), ~linked(X).
        """
        assert facts_of(run(src, executor="batch"), "isolated") == facts_of(
            run(src, executor="tuple"), "isolated"
        ) == {"isolated(3)"}

    def test_derived_facts_spell_alike_on_both_executors(self):
        """Both executors bind body variables to class representatives,
        so a derived fact prints the same whichever ran; rule constants
        and EDB facts keep their spelling."""
        src = """
        p('a'). item('a', 'x'). item(b, 'y').
        q(X) <- p(X). s(f(X)) <- p(X). bag(K, <V>) <- item(K, V).
        """
        printed = {}
        previous = default_executor()
        try:
            for executor in EXECUTORS:
                set_default_executor(executor)
                session = LDL(src)
                model = session.model().database.sorted_atoms()
                answers = session.query_magic("? s(X).").answer_atoms()
                printed[executor] = (
                    [format_atom(a) for a in model],
                    [format_atom(a) for a in answers],
                )
        finally:
            set_default_executor(previous)
        assert printed["batch"] == printed["tuple"]
        model, answers = printed["tuple"]
        assert {
            "p('a')", "item(b, 'y')", "q(a)", "s(f(a))", "bag(a, {x})",
            "bag(b, {y})",
        } <= set(model)
        assert answers == ["s(f(a))"]


class TestReferenceOnlyWhereAsked:
    """On the default executor every engine path — evaluation,
    explanation, on-demand magic, maintenance and the well-founded
    reducts — compiles; the reference runs only under
    ``executor="tuple"``."""

    # a 30-edge chain plus one redundant shortcut: deleting the shortcut
    # over-deletes a few closure facts, well under the DRed cost gate,
    # and rederives them
    CHAIN = "".join(f"e(x{i}, x{i + 1}). " for i in range(30)) + "e(x0, x2)."
    SRC = CHAIN + """
    t(X, Y) <- e(X, Y).
    t(X, Y) <- t(X, Z), e(Z, Y).
    kids(X, <Y>) <- e(X, Y).
    node(X) <- e(X, Y). node(Y) <- e(X, Y).
    inner(X) <- e(X, Y).
    leaf(X) <- node(X), ~inner(X).
    """

    @pytest.mark.skipif(
        default_executor() == "tuple",
        reason="counts reference runs under the default executor",
    )
    def test_default_executor_never_runs_the_reference(
        self, monkeypatch, tmp_path
    ):
        import repro.engine.exec as exec_package

        reference_runs = []
        real = exec_package.run_plan_tuple

        def counting(*args, **kwargs):
            reference_runs.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(exec_package, "run_plan_tuple", counting)
        rederivable = DeltaMaintainer._rederivable
        asked = []

        def counting_rederivable(self, rule, fact):
            asked.append(fact)
            return rederivable(self, rule, fact)

        monkeypatch.setattr(
            DeltaMaintainer, "_rederivable", counting_rederivable
        )
        durable = LDL(self.SRC, path=str(tmp_path / "db"), maintain="delta")
        for session in (LDL(self.SRC), durable):
            assert session.model().database.count("t") == 30 * 31 // 2
            assert session.explain("t(x0, x5)") is not None
            assert session.explain("kids(x0, {x1, x2})") is not None
            assert session.query_magic("? t(x3, Y).").answer_atoms()
            session.add_atoms([parse_atom("e(x30, x31)")])
            session.remove_atoms([parse_atom("e(x0, x2)")])
            assert session.model().database.count("t") == 31 * 32 // 2
        durable.close()
        assert asked
        win = parse_program(
            "move(a, b). move(b, a). move(b, c). win(X) <- move(X, Y), ~win(Y)."
        ).program
        assert wellfounded(win).true
        assert reference_runs == []


# -- one compiled shape against the reference, rule by rule -----------------


def _binding_multiset(bindings):
    """Bindings as printed, so a spelling difference counts too."""
    return Counter(
        frozenset((name, format_term(value)) for name, value in b.items())
        for b in bindings
    )


def _row_batch(atom, tuples):
    batch = RowBatch(atom.pred, len(atom.args))
    for args in tuples:
        batch.add(encode_args(args), args)
    return batch


def _check_plan(db, plan, binding=None, overrides=None, negation_db=None):
    """Run ``plan``'s compiled closures and the reference executor.  As
    printed multisets, the variable rows decoded to bindings must equal
    the reference's bindings, and the head rows decoded through
    ``decoder()`` the reference's facts.  The variable template must
    compile for every plan, head-seeded ones included; the head
    template exists exactly for seedless plans with a fast head."""
    spec = specialized_plan(plan)
    base = binding or {}
    reference = list(run_plan_tuple(
        db, plan, binding=binding, overrides=overrides,
        negation_db=negation_db,
    ))
    rows = spec.run("vars", db, base, overrides, negation_db, None)
    assert rows is not FALLBACK
    assert _binding_multiset(spec.binder()(rows, base)) == _binding_multiset(
        reference
    )
    if plan.head is None:
        return
    rows = spec.run("head", db, base, overrides, negation_db, None)
    if head_template(plan) is None:
        assert rows is FALLBACK
        return
    assert rows is not FALLBACK
    expected = Counter(
        format_atom(fact) for fact in map(plan.instantiate_head, reference)
        if fact is not None
    )
    decode = spec.decoder() or decode_row
    pred = plan.head.atom.pred
    assert Counter(format_atom(Atom(pred, decode(row))) for row in rows) == expected


@given(generated_programs)
@settings(max_examples=25, deadline=None)
def test_compiled_modes_equal_reference_on_every_rule(generated):
    """The compiled lane is an optimization, not a semantics.

    Over the evaluated model of a random admissible program — negation
    and grouping included — every rule, under every delta occurrence
    (overrides given as a plain list and as a ``RowBatch``), with and
    without a distinct negation database, and seeded on its head the
    way ``explain`` and DRed rederivation seed it, must give the same
    bindings and head facts from its compiled closures as on the
    reference executor (:func:`_check_plan`).
    """
    db = evaluate(generated.program, edb=generated.edb).database
    edb_only = Database(generated.edb)
    for rule in generated.program.rules:
        occurrences = [
            i for i, lit in enumerate(rule.body)
            if lit.positive and not is_builtin_predicate(lit.atom.pred)
        ]
        for negation_db in (None, edb_only):
            _check_plan(db, compile_rule(rule), negation_db=negation_db)
            for i in occurrences:
                plan = compile_rule(rule, first=i)
                atom = rule.body[i].atom
                tuples = list(db.tuples(atom.pred))
                delta = tuples[::2] + tuples[:1]  # a subset, one repeat
                for source in (delta, _row_batch(atom, delta)):
                    _check_plan(
                        db, plan, overrides={i: source},
                        negation_db=negation_db,
                    )
        if rule.head.group_positions():
            continue
        for fact in list(db.atoms(rule.head.pred))[:3]:
            for seed in match_atom(rule.head, fact.args, {}):
                plan = compile_rule(rule, initially_bound=frozenset(seed))
                _check_plan(db, plan, binding=seed)
