"""Tests for the executor package (repro.engine.exec).

Covers the compiled lane — the engine's only body evaluator — against
the reference executor on fixed bodies (joins, anti-join negation,
override-source joins, builtins, metrics), the errors a plan or seed the
lane cannot run raises, ``evaluate``'s accepted-and-ignored
``executor`` keyword, fixed-program differentials against the top-down
oracle, that no engine path reaches the reference, and a Hypothesis
property holding the one compiled shape (variable rows and head rows)
to the reference on every rule of random programs.
"""

import inspect
import re
from collections import Counter, defaultdict
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LDL
from repro.engine import evaluate
from repro.engine.binding import EMPTY_BINDING
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import (
    RowBatch,
    derive_facts,
    derive_rows,
    enumerate_bindings,
    run_plan_tuple,
)
from repro.engine.exec import specialize
from repro.engine.exec.specialize import specialized_plan
from repro.engine.grouping import apply_grouping_rule
from repro.engine.maintain.maintainer import DeltaMaintainer
from repro.engine.match import match_atom
from repro.engine.plan import VAR, LiteralStep, compile_rule
from repro.engine.relation import decode_row, encode_args
from repro.names import is_builtin_predicate
from repro.observe import MetricsCollector
from repro.parser import parse_atom, parse_program, parse_rule
from repro.errors import EvaluationError
from repro.program.rule import Atom, Literal, Program, Rule
from repro.semantics.wellfounded import wellfounded
from repro.terms.pretty import format_atom, format_rule, format_term
from repro.terms.term import Const, Var
from repro.workloads.social import SOCIAL_PROGRAM, social_network

from tests.helpers import (
    facts_of,
    fused_and_unfused,
    grouping_oracle,
    idb_facts,
    looped,
    reference_facts,
    run,
    topdown_idb_facts,
)
from tests.strategies import generated_programs, ground_sets, quoted_ground_terms


def db_of(*atom_srcs):
    return Database(parse_atom(src) for src in atom_srcs)


def _normalized(bindings):
    return sorted(
        (sorted(b.materialize().items()) for b in bindings),
        key=repr,
    )


def printed(facts):
    return sorted(map(format_atom, facts))


def bindings_of(db, rule, **kwargs):
    fast = _normalized(enumerate_bindings(db, compile_rule(rule), **kwargs))
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
        assert len(list(enumerate_bindings(db, plan))) == len(
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


#: Rules whose last relation step runs their trailing filter as its
#: comprehension's ``if`` clause.
FUSED_FILTER_RULES = (
    "candidate(A, B) <- follows(A, M), follows(M, B), A != B.",
    "recommend(A, B) <- candidate(A, B), ~follows(A, B).",
    "r(A, B) <- q(A, B), ~s(A, c).",  # a constant negation argument
    "r(A, B) <- q(A, B), A = B.",  # = between two bound variables
    # the magic form: a probe, then the negation
    "recommend__bf(A, B) <- m_recommend__bf(A), candidate__bf(A, B), "
    "~follows(A, B).",
)

#: Rules whose trailing filter keeps today's per-row emission.
UNFUSED_FILTER_RULES = (
    "r(A) <- q(A), ~A = 1.",  # a negated builtin
    "r(A) <- q(A), ~p(A + 1).",  # a TERM negation argument
    "r(A, B) <- q(A, B), A < B.",  # a comparison on the lane
    "r(A, B) <- q(A, B), ~s(A), A != B.",  # two trailing filters
    "r(A, B) <- q(A), ~s(A), t(A, B).",  # a relation step after the filter
    "r(A) <- q(A, A), ~s(A).",  # a residual-matcher step
)

#: Rules whose fused gather emits the scanned row itself, and rules
#: whose does not.
WHOLE_ROW_RULES = (
    "r(A, B) <- q(A, B), ~s(A).",
    "r(A, B) <- q(A, B), A != B.",
    "r(A, B) <- q(A, B).",
)
#: A binary relation probed on its first column: the gather runs over
#: the key map's value set, and no row is stored to reuse.
KEYED_PROBE_RULE = (
    "recommend__bf(A, B) <- m_recommend__bf(A), candidate__bf(A, B), "
    "~follows(A, B)."
)
BUILT_ROW_RULES = (
    "r(B, A) <- q(A, B), ~s(A).",
    "r(A, c) <- q(A, B), ~s(B).",  # a head constant
    "r(A, B) <- q(A, B, C), ~s(C).",  # a wider scanned row
)

#: A line of a fused tail filter; of a gather that reuses its row.
FUSED_TAIL = re.compile(r"_t\d+ = \[.* for _x\d+ in _[rb]\d+ if ")
WHOLE_ROW = re.compile(r"_t(\d+) = \[_x\1 for _x\1 in ")


def _filter_db(rule, values=("u1", "'u1'", "1", "1.0", "c")):
    """Facts for every stored predicate of ``rule``: a fixed subset of
    the tuples over ``values`` — by default ``u1``, ``'u1'`` (its
    class, spelled otherwise), ``1``, ``1.0`` (another class) and
    ``c``."""
    facts = []
    for literal in rule.body:
        atom = literal.atom
        if is_builtin_predicate(atom.pred):
            continue
        arity = len(atom.args)
        for i, args in enumerate(product(values, repeat=arity)):
            if (i * 7 + len(atom.pred)) % 3:
                facts.append(f"{atom.pred}({', '.join(args)})")
    return db_of(*facts)


class TestFusedFilter:
    """A pure ID-space filter after the last relation step runs inside
    that step's comprehension, and a copy-shaped output reuses the
    scanned row; rows and ``exec_steps`` counts are the unfused
    closure's, and the bindings the reference's."""

    @staticmethod
    def _sources(src):
        rule = parse_rule(src)
        plan = compile_rule(rule)
        # an order comparison raises between a string and a number
        db = _filter_db(rule, ("1", "1.0", "2")) if "<" in src else _filter_db(rule)
        sources = []
        for template in (
            specialize.head_template(plan),
            tuple((VAR, name) for name in specialize.body_variables(plan)),
        ):
            fused, unfused = fused_and_unfused(plan, template, db)
            assert fused[1:] == unfused[1:], src
            assert sum(fused[1].values()) == fused[2][0][1], src
            sources.append((fused[0], unfused[0]))
        _check_plan(db, plan)
        return sources

    def test_shape_pin(self):
        for src in FUSED_FILTER_RULES:
            for fused, unfused in self._sources(src):
                assert FUSED_TAIL.search(fused), src
                assert not FUSED_TAIL.search(unfused), src
        for src in UNFUSED_FILTER_RULES:
            for fused, unfused in self._sources(src):
                assert fused == unfused, src
                assert not FUSED_TAIL.search(fused), src

    def test_whole_row_pin(self):
        for src in WHOLE_ROW_RULES:
            head, _ = self._sources(src)
            assert WHOLE_ROW.search(head[0]), src
        for src in BUILT_ROW_RULES:
            head, _ = self._sources(src)
            assert not WHOLE_ROW.search(head[0]), src
        (head, _), _ = self._sources(KEYED_PROBE_RULE)
        assert "_t1 = [(v0, _x1) for _x1 in _b1 if " in head
        assert not WHOLE_ROW.search(head)
        # the negation key is the row though the output is not
        (head, _), _ = self._sources("r(C, B, A) <- q(A, B, C), ~s(A, B, C).")
        assert " if _x0 not in _n1]" in head
        assert not WHOLE_ROW.search(head)
        # a binary anti-join on the scanned pair: a value-set test per
        # row, one set difference per key on the stored key map
        (head, _), _ = self._sources("r(B, A) <- q(A, B), ~s(A, B).")
        assert " if _x0[1] not in _n1.get(_x0[0], _ES)]" in head
        assert " for _x0 in _zs0 - _n1.get(_ka0, _ES)]" in head
        assert not WHOLE_ROW.search(head)

    @pytest.mark.parametrize("batch", [False, True])
    def test_override_rows_reused_whole(self, batch):
        """An override row wider than its literal is cut to the columns
        the per-row path reads before the gather reuses it."""
        rule = parse_rule("r(A, B) <- q(A, B), ~s(A, B).")
        db = _filter_db(rule)
        wide = [args + (Const(9),) for args in db.tuples("q")]
        delta = wide + [(Const(1), Const(2))]
        if batch:  # a batch of another arity
            delta = _row_batch(Atom("q", (Var("A"), Var("B"), Var("C"))), delta)
        plan = compile_rule(rule, first=0)
        fused, unfused = fused_and_unfused(
            plan, specialize.head_template(plan), db, overrides={0: delta}
        )
        assert WHOLE_ROW.search(fused[0])
        assert fused[1:] == unfused[1:]
        assert all(len(row) == 2 for row in fused[1])
        _check_plan(db, plan, overrides={0: delta})


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
        fast = list(enumerate_bindings(db, plan, overrides={1: delta}))
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
        fast = list(enumerate_bindings(db, plan, overrides={plan.order[1]: delta}))
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

        fast = _normalized(enumerate_bindings(db, plan, overrides=source()))
        assert len(fast) == 4
        assert _normalized(run_plan_tuple(db, plan, overrides=source())) == fast
        facts = printed(derive_facts(db, plan, overrides=source()))
        assert len(facts) == 4
        assert facts == printed(reference_facts(db, plan, overrides=source()))


@pytest.fixture
def no_reference(monkeypatch):
    """Make any run of the reference executor fail the test."""
    import repro.engine.exec as exec_package
    from repro.engine.exec import tuplewise

    def refuse(*args, **kwargs):
        raise AssertionError("the reference executor ran")

    monkeypatch.setattr(exec_package, "run_plan_tuple", refuse)
    monkeypatch.setattr(tuplewise, "run_plan_tuple", refuse)


@pytest.mark.usefixtures("no_reference")
class TestDeclinedPlansRaise:
    """A plan or seed the compiled lane cannot run raises, before any
    override source is consumed; nothing reroutes to the reference."""

    def test_seed_keys_differ_from_initially_bound(self):
        db = db_of("e(1, 2)", "e(1, 3)", "e(2, 3)")
        plan = compile_rule(parse_rule("p(X, Y) <- e(X, Y)."))
        with pytest.raises(ValueError, match="compiled for"):
            enumerate_bindings(db, plan, binding={"X": Const(1)})
        seeded = compile_rule(
            parse_rule("p(X, Y) <- e(X, Y)."), initially_bound=frozenset({"X"})
        )
        with pytest.raises(ValueError, match="compiled for"):
            derive_facts(db, seeded)
        assert len(enumerate_bindings(db, seeded, binding={"X": Const(1)})) == 2

    def test_error_leaves_a_one_shot_source_unconsumed(self):
        db = db_of("e(1)", "e(2)")
        plan = compile_rule(parse_rule("p(X, Y) <- e(X), d(Y)."))
        source = iter([(Const(5),), (Const(6),)])
        seed = {"Z": Const(0)}  # not the plan's initially-bound set
        with pytest.raises(ValueError):
            enumerate_bindings(
                db, plan, binding=seed, overrides={_d_index(plan): source}
            )
        assert len(list(source)) == 2

    def test_unsupported_shape(self, monkeypatch):
        def unsupported(plan, template):
            raise specialize._Unsupported("no codegen for this shape")

        monkeypatch.setattr(specialize, "_generate", unsupported)
        db = db_of("e(1)", "e(2)")
        plan = compile_rule(parse_rule("p(X, Y) <- e(X), d(Y)."))
        source = iter([(Const(5),), (Const(6),)])
        overrides = {_d_index(plan): source}
        message = r"p\(X, Y\) <- e\(X\), d\(Y\)\..*no codegen for this shape"
        for entry in (derive_facts, derive_rows, enumerate_bindings):
            with pytest.raises(EvaluationError, match=message):
                entry(db, plan, overrides=overrides)
        assert len(list(source)) == 2

    def test_seed_value_that_cannot_be_interned(self):
        db = db_of("e(1, 2)")
        rule = parse_rule("p(X, Y) <- e(X, Y).")
        plan = compile_rule(rule, initially_bound=frozenset({"X"}))
        with pytest.raises(TypeError, match="not a term"):
            enumerate_bindings(db, plan, binding={"X": object()})


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


def _closure_source(rule_src: str, **kwargs) -> str:
    plan = compile_rule(parse_rule(rule_src), **kwargs)
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


#: The recursive closure rule of the social ledger program.
INFLUENCES = "influences(A, B) <- influences(A, C), follows(B, C)."
#: Its projecting join.
CANDIDATE = "candidate(A, B) <- follows(A, M), follows(M, B), A != B."


def _checked_run(db, plan, overrides=None):
    """Run ``plan``'s closures against the reference executor: the
    variable rows decoded to bindings must equal the reference's
    bindings, and ``derive_facts`` its facts.  A fixpoint's run
    (``derive_rows`` with the head's predicate as ``recursive``) must
    give the per-row run's row set, derivation count and
    ``exec_steps`` counts, whichever branch ran.  Returns the bindings
    (a printed multiset), the ``exec_steps`` counts and whether the
    fixpoint's run returned a key map."""
    spec = specialized_plan(plan)
    seen = []
    rows = spec.run(
        "vars", db, {}, overrides, None,
        lambda counts, rows: seen.append(counts),
    )
    bindings = _binding_multiset(spec.binder()(rows, {}))
    assert bindings == _binding_multiset(
        run_plan_tuple(db, plan, overrides=overrides)
    )
    facts = derive_facts(db, plan, overrides=overrides)
    assert printed(facts) == printed(reference_facts(db, plan, overrides=overrides))
    runs = []
    for recursive in (None, frozenset({plan.head.atom.pred})):
        steps = []
        runs.append((derive_rows(
            db, plan, overrides=overrides, recursive=recursive,
            steps=lambda counts, rows: steps.append(counts),
        ), steps))
    (per_row, row_steps), (dr, keyed_steps) = runs
    assert per_row.keys is None and per_row.count == len(rows)
    assert row_steps == keyed_steps == seen and dr.count == per_row.count
    if dr.keys is None:
        assert dr.rows == per_row.rows
    else:
        assert _as_rows(dr) == set(per_row.rows)
    return bindings, seen[0], dr.keys is not None


class TestKeyGroupedJoin:
    """A scan-then-probe plan grouped by key: a fixpoint's run takes
    the key-map branch when the scanned rows repeat their carried
    values, and the per-row nest when they do not; every other closure
    runs the per-row nest.  Each gives the reference's bindings, facts
    and counts."""

    FOLLOWS = (
        "follows(b, c1)", "follows(d, c1)", "follows(e, c2)",
        "follows(c3, c3)", "follows(c1, c1)",
    )
    #: ``influences(A, C)`` delta rows whose carried values ``A`` and
    #: keys ``C`` are all distinct
    SPARSE = [
        (Const("a1"), Const("c1")), (Const("a2"), Const("c2")),
        (Const("a3"), Const("c3")), (Const("a4"), Const("c4")),
    ]

    def test_codegen_pin(self):
        """Only a fixpoint's closure groups rows: the row closures of
        the delta join are the per-row nest alone."""
        plan = compile_rule(parse_rule(INFLUENCES), first=0)
        spec = specialized_plan(plan)
        assert "_DL(" in _keys_source(INFLUENCES, 0)
        for template in (spec.templates["head"], spec.templates["vars"]):
            assert "_DL(" not in specialize._generate(plan, template)[0]

    @pytest.mark.parametrize("rule_src", [
        INFLUENCES,
        # a probe-only step keyed on one variable twice
        "hit(A) <- influences(A, C), follows(C, C).",
    ])
    @pytest.mark.parametrize("probed", [
        "database", "override", "wrong_arity", "unknown",
    ])
    def test_both_branches_agree(self, rule_src, probed):
        plan = compile_rule(parse_rule(rule_src), first=0)
        db = Database() if probed == "unknown" else db_of(*self.FOLLOWS)
        follows = [parse_atom(src).args for src in self.FOLLOWS]
        if probed == "override":
            # list buckets: the repeated row must keep counting
            source = follows + follows[:1]
        elif probed == "wrong_arity":
            source = RowBatch("follows", 3)
            for args in follows:
                args += (Const("z"),)
                source.add(encode_args(args), args)
        runs = []
        for delta in (self.SPARSE, self.SPARSE + self.SPARSE):
            for given in (delta, _row_batch(parse_atom("influences(A, C)"), delta)):
                overrides = {0: given}
                if probed in ("override", "wrong_arity"):
                    overrides[1] = source
                runs.append(_checked_run(db, plan, overrides))
        (sparse, counts, keyed), (dense, dense_counts, dense_keyed) = runs[::2]
        assert runs[1] == runs[0] and runs[3] == runs[2]
        # only a binary head has a key-map branch
        assert not keyed and dense_keyed == (rule_src == INFLUENCES)
        assert dense_counts == tuple(2 * count for count in counts)
        assert dense == sparse + sparse
        if probed == "unknown":
            assert counts == (4, 0) and not sparse
        elif probed != "wrong_arity" or rule_src == INFLUENCES:
            assert sparse

    def test_delta_read_from_the_database(self):
        plan = compile_rule(parse_rule(INFLUENCES), first=0)
        chain = [f"influences(a{i}, c{i})" for i in range(1, 5)]
        fan = [f"influences(x{j}, c{i})" for i in range(1, 5) for j in range(3)]
        sparse, counts, keyed = _checked_run(db_of(*self.FOLLOWS, *chain), plan)
        assert not keyed and counts == (4, len(sparse))
        dense, counts, keyed = _checked_run(
            db_of(*self.FOLLOWS, *chain, *fan), plan
        )
        assert keyed and counts == (16, len(dense)) and len(dense) == 4 * len(sparse)


#: A line only the key-map branches emit.
KEYED = "return _km, "

#: Delta plans (rule, pinned occurrence) of the key-map shape, with
#: the head position of the carried value and the probed predicate.
KEY_MAP_PLANS = [
    (INFLUENCES, 0, (0, "A", "follows")),
    ("anc(X, Y) <- anc(X, Z), par(Z, Y).", 0, (0, "X", "par")),  # left-linear
    ("anc(X, Y) <- par(X, Z), anc(Z, Y).", 1, (1, "Y", "par")),  # right-linear
    # the carried value read from the scanned row's other column
    ("influences(A, B) <- influences(C, A), follows(B, C).", 0, (0, "A", "follows")),
    # a projecting join: step 0 scans another relation than the head's
    ("reach(A, B) <- influences(A, C), follows(B, C).", 0, (0, "A", "follows")),
    # ... with the head variables' ``!=`` fused as one discard per key
    (CANDIDATE, 0, (0, "A", "follows")),
    ("candidate(A, B) <- follows(B, M), follows(M, A), B != A.", 0, (1, "B", "follows")),
]

#: Delta plans that keep the per-row path, whatever their delta.
ROW_PLANS = [
    # the magic-rewritten form: a third literal
    (
        "influences__bf(A, B) <- m_influences__bf(A), "
        "influences__bf(A, C), follows(B, C).",
        1,
    ),
    ("anc(X, Y) <- anc(X, Z), anc(Z, Y).", 0),  # non-linear
    ("influences(A, A) <- influences(A, C), follows(B, C).", 0),  # p(X, X)
    ("influences(A, b) <- influences(A, C), follows(B, C).", 0),  # constant
    ("influences(A, B) <- influences(A, C), follows(B, c).", 0),  # probe constant
    ("influences(A, B) <- influences(A, C), link(B, C, B).", 0),  # repeated var
    ("influences(A, B) <- influences(A, C), rated(B, C, W).", 0),  # third column
    ("influences(A, C) <- influences(A, C), follows(B, C).", 0),  # key carried
    ("influences(A, <B>) <- influences(A, C), follows(B, C).", 0),  # grouping
    # a scan with two anti-joins: only the last one fuses
    ("recommend(A, B) <- candidate(A, B), ~follows(A, B), ~blocked(A, B).", 0),
    ("candidate(A, B) <- follows(A, M), follows(M, B), B != M.", 0),  # join var
    ("reach(A, B) <- follows(A, C), reach(C, B).", 0),  # probes the head
]


def _keys_source(rule_src: str, first: int) -> str:
    plan = compile_rule(parse_rule(rule_src), first=first)
    spec = specialized_plan(plan)
    return specialize._generate(
        plan, spec.templates["head"], spec.key_map_shape()
    )[0]


def _as_rows(dr):
    """A key map's rows, as a set (the key map is a set of rows)."""
    if dr.carried == 0:
        return {(key, value) for key, values in dr.keys.items() for value in values}
    return {(value, key) for key, values in dr.keys.items() for value in values}


class TestKeyMap:
    """A linear recursive delta plan returns ``{carried: candidate set}``
    when its delta repeats carried values; the key map is the set of
    the per-row path's rows, with the same derivation count and
    ``exec_steps`` counts."""

    FOLLOWS = TestKeyGroupedJoin.FOLLOWS + ("follows(f, c2)", "follows(g, c9)")

    def test_shape_pin(self):
        for src, first, shape in KEY_MAP_PLANS:
            plan = compile_rule(parse_rule(src), first=first)
            assert specialize.key_map_shape(plan) == shape, src
            assert KEYED in _keys_source(src, first), src
        for src, first in ROW_PLANS:
            plan = compile_rule(parse_rule(src), first=first)
            assert specialize.key_map_shape(plan) is None, src
            assert KEYED not in _keys_source(src, first), src
        # an ``=`` between the head variables as the tail: the planner
        # binds with an ``=`` where it can, so the step is built here
        plan = compile_rule(parse_rule(CANDIDATE), first=0)
        ne = plan.steps[2]
        eq = Literal(Atom("=", (Var("A"), Var("B"))))
        eq_step = LiteralStep(ne.index, eq, "builtin", ne.bound_before)
        plan.steps = (*plan.steps[:2], eq_step)
        assert specialize.filter_fuses(plan.steps[2])
        assert specialize.key_map_shape(plan) is None
        # the rows a fixpoint does not ask for are never a key map
        assert KEYED not in _closure_source(INFLUENCES, first=0)

    def _derive(self, plan, db, delta, recursive):
        seen = []
        dr = derive_rows(
            db, plan, overrides={plan.steps[0].index: delta},
            steps=lambda counts, rows: seen.append((counts, rows)),
            recursive=recursive,
        )
        return dr, seen

    @pytest.mark.parametrize("src,first,shape", KEY_MAP_PLANS)
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("batch", [False, True])
    def test_key_map_is_the_row_set(self, src, first, shape, dense, batch):
        rule = parse_rule(src)
        plan = compile_rule(rule, first=first)
        probed = shape[2]
        facts = [parse_atom(f).args for f in self.FOLLOWS]
        if plan.steps[1].probe_positions == (0,):  # left-linear: par(Z, Y)
            facts = [args[::-1] for args in facts]
        db = Database(Atom(probed, args) for args in facts)
        keys = ("c1", "c2", "c3", "c9", "c4")
        if dense:  # every carried value on several keys, repeated rows kept
            pairs = [(f"a{i}", k) for i in range(3) for k in keys] + [("a0", "c1")]
        else:
            pairs = [(f"a{i}", k) for i, k in enumerate(keys)]
        scanned = dict(plan.steps[0].simple_residuals)
        if scanned[1] == shape[1]:  # the carried value is column 1
            pairs = [(k, a) for a, k in pairs]
        delta = [(Const(x), Const(y)) for x, y in pairs]
        if batch:
            delta = _row_batch(rule.head, delta)
        rows, row_steps = self._derive(plan, db, delta, None)
        assert rows.keys is None
        dr, steps = self._derive(plan, db, delta, frozenset({rule.head.pred}))
        assert (dr.keys is not None) == dense
        assert steps == row_steps and dr.count == rows.count == len(rows.rows)
        if dense:
            assert dr.carried == shape[0] and dr.rows is None
            assert _as_rows(dr) == set(rows.rows)
            assert len(rows.rows) > len(set(rows.rows))  # duplicates derived
        # a probed predicate the component defines keeps the rows
        mutual, _ = self._derive(
            plan, db, delta, frozenset({rule.head.pred, probed})
        )
        assert mutual.keys is None and mutual.rows == rows.rows

    #: scan-shaped plans, which copy a scanned pair at most minus a
    #: fused anti-join on it, and near misses that keep the rows
    SCAN_PLANS = (
        "recommend(A, B) <- candidate(A, B), ~follows(A, B).",
        "recommend(A, B) <- candidate(A, B).",
    )
    SCAN_MISSES = (
        "recommend(B, A) <- candidate(A, B), ~follows(A, B).",  # swapped
        "recommend(A, B) <- candidate(A, B), ~follows(B, A).",  # other pair
        "recommend(A, B) <- candidate(A, B), A != B.",  # not a negation
    )

    @pytest.mark.parametrize("src", SCAN_PLANS)
    @pytest.mark.parametrize("source", ["stored", "keys", "rows"])
    def test_scan_shape_is_the_row_set(self, src, source):
        rule = parse_rule(src)
        plan = compile_rule(rule, first=None if source == "stored" else 0)
        assert specialize.key_map_shape(plan) == (0, "A", None)
        pairs = [(Const(f"a{i % 3}"), Const(f"b{i}")) for i in range(8)]
        db = db_of(*(f"follows(a{i % 3}, b{i})" for i in range(0, 8, 3)))
        if source == "stored":
            db = Database([*db.atoms(), *(Atom("candidate", p) for p in pairs)])

        overrides = None
        if source != "stored":  # one delta, read by both runs
            delta = RowBatch("candidate", 2)
            if source == "keys":
                delta.extend_keys({k: set(v) for k, v in _grouped(pairs).items()})
            else:
                for args in pairs:
                    delta.add(encode_args(args), args)
            overrides = {0: delta}
        runs = []
        for recursive in (None, frozenset({"recommend"})):
            seen = []
            runs.append((derive_rows(
                db, plan, overrides=overrides, recursive=recursive,
                steps=lambda counts, rows: seen.append((counts, rows)),
            ), seen))
        (rows, row_steps), (dr, steps) = runs
        assert rows.keys is None
        assert (dr.keys is not None) == (source != "rows")
        assert steps == row_steps and dr.count == rows.count == len(rows.rows)
        if dr.keys is not None:
            assert _as_rows(dr) == set(rows.rows)

    def test_scan_shape_needs_a_fused_tail(self, monkeypatch):
        for src in self.SCAN_MISSES:
            plan = compile_rule(parse_rule(src))
            assert specialize.key_map_shape(plan) is None, src
        monkeypatch.setattr(specialize, "filter_fuses", lambda step: False)
        plan = compile_rule(parse_rule(self.SCAN_PLANS[0]))
        assert specialize.key_map_shape(plan) is None

    def test_unknown_probed_predicate(self):
        plan = compile_rule(parse_rule(INFLUENCES), first=0)
        delta = [(Const(f"a{i % 2}"), Const(f"c{i}")) for i in range(6)]
        dr, steps = self._derive(plan, Database(), delta, frozenset({"influences"}))
        assert dr.keys == {} and dr.count == 0 and steps == [((6, 0), 0)]

    def test_one_batch_serves_both_forms(self):
        """A key-form delta keeps its keys once a per-row closure has
        read its rows, so a key-map closure reading the same batch
        afterwards still gets the grouped form, and the other way
        round; appending rows drops the keys."""
        plan = compile_rule(parse_rule(self.SCAN_PLANS[0]), first=0)
        pairs = [(Const(f"a{i % 3}"), Const(f"b{i}")) for i in range(8)]
        db = db_of("follows(a0, b0)")
        delta = RowBatch("candidate", 2)
        delta.extend_keys({k: set(v) for k, v in _grouped(pairs).items()})
        recursive = frozenset({"recommend"})
        rows = derive_rows(db, plan, overrides={0: delta})
        keyed = derive_rows(db, plan, overrides={0: delta}, recursive=recursive)
        again = derive_rows(db, plan, overrides={0: delta})
        assert rows.keys is None and keyed.keys is not None
        assert _as_rows(keyed) == set(rows.rows) and again.rows == rows.rows
        delta.add(encode_args(pairs[0]), pairs[0])
        assert delta.keys is None and len(delta) == 9
        assert derive_rows(db, plan, overrides={0: delta}, recursive=recursive).keys is None

    def test_candidate_installs_per_key(self, monkeypatch):
        """In the social program ``candidate`` derives a key map and
        installs it through ``add_keys``: no ``add_rows`` call and no
        row list.  Its ``exec_steps`` counts are the per-row nest's."""
        calls = []
        _spy_installs(monkeypatch, lambda name, pred: calls.append((name, pred)))
        rule = parse_rule(CANDIDATE)
        facts = social_network(60, 4, seed=3)
        counts = {}

        class Hooks:
            def on_exec_steps(self, counts, rows):
                self.last = counts, rows

            def on_rule_fired(self, rule, derived, seconds):
                counts[format_rule(rule)] = self.last, derived

        result = evaluate(parse_program(SOCIAL_PROGRAM).program, edb=facts, hooks=Hooks())
        assert ("add_keys", "candidate") in calls
        assert ("add_rows", "candidate") not in calls
        plan = compile_rule(rule)
        seen = []
        rows = derive_rows(
            Database(facts), plan, steps=lambda counts, rows: seen.append((counts, rows))
        )
        assert counts[format_rule(rule)] == (seen[0], rows.count)
        stored = result.database.atoms("candidate")
        assert {encode_args(fact.args) for fact in stored} == set(rows.rows)

    @staticmethod
    def _social_installs(monkeypatch, program):
        """Per fixpoint round of ``evaluate(program)`` over a social
        network: the (rule, install) pairs of its applications."""
        rounds = [[]]

        class Hooks:
            def on_rule_fired(self, rule, derived, seconds):
                self.rule = format_rule(rule)

            def on_iteration(self, iteration, new_facts):
                rounds.append([])

        hooks = Hooks()
        _spy_installs(monkeypatch, lambda name, pred: rounds[-1].append((hooks.rule, name)))
        evaluate(program, edb=social_network(60, 4, seed=3), hooks=hooks)
        for src in (CANDIDATE, "recommend(A, B) <- candidate(A, B), ~follows(A, B)."):
            assert [name for r in rounds for rule, name in r if rule == src] == ["add_keys"]
        closure = [r for r in rounds if any(rule == INFLUENCES for rule, _ in r)]
        for installs in closure:
            assert [name for rule, name in installs if rule == INFLUENCES] == ["add_keys"]
        return rounds, closure

    def test_social_rules_install_per_key(self, monkeypatch):
        """Which install each social rule's application takes: the
        recursive ``influences`` rule's is ``add_keys`` in every
        semi-naive round, round 0 included, and so are ``candidate``'s
        and ``recommend``'s; the exit rule, which swaps the pairs it
        copies, installs rows."""
        program = looped(parse_program(SOCIAL_PROGRAM).program)
        rounds, closure = self._social_installs(monkeypatch, program)
        assert len(closure) > 3
        # round 0 is the one the exit rule fires in
        assert ("influences(A, B) <- follows(B, A).", "add_rows") in closure[0]

    def test_social_closure_installs_per_key(self, monkeypatch):
        """On the closure path the ``influences`` component's round 0
        fires the exit rule alone, and its one closure step installs
        through ``add_keys``."""
        program = parse_program(SOCIAL_PROGRAM).program
        rounds, closure = self._social_installs(monkeypatch, program)
        assert len(closure) == 1
        assert [("influences(A, B) <- follows(B, A).", "add_rows")] in rounds


def _spy_installs(monkeypatch, record):
    """Call ``record(name, pred)`` on every ``Database.add_rows`` and
    ``Database.add_keys`` call, before it runs."""
    for name in ("add_rows", "add_keys"):
        original = getattr(Database, name)

        def spy(db, pred, *args, _name=name, _original=original):
            record(_name, pred)
            return _original(db, pred, *args)

        monkeypatch.setattr(Database, name, spy)



#: Projecting joins over ``follows``, with the head position of the
#: carried value: a key-map probe and scan, the carried value at head
#: position 1, a row-index probe over a scan of rows, and no ``!=``.
PROJECTING_JOINS = (
    (CANDIDATE, 0),
    ("candidate(A, B) <- follows(B, M), follows(M, A), A != B.", 1),
    ("candidate(A, B) <- follows(M, A), follows(B, M), A != B.", 0),
    ("reach(A, B) <- follows(A, M), follows(M, B).", 0),
)

#: Few values, so keys repeat; ``u1`` and ``'u1'`` are one constant
#: spelled two ways, ``1`` and ``1.0`` two constants.
join_values = st.sampled_from(
    [Const("u1"), Const("u1", True), Const("u2"), Const("u3"), Const(1), Const(1.0)]
)


@st.composite
def join_edges(draw):
    """Binary rows with self-loops and 2-cycles, so the ``!=`` discard
    and the derivations it drops are both exercised."""
    pairs = draw(st.lists(st.tuples(join_values, join_values), min_size=1, max_size=24))
    loops = draw(st.lists(join_values, max_size=3))
    back = draw(st.integers(0, len(pairs)))
    return pairs + [(v, v) for v in loops] + [(b, a) for a, b in pairs[:back]]


@given(join_edges(), st.sampled_from(PROJECTING_JOINS),
       st.sampled_from(["stored", "keys", "rows"]))
@settings(max_examples=150, deadline=None)
def test_projecting_join_equals_rows_and_reference(edges, join, source):
    """The key map of a projecting join is the set of the per-row
    closure's rows and of the reference's facts, with the per-row
    derivation count and ``exec_steps`` counts, over the stored map, a
    key-form delta and a delta of rows; it is taken exactly when the
    scanned rows repeat their carried values."""
    src, carried = join
    rule = parse_rule(src)
    plan = compile_rule(rule, first=0)
    shape = specialize.key_map_shape(plan)
    assert shape is not None and shape.carried == carried
    db = Database(Atom("follows", args) for args in edges)
    scanned = list(db.id_rows("follows"))
    overrides = None
    if source == "keys":
        delta = RowBatch("follows", 2)
        delta.extend_keys(db.key_map("follows"))
        overrides = {0: delta}
    elif source == "rows":  # a multiset, spelled as given
        delta = _row_batch(Atom("follows", (Var("X"), Var("Y"))), edges)
        scanned = delta.rows
        overrides = {0: delta}
    runs = []
    for recursive in (None, frozenset({rule.head.pred})):
        seen = []
        runs.append((derive_rows(
            db, plan, overrides=overrides, recursive=recursive,
            steps=lambda counts, rows: seen.append((counts, rows)),
        ), seen))
    (rows, row_steps), (dr, steps) = runs
    assert rows.keys is None
    assert steps == row_steps and dr.count == rows.count == len(rows.rows)
    column = dict((name, pos) for pos, name in plan.steps[0].simple_residuals)
    values = {row[column[shape.carried_var]] for row in scanned}
    assert (dr.keys is not None) == (len(scanned) >= 4 and 2 * len(values) <= len(scanned))
    pairs = set(rows.rows) if dr.keys is None else _as_rows(dr)
    assert pairs == set(rows.rows)
    given_rows = None if overrides is None else {0: list(overrides[0])}
    reference = reference_facts(db, plan, overrides=given_rows)
    assert len(reference) == dr.count
    assert {encode_args(fact.args) for fact in reference} == pairs


set_operands =st.lists(ground_sets | quoted_ground_terms, min_size=1, max_size=4)


@given(set_operands, set_operands)
@settings(max_examples=60, deadline=None)
def test_set_builtins_compiled_equal_reference(left, right):
    """Operands drawn from sets and arbitrary terms (non-sets make the
    built-ins false): every kernel shape and the bound-output shape
    derive the facts the reference executor derives, as printed."""
    edb = [Atom("a", (v,)) for v in left] + [Atom("b", (v,)) for v in right]
    db = Database(edb)
    for src in SET_BUILTIN_RULES:
        rule = parse_rule(src)
        model = facts_of(evaluate(Program([rule]), edb=edb), "r")
        reference = set(printed(reference_facts(db, compile_rule(rule))))
        assert model == reference, src


#: Comparison operands: numbers, plain and quoted strings, compounds
#: and sets, so mixed and non-scalar pairs are common.
numbers = st.integers(-3, 3).map(Const) | st.sampled_from([0.5, -1.25, 2.0]).map(Const)
strings = st.builds(Const, st.sampled_from(["a", "b", "ab", "B"]), st.booleans())
comparison_operands = numbers | strings | quoted_ground_terms

COMPARISONS = ("<", "<=", ">", ">=")


def comparison_programs(op: str, const):
    """``op`` with variable/variable, variable/constant and
    constant/variable sides."""
    x, y = Var("X"), Var("Y")
    a, b = Literal(Atom("a", (x,))), Literal(Atom("b", (y,)))
    return {
        "var/var": Rule(Atom("r", (x, y)), (a, b, Literal(Atom(op, (x, y))))),
        "var/const": Rule(Atom("r", (x,)), (a, Literal(Atom(op, (x, const))))),
        "const/var": Rule(Atom("r", (y,)), (b, Literal(Atom(op, (const, y))))),
    }


def comparison_outcomes(left, right, const):
    """Per shape and operator, for ``evaluate`` (``"compiled"``) and for
    the rule on the reference executor (``"reference"``): the printed
    facts of ``r``, or the message of the evaluation error raised."""
    edb = [Atom("a", (v,)) for v in left] + [Atom("b", (v,)) for v in right]
    db = Database(edb)
    lanes = {
        "compiled": lambda rule: facts_of(
            evaluate(Program([rule]), edb=edb), "r"
        ),
        "reference": lambda rule: set(
            printed(reference_facts(db, compile_rule(rule)))
        ),
    }
    outcomes = {}
    for op in COMPARISONS:
        for shape, rule in comparison_programs(op, const).items():
            for name, lane in lanes.items():
                try:
                    outcome = sorted(lane(rule))
                except EvaluationError as exc:
                    outcome = ("error", str(exc))
                outcomes[op, shape, name] = outcome
    return outcomes


@given(comparison_operands, comparison_operands, comparison_operands)
@settings(max_examples=80, deadline=None)
def test_comparison_lane_equals_reference(left, right, const):
    """One operand per side, so a mixed or non-scalar pair raises the
    same error on the compiled lane and the reference, not just some
    error."""
    outcomes = comparison_outcomes([left], [right], const)
    for op, shape, name in outcomes:
        assert outcomes[op, shape, name] == outcomes[op, shape, "reference"]


@given(
    st.sampled_from([numbers, strings]).flatmap(
        lambda kind: st.tuples(
            st.lists(kind, max_size=5), st.lists(kind, max_size=5), kind
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_comparison_lane_orders_like_the_reference(operands):
    """Many rows of one kind — numbers, or strings of either spelling:
    the same facts on the compiled lane and the reference, and no
    error."""
    outcomes = comparison_outcomes(*operands)
    for op, shape, name in outcomes:
        assert outcomes[op, shape, name] == outcomes[op, shape, "reference"]
        assert outcomes[op, shape, name][:1] != ("error",)


def _closure_with_slow_path(rule_src: str, slow_path):
    """The rule's compiled closure with its comparison slow path
    replaced by ``slow_path``."""
    plan = compile_rule(parse_rule(rule_src))
    template = tuple((VAR, name) for name in specialize.body_variables(plan))
    source, env = specialize._generate(plan, template)
    (name,) = [n for n in env if n.startswith("_uf")]
    env[name] = slow_path
    exec(compile(source, "<test>", "exec"), env)
    return env["_specialized"]


class TestComparisonLane:
    def test_strings_and_numbers_compare_inline(self):
        def slow_path(ins):
            raise AssertionError(f"slow path taken for {ins}")

        db = db_of("a('ab')", "a(b)", "b(b)", "b('c')", "n(1)", "n(2.5)")
        for src, expected in (
            ("r(X, Y) <- a(X), b(Y), X < Y.", 3),
            ("r(X) <- a(X), X >= 'b'.", 1),
            ("r(Y) <- b(Y), 'b' < Y.", 1),
            ("r(X, Y) <- n(X), n(Y), X <= Y.", 3),
        ):
            closure = _closure_with_slow_path(src, slow_path)
            assert len(closure(db, None, None, None, None)) == expected, src

    def test_mixed_kinds_take_the_slow_path(self):
        seen = []
        closure = _closure_with_slow_path(
            "r(X, Y) <- a(X), b(Y), X < Y.", lambda ins: seen.append(ins)
        )
        db = db_of("a(1)", "a(f(b))", "b(b)")
        assert closure(db, None, None, None, None) == []
        assert len(seen) == 2


class TestBatchGroupBy:
    def test_grouping_rule_matches_tuple_executor(self):
        src = """
        item(a, 1). item(a, 2). item(b, 3).
        bag(K, <V>) <- item(K, V).
        """
        program = parse_program(src).program
        (rule,) = [r for r in program.rules if r.is_grouping()]
        edb = Database(r.head for r in program.rules if r.is_fact())
        bag = facts_of(evaluate(program), "bag")
        assert bag == set(map(format_atom, grouping_oracle(rule, edb)))
        assert len(bag) == 2

    def test_grouping_rule_empty_body_is_no_facts(self):
        rule = parse_rule("bag(K, <V>) <- item(K, V).")
        assert list(apply_grouping_rule(rule, Database())) == []


class TestExecutorSelection:
    """``evaluate(executor=)`` is accepted and ignored, like
    ``workers=``: every name it accepts runs the compiled lane."""

    SRC = "e(1). e(2). p(X) <- e(X), X > 1."

    def test_known_executors(self):
        expected = facts_of(run(self.SRC), "p")
        assert expected == {"p(2)"}
        for name in ("batch", "tuple"):
            assert facts_of(run(self.SRC, executor=name), "p") == expected

    def test_default_is_batch(self):
        # the compiled closures report one exec_steps event per run
        metrics = MetricsCollector()
        run(self.SRC, metrics=metrics)
        assert metrics.counters["batch_steps"] == 2

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run(self.SRC, executor="vectorized")

    def test_unknown_executor_rejected_before_loading(self):
        # a facts-only program runs no rule body, so only an up-front
        # check can catch the name
        program = parse_program("p(a). p(b).").program
        assert len(evaluate(program).database) == 2
        with pytest.raises(ValueError, match="unknown executor"):
            evaluate(program, executor="bogus")

    @pytest.mark.usefixtures("no_reference")
    def test_evaluate_executor_knob(self):
        assert facts_of(run(self.SRC, executor="tuple"), "p") == {"p(2)"}

    def test_no_executor_parameter_below_evaluate(self):
        for entry in (EvalContext, enumerate_bindings, derive_rows, derive_facts):
            assert "executor" not in inspect.signature(entry).parameters
        assert "executor" not in EvalContext.__slots__


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
        facts = derive_facts(db, plan, steps=metrics.on_exec_steps)
        assert metrics.counters["batch_steps"] == 2
        assert metrics.counters["batch_peak"] >= 1
        assert facts == reference_facts(db, plan)

    def test_empty_plan_yields_seed_binding(self):
        # a fact rule has no steps: exactly one (empty) binding
        plan = compile_rule(parse_rule("p(1)."))
        fast = list(enumerate_bindings(Database(), plan))
        assert len(fast) == 1 == len(list(run_plan_tuple(Database(), plan)))
        assert fast[0] is not None
        assert EMPTY_BINDING.materialize() == {}

    def test_derive_rows_is_total(self):
        """Every headed plan derives rows — fast heads straight from the
        compiled closure, a plan with no head template by instantiating
        and encoding each binding's head — and the rows decode to the
        reference's printed facts."""
        db = db_of("p('a')", "p(b)", "p(2)")
        for src in ("s(f(X)) <- p(X).", "r('a', X) <- p(X)."):
            plan = compile_rule(parse_rule(src))
            dr = derive_rows(db, plan)
            decode = dr.decode or decode_row
            got = printed(Atom(dr.pred, decode(row)) for row in dr.rows)
            assert got == printed(reference_facts(db, plan))
            assert len(got) == 3
        assert "r('a', a)" in got
        assert specialized_plan(compile_rule(parse_rule("s(f(X)) <- p(X).")))\
            .templates["head"] is None
        plan = compile_rule(parse_rule("t(X, Y) <- p(X), p(Y)."))
        assert derive_rows(db, plan).decode is None
        # a grouping rule derives its pre-group head: one row per
        # binding, a non-fast head instantiated and outside U dropped
        db = db_of("e(a, 1)", "e(a, 2)", "e(b, 'x')")
        for src, expected in (
            ("g(K, <V>) <- e(K, V).", ["g(a, 1)", "g(a, 2)", "g(b, x)"]),
            ("g(V * 2, <K>) <- e(K, V).", ["g(2, a)", "g(4, a)"]),
        ):
            dr = derive_rows(db, compile_rule(parse_rule(src)))
            decode = dr.decode or decode_row
            assert printed(
                Atom(dr.pred, decode(row)) for row in dr.rows
            ) == expected


class TestFixedProgramDifferentials:
    """Fixed programs against the top-down oracle
    (:func:`tests.helpers.topdown_idb_facts`)."""

    TC = """
    e(1, 2). e(2, 3). e(3, 4). e(2, 4).
    t(X, Y) <- e(X, Y).
    t(X, Y) <- e(X, Z), t(Z, Y).
    """

    def test_transitive_closure(self):
        program = parse_program(self.TC).program
        assert idb_facts(program) == topdown_idb_facts(program)
        assert len(idb_facts(program)) == 6

    def test_negation_program(self):
        src = """
        node(1). node(2). node(3). edge(1, 2).
        linked(X) <- edge(X, Y).
        linked(Y) <- edge(X, Y).
        isolated(X) <- node(X), ~linked(X).
        """
        program = parse_program(src).program
        assert idb_facts(program) == topdown_idb_facts(program)
        assert facts_of(run(src), "isolated") == {"isolated(3)"}

    def test_derived_facts_spell_alike_on_both_executors(self):
        """The compiled lane and the reference executor bind body
        variables to class representatives, so a derived fact prints
        the same whichever ran; rule constants and EDB facts keep their
        spelling."""
        src = """
        p('a'). item('a', 'x'). item(b, 'y').
        q(X) <- p(X). s(f(X)) <- p(X). bag(K, <V>) <- item(K, V).
        """
        program = parse_program(src).program
        session = LDL(src)
        db = session.model().database
        for rule in program.proper_rules():
            if rule.is_grouping():
                expected = grouping_oracle(rule, db)
                got = apply_grouping_rule(rule, db)
            else:
                plan = compile_rule(rule)
                expected = reference_facts(db, plan)
                got = derive_facts(db, plan)
            assert printed(got) == printed(expected), rule
        model = [format_atom(a) for a in db.sorted_atoms()]
        assert {
            "p('a')", "item(b, 'y')", "q(a)", "s(f(a))", "bag(a, {x})",
            "bag(b, {y})",
        } <= set(model)
        answers = session.query_magic("? s(X).").answer_atoms()
        assert [format_atom(a) for a in answers] == ["s(f(a))"]


class TestReferenceOnlyWhereAsked:
    """Every engine path — evaluation, explanation, on-demand magic,
    maintenance and the well-founded reducts — compiles; the reference
    executor runs only where a test calls it."""

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

    def test_only_the_exec_package_references_the_reference(self):
        """No module under ``src/repro`` but the reference's own and the
        ``exec`` package's re-export names ``run_plan_tuple``."""
        import repro

        root = Path(repro.__file__).parent
        allowed = {"engine/exec/tuplewise.py", "engine/exec/__init__.py"}
        naming = {
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if "run_plan_tuple" in path.read_text(encoding="utf-8")
        }
        assert naming == allowed


# -- one compiled shape against the reference, rule by rule -----------------


def _binding_multiset(bindings):
    """Bindings as printed, so a spelling difference counts too."""
    return Counter(
        frozenset((name, format_term(value)) for name, value in b.items())
        for b in bindings
    )


def _grouped(pairs):
    """Encoded ``(first, second)`` pairs as ``{first: [second, ...]}``."""
    groups = defaultdict(list)
    for args in pairs:
        first, second = encode_args(args)
        groups[first].append(second)
    return groups


def _row_batch(atom, tuples):
    batch = RowBatch(atom.pred, len(atom.args))
    for args in tuples:
        batch.add(encode_args(args), args)
    return batch


def _check_plan(db, plan, binding=None, overrides=None, negation_db=None):
    """Run ``plan``'s compiled closures and the reference executor.  As
    printed multisets, the variable rows decoded to bindings must equal
    the reference's bindings, and a seedless plan's ``derive_rows``
    (its head template's rows, or each binding's head instantiated when
    it has none) decoded the reference's facts.  Every plan compiles,
    head-seeded ones included; the head template exists exactly for
    seedless plans with a fast head."""
    spec = specialized_plan(plan)
    base = binding or {}
    reference = list(run_plan_tuple(
        db, plan, binding=binding, overrides=overrides,
        negation_db=negation_db,
    ))
    rows = spec.run("vars", db, base, overrides, negation_db, None)
    assert _binding_multiset(spec.binder()(rows, base)) == _binding_multiset(
        reference
    )
    if plan.head is None:
        return
    has_template = spec.templates["head"] is not None
    assert has_template == (plan.head.fast and not plan.initially_bound)
    if plan.initially_bound:
        return  # derive_rows runs seedless plans only
    expected = Counter(
        format_atom(fact) for fact in map(plan.instantiate_head, reference)
        if fact is not None
    )
    dr = derive_rows(db, plan, overrides=overrides, negation_db=negation_db)
    decode = dr.decode or decode_row
    assert Counter(
        format_atom(Atom(dr.pred, decode(row))) for row in dr.rows
    ) == expected


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
