"""Tests for the fixpoint operators (repro.engine.fixpoint)."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.engine import evaluate, fixpoint
from repro.engine.database import Database
from repro.engine.exec import specialize
from repro.engine.fixpoint import naive_fixpoint, seminaive_fixpoint
from repro.engine.relation import KeyMapRelation, encode_args
from repro.observe import TraceRecorder
from repro.parser import parse_atom, parse_rules
from repro.program.rule import Atom
from repro.terms.pretty import format_atom
from repro.terms.term import Const

from tests.helpers import looped


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


# -- the key-map path of linear recursion ----------------------------------

#: Linear recursive closures over ``e``: ``influences`` carries column
#: 0 of its delta from a scan keyed on column 1, left-linear ``l`` the
#: same with the probe on ``e``'s column 0, right-linear ``r`` carries
#: column 1 into head position 1, and ``b`` has both linear rules, so
#: its key maps install at both head positions into one stored map.
LINEAR = parse_rules(
    """
    influences(A, B) <- e(B, A).
    influences(A, B) <- influences(A, C), e(B, C).
    l(X, Y) <- e(X, Y).
    l(X, Y) <- l(X, Z), e(Z, Y).
    r(X, Y) <- e(X, Y).
    r(X, Y) <- e(X, Z), r(Z, Y).
    b(X, Y) <- e(X, Y).
    b(X, Y) <- b(X, Z), e(Z, Y).
    b(X, Y) <- e(X, Z), b(Z, Y).
    """
)
#: The same rules evaluated through the semi-naive loop alone: its
#: key-map rounds are what the tests below compare.
LOOPED = looped(LINEAR)

#: Graph nodes: ``'u1'`` is spelled beside ``u1`` and ``1.0`` beside
#: ``1``, each pair one equality class.
NODES = [
    Const("u1"), Const("u1", True), Const("u2"), Const("u3"), Const("u4"),
    Const(1), Const(1.0), Const(2), Const("u5"), Const("u6"),
]
nodes = st.sampled_from(NODES)


@st.composite
def graphs(draw):
    """Edges mixing dense fan-in and fan-out, a chain, cycles and
    self-loops (random pairs over few nodes)."""
    edges = draw(st.lists(st.tuples(nodes, nodes), max_size=14))
    hub = draw(nodes)
    fan = draw(st.lists(nodes, max_size=6))
    edges += [(node, hub) for node in fan] + [(hub, node) for node in fan]
    length = draw(st.integers(0, 8))
    edges += [(Const(f"c{i}"), Const(f"c{i + 1}")) for i in range(length)]
    if length and draw(st.booleans()):
        edges.append((Const(f"c{length}"), Const("c0")))  # close the cycle
    return [Atom("e", pair) for pair in edges]


class _Observed:
    """Every observable of one run the key-map path must not change."""

    def __init__(self):
        self.fired = []
        self.steps = []
        self.derived = set()

    def on_rule_fired(self, rule, derived, seconds):
        self.fired.append((str(rule), derived))

    def on_exec_steps(self, counts, rows):
        self.steps.append((counts, rows))

    def on_fact_derived(self, fact, rule):
        self.derived.add((format_atom(fact), str(rule)))


def _observed_run(program, edb):
    """The printed model, the per-SCC fixpoint stats and the run's
    observed events, plus the predicates key maps were installed into."""
    observed = _Observed()
    installs = []
    install = fixpoint.install_keys

    def counting(db, dr):
        installs.append(dr.pred)
        return install(db, dr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixpoint, "install_keys", counting)
        result = evaluate(program, edb=edb, hooks=observed)
    model = sorted(format_atom(a) for a in result.database.atoms())
    stats = [
        (sorted(scc.preds), scc.fixpoint)
        for layer in result.layer_stats for scc in layer.sccs
    ]
    return model, stats, observed, installs


def _per_row_run(program, edb):
    """:func:`_observed_run` with the key-map shape check off: every
    plan takes the per-row path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specialize.SpecializedPlan, "key_map_shape", lambda self: None)
        return _observed_run(program, edb)


def _id_facts(atoms, preds):
    """Facts of ``preds`` as (predicate, ID row) pairs: equality classes,
    whatever their spelling."""
    return {(a.pred, encode_args(a.args)) for a in atoms if a.pred in preds}


def _topdown_facts(program, edb, preds):
    """The tabled top-down oracle's answers for ``preds``, asked
    all-free, as :func:`_id_facts`.  They are compared in ID space: the
    oracle spells a bound variable as the first spelling it met
    (``influences(u1, 'u1')`` where ``evaluate`` prints ``influences(u1,
    u1)``), a difference of the oracle's, not of either path."""
    from repro.engine.topdown import TopDownEvaluator
    from repro.program.rule import Query
    from repro.terms.term import Var

    evaluator = TopDownEvaluator(program, edb=edb)
    answers = []
    for pred in sorted(preds):
        answers += evaluator.query(Query(Atom(pred, (Var("X"), Var("Y")))))
    return _id_facts(answers, preds)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_key_map_path_equals_per_row_path(edb):
    """Both paths give the same printed model, the same fixpoint stats,
    the same ``rule_fired`` and ``exec_steps`` counts per firing, and
    the same derived facts; the model's facts are the top-down
    oracle's."""
    model, stats, observed, installs = _observed_run(LOOPED, edb)
    rows_model, rows_stats, rows_observed, rows_installs = _per_row_run(LOOPED, edb)
    event(f"key maps installed: {bool(installs)}")
    assert not rows_installs
    assert model == rows_model
    assert stats == rows_stats
    assert observed.fired == rows_observed.fired
    assert observed.steps == rows_observed.steps
    assert observed.derived == rows_observed.derived
    idb = {"influences", "l", "r", "b"}
    result = evaluate(LINEAR, edb=edb)  # influences, l and r as closures
    assert sorted(format_atom(a) for a in result.database.atoms()) == model
    assert _id_facts(result.database.atoms(), idb) == _topdown_facts(
        LINEAR, edb, idb
    )


def test_dense_graph_takes_the_key_map_path():
    edb = [
        Atom("e", (Const(f"u{i}"), Const(f"u{(i * 3 + k) % 12}")))
        for i in range(12) for k in range(3)
    ]
    model, stats, _observed, installs = _observed_run(LOOPED, edb)
    assert set(installs) == {"influences", "l", "r", "b"}
    assert (model, stats) == _per_row_run(LOOPED, edb)[:2]


def test_closure_query_builds_no_row_index_on_its_answers():
    """A binary relation is its key map and nothing else: the query's
    first probe reads a stored value set, so after the closure's model
    and one bound query the answer relation has built no row-form
    index, and the fixpoint keeps no second copy of its pairs."""
    from repro.api import LDL

    follows = " ".join(
        f"follows(u{i}, u{(i * 3 + k) % 12})." for i in range(12) for k in range(3)
    )
    session = LDL(
        "influences(A, B) <- follows(B, A).\n"
        "influences(A, B) <- influences(A, C), follows(B, C).\n" + follows
    )
    installs = []
    install = fixpoint.install_keys

    def counting(db, dr):
        installs.append(dr.pred)
        return install(db, dr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixpoint, "install_keys", counting)
        session.model()
    assert installs
    assert session.query("? influences(u1, X).")
    rel = session.model().database.relation("influences")
    assert isinstance(rel, KeyMapRelation)
    assert rel._id_indexes == {}
    assert not hasattr(rel, "_rows")
    assert not hasattr(fixpoint, "KnownValues")
    assert not hasattr(fixpoint, "_record")


#: Two recursive rules with one head, each of the key-map shape.
MIXED = parse_rules(
    """
    influences(A, B) <- follows(B, A).
    influences(A, B) <- likes(B, A).
    influences(A, B) <- influences(A, C), follows(B, C).
    influences(A, B) <- influences(A, C), likes(B, C).
    """
)


def _diamonds(count: int, width: int = 4) -> list[Atom]:
    """Diamonds in series, ``hub -> width nodes -> next hub``.  A
    round's delta is the pairs at one distance: at one parity of the
    distance they repeat their carried values (the key-map path), at
    the other they barely do (the per-row path), so the rounds
    alternate.  Fan-out edges are ``follows``, fan-in edges ``likes``;
    a ``likes`` self-loop on one middle node per diamond re-derives
    each round's pairs ending there in the next round, so a key-map
    round re-derives pairs a per-row round installed."""
    facts = []
    for d in range(count):
        hub, nxt = Const(f"h{d}"), Const(f"h{d + 1}")
        for i in range(width):
            mid = Const(f"m{d}_{i}")
            facts.append(Atom("follows", (mid, hub)))
            facts.append(Atom("likes", (nxt, mid)))
        facts.append(Atom("likes", (Const(f"m{d}_0"), Const(f"m{d}_0"))))
    return facts


def test_rounds_alternating_between_paths_keep_known_values_in_step():
    """The per-row rounds install into the relation the key-map rounds
    subtract from: the model, stats and derived facts equal the
    per-row-only run's only if the stored key map saw every install,
    whichever rule and path made it."""
    edb = _diamonds(4)
    paths = []
    derive = fixpoint.derive_rows

    def tracked(*args, **kwargs):
        dr = derive(*args, **kwargs)
        if kwargs.get("overrides") is not None:  # a round after round 0
            paths.append(dr.keys is not None)
        return dr

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixpoint, "derive_rows", tracked)
        model, stats, observed, installs = _observed_run(MIXED, edb)
    # both rules take one round's path, and the paths alternate
    rounds = paths[::2]
    assert paths[1::2] == rounds
    assert "KrKrK" in "".join("K" if keyed else "r" for keyed in rounds)
    rows_model, rows_stats, rows_observed, _ = _per_row_run(MIXED, edb)
    assert model == rows_model
    assert stats == rows_stats
    assert observed.fired == rows_observed.fired
    assert observed.derived == rows_observed.derived


#: Left- and right-linear rules with one head: their key maps carry
#: head positions 0 and 1, and both install into the one stored map.
BOTH = parse_rules(
    """
    b(X, Y) <- e(X, Y).
    b(X, Y) <- b(X, Z), e(Z, Y).
    b(X, Y) <- e(X, Z), b(Z, Y).
    """
)


def test_key_maps_at_both_head_positions_share_installs():
    edb = [
        Atom("e", (Const(f"u{i}"), Const(f"u{(2 * i + j) % 30}")))
        for i in range(30) for j in range(2)
    ]
    model, stats, observed, installs = _observed_run(BOTH, edb)
    assert installs
    rows_model, rows_stats, rows_observed, _ = _per_row_run(BOTH, edb)
    assert (model, stats) == (rows_model, rows_stats)
    assert observed.fired == rows_observed.fired


def test_key_map_path_runs_with_a_trace_recorder():
    """Observing does not change what runs: a traced run installs key
    maps, and records one ``fact_derived`` per fresh fact."""
    edb = _diamonds(4)
    recorder = TraceRecorder()
    installs = []
    install = fixpoint.install_keys

    def counting(db, dr):
        installs.append(dr.pred)
        return install(db, dr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixpoint, "install_keys", counting)
        result = evaluate(MIXED, edb=edb, hooks=recorder)
    assert installs
    derived = [e for e in recorder.events if e.kind == "fact_derived"]
    assert len(derived) == result.database.count("influences")
