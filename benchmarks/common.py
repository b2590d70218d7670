"""Shared workload runners for the benchmark suite.

Each ``eNN_*`` function returns a list of *cases*; a case is a dict
with ``workload`` (description), ``strategy`` (what is being measured),
``run`` (zero-argument callable doing the work), and ``metric``
(callable mapping the run's return value to a facts-derived count).
``benchmarks/harness.py`` times every case and prints one table per
experiment; the ``bench_eNN_*.py`` modules wrap the same cases with
pytest-benchmark.
"""

from __future__ import annotations

from typing import Callable

from repro.engine import evaluate
from repro.lps import LPSProgram, LPSRule, Quantifier, evaluate_lps, evaluate_translated
from repro.magic import evaluate_magic
from repro.parser import parse_atom, parse_program, parse_query, parse_rules
from repro.program.rule import Atom, Literal
from repro.terms.term import Var
from repro.transform import compile_ldl15, eliminate_negation
from repro.workloads import (
    BOOK_DEAL_PROGRAM,
    BOOK_PAIR_PROGRAM,
    ORDERED_SUM_PROGRAM,
    SUPPLIER_PROGRAM,
    TC_PROGRAM,
    TC_SCOPED_PROGRAM,
    bom,
    books,
    chain_family,
    generation_family,
    supplies,
    tree_family,
)

ANCESTOR_RULES = """
anc(X, Y) <- parent(X, Y).
anc(X, Y) <- parent(X, Z), anc(Z, Y).
"""

SG_RULES = """
sg(X, Y) <- siblings(X, Y).
sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
"""

YOUNG_RULES = SG_RULES + """
a(X, Y) <- p(X, Y).
a(X, Y) <- a(X, Z), a(Z, Y).
has_desc(X) <- a(X, _).
young(X, <Y>) <- sg(X, Y), ~has_desc(X).
"""


def case(workload: str, strategy: str, run: Callable, metric: Callable) -> dict:
    return {
        "workload": workload,
        "strategy": strategy,
        "run": run,
        "metric": metric,
    }


def _eval_case(workload, program, edb, strategy):
    def run():
        # a fresh collector per run: the harness reads per-phase
        # (plan/match/grouping) and per-layer timings off the result.
        from repro.observe import MetricsCollector

        return evaluate(
            program, edb=edb, strategy=strategy, metrics=MetricsCollector()
        )

    return case(workload, strategy, run, lambda r: r.total_facts)


def _magic_case(workload, program, edb, query):
    def run():
        return evaluate_magic(program, query, edb=edb)

    return case(workload, "magic", run, lambda r: r.total_facts)


# -- E1: naive vs semi-naive on transitive closure -------------------------

def _seminaive_loop_case(workload, program, edb):
    """The semi-naive loop itself (``seminaive_fixpoint``) over the
    loaded base facts: ``evaluate(strategy="seminaive")`` runs the
    linear ``anc`` closure by reachability instead (the ``closure``
    row)."""
    from types import SimpleNamespace

    from repro.engine.compiled import base_database, compile_program
    from repro.engine.context import EvalContext
    from repro.engine.fixpoint import seminaive_fixpoint
    from repro.observe import MetricsCollector

    rules = program.proper_rules()
    plans = compile_program(program).plans  # shared, as evaluate's are

    def run():
        db = base_database(program, edb)
        metrics = MetricsCollector()
        ctx = EvalContext(db, plans, metrics=metrics)
        stats = seminaive_fixpoint(db, rules, ctx)
        return SimpleNamespace(
            total_facts=len(db),
            total_iterations=stats.iterations,
            total_firings=stats.rule_firings,
            metrics=metrics,
        )

    return case(workload, "seminaive", run, lambda r: r.total_facts)


def e01_ancestor() -> list[dict]:
    cases = []
    program = parse_rules(ANCESTOR_RULES)
    for workload, edb in (
        *((f"chain n={n}", chain_family(n)) for n in (32, 64, 128)),
        ("tree d=6 f=2", tree_family(depth=6, fanout=2)),
    ):
        cases.append(_eval_case(workload, program, edb, "naive"))
        cases.append(_seminaive_loop_case(workload, program, edb))
        closure = _eval_case(workload, program, edb, "seminaive")
        closure["strategy"] = "closure"
        cases.append(closure)
    return cases


# -- E2: bound ancestor query, full bottom-up vs magic ----------------------

def e02_magic_ancestor() -> list[dict]:
    cases = []
    program = parse_rules(ANCESTOR_RULES)
    for chains in (2, 8, 32):
        edb = []
        for c in range(chains):
            edb.extend(chain_family(48, prefix=f"c{c}_"))
        query = parse_query("? anc(c0_0, X).")
        workload = f"{chains} chains x 48"
        cases.append(_eval_case(workload, program, edb, "seminaive"))
        cases.append(_magic_case(workload, program, edb, query))
    return cases


# -- E3: same generation, bottom-up vs magic -------------------------------

def e03_same_generation() -> list[dict]:
    cases = []
    program = parse_rules(SG_RULES)
    for generations, width in ((4, 6), (6, 8)):
        edb = generation_family(generations, width)
        workload = f"gens={generations} width={width}"
        query = parse_query(f"? sg(g_{generations - 1}_0, Y).")
        cases.append(_eval_case(workload, program, edb, "seminaive"))
        cases.append(_magic_case(workload, program, edb, query))
    return cases


# -- E4: the young program (negation + grouping + magic) --------------------

def e04_young() -> list[dict]:
    cases = []
    program, _ = parse_program(YOUNG_RULES)
    for generations, width in ((4, 4), (5, 6)):
        edb = generation_family(generations, width)
        workload = f"gens={generations} width={width}"
        query = parse_query(f"? young(g_{generations - 1}_0, S).")
        cases.append(_eval_case(workload, program, edb, "seminaive"))
        cases.append(_magic_case(workload, program, edb, query))
    return cases


# -- E5: grouping cost --------------------------------------------------------

def e05_grouping() -> list[dict]:
    cases = []
    program = parse_rules(SUPPLIER_PROGRAM)
    for suppliers, per in ((50, 10), (200, 10), (50, 80)):
        edb = supplies(suppliers, per, seed=1)
        workload = f"{suppliers} suppliers x {per} parts"
        cases.append(_eval_case(workload, program, edb, "seminaive"))
    return cases


# -- E6: parts explosion, three encodings -----------------------------------

def e06_parts_explosion() -> list[dict]:
    cases = []
    paper_facts, _ = bom(depth=2, fanout=2, seed=7)
    cases.append(
        _eval_case("7 parts (paper tc)", parse_rules(TC_PROGRAM), paper_facts, "seminaive")
    )
    for depth, fanout in ((2, 2), (3, 2)):
        facts, expected = bom(depth=depth, fanout=fanout, seed=7)
        workload = f"{len(expected)} parts"
        scoped = parse_rules(TC_SCOPED_PROGRAM)
        ordered = parse_rules(ORDERED_SUM_PROGRAM)
        cases.append(
            case(
                workload,
                "scoped-tc",
                lambda p=scoped, f=facts: evaluate(p, edb=f),
                lambda r: r.total_facts,
            )
        )
        cases.append(
            case(
                workload,
                "ordered-sum",
                lambda p=ordered, f=facts: evaluate(p, edb=f),
                lambda r: r.total_facts,
            )
        )
    return cases


# -- E7: negation vs its grouping encoding (Section 3.3) ---------------------

def e07_neg_to_grouping() -> list[dict]:
    src = ANCESTOR_RULES + """
    person(X) <- parent(X, _).
    excl(X, Y, Z) <- anc(X, Y), person(Z), ~anc(X, Z).
    """
    cases = []
    for n in (12, 24):
        edb = chain_family(n)
        program = parse_rules(src)
        positive = eliminate_negation(program)
        workload = f"chain n={n}"
        cases.append(_eval_case(workload, program, edb, "seminaive"))
        cases.append(
            case(
                workload,
                "neg-as-grouping",
                lambda p=positive, f=edb: evaluate(p, edb=f),
                lambda r: r.total_facts,
            )
        )
    return cases


# -- E8: LDL1.5 head terms vs handwritten LDL1 -------------------------------

def _teaching_facts(teachers: int, students: int, days: int) -> list[Atom]:
    from repro.terms.term import Const

    facts = []
    for t in range(teachers):
        for s in range(students):
            facts.append(
                Atom(
                    "r",
                    (
                        Const(f"t{t}"),
                        Const(f"s{s}"),
                        Const(f"c{(t + s) % 7}"),
                        Const(f"d{(t * s) % days}"),
                    ),
                )
            )
    return facts


LDL15_TEACHING = "out(T, <S>, <D>) <- r(T, S, C, D)."

HANDWRITTEN_TEACHING = """
out_s(T, <S>) <- r(T, S, C, D).
out_d(T, <D>) <- r(T, S, C, D).
out(T, SS, DS) <- out_s(T, SS), out_d(T, DS).
"""


def e08_head_terms() -> list[dict]:
    cases = []
    for teachers, students in ((20, 20), (40, 40)):
        edb = _teaching_facts(teachers, students, days=5)
        workload = f"{teachers}x{students} teaching facts"
        compiled = compile_ldl15(parse_rules(LDL15_TEACHING))
        handwritten = parse_rules(HANDWRITTEN_TEACHING)
        cases.append(
            case(
                workload,
                "ldl15-compiled",
                lambda p=compiled, f=edb: evaluate(p, edb=f),
                lambda r: r.total_facts,
            )
        )
        cases.append(
            case(
                workload,
                "handwritten",
                lambda p=handwritten, f=edb: evaluate(p, edb=f),
                lambda r: r.total_facts,
            )
        )
    return cases


# -- E9: LPS direct vs Theorem-3 translation ---------------------------------

def _lps_disj() -> LPSProgram:
    return LPSProgram(
        [
            LPSRule(
                parse_atom("disj(X, Y)"),
                [Quantifier("Ex", "X"), Quantifier("Ey", "Y")],
                [Literal(Atom("!=", (Var("Ex"), Var("Ey"))))],
            )
        ]
    )


def _lps_facts(sets: int) -> list[Atom]:
    return [
        parse_atom(f"s({{{i}, {i + 1}, {i + 2}}})") for i in range(sets)
    ]


def e09_lps() -> list[dict]:
    cases = []
    program = _lps_disj()
    for sets in (6, 12):
        facts = _lps_facts(sets)
        workload = f"{sets} three-element sets"
        cases.append(
            case(
                workload,
                "lps-direct",
                lambda f=facts: evaluate_lps(program, f),
                lambda db: len(db),
            )
        )
        cases.append(
            case(
                workload,
                "ldl1-translated",
                lambda f=facts: evaluate_translated(program, f),
                lambda r: r.total_facts,
            )
        )
    return cases


# -- E10: set enumeration (book deals) ---------------------------------------

def e10_book_deal() -> list[dict]:
    cases = []
    for count, program_src, label in (
        (40, BOOK_PAIR_PROGRAM, "pairs"),
        (120, BOOK_PAIR_PROGRAM, "pairs"),
        (25, BOOK_DEAL_PROGRAM, "triples"),
    ):
        edb = books(count, seed=3)
        program = parse_rules(program_src)
        cases.append(
            case(
                f"{count} books ({label})",
                label,
                lambda p=program, f=edb: evaluate(p, edb=f),
                lambda r: r.total_facts,
            )
        )
    return cases


# -- E11: stratification and layering independence ---------------------------

def _layered_program(layers: int) -> str:
    rules = ["base0(X) <- src(X)."]
    for i in range(1, layers):
        rules.append(f"base{i}(X) <- base{i - 1}(X), ~skip{i - 1}(X).")
        rules.append(f"skip{i}(X) <- base{i}(X), X < 0.")
    return "\n".join(rules)


def e11_layering() -> list[dict]:
    from repro.program.stratify import linear_layerings, stratify

    cases = []
    for layers in (8, 32):
        src = _layered_program(layers)
        program = parse_rules(src)
        cases.append(
            case(
                f"{layers} strata",
                "stratify",
                lambda p=program: stratify(p),
                lambda layering: len(layering),
            )
        )
    src = _layered_program(6)
    program = parse_rules(src)
    edb = [parse_atom(f"src({i})") for i in range(50)]

    def run_alternatives():
        results = [
            evaluate(program, edb=edb, layering=layering).database
            for layering in linear_layerings(program, limit=4)
        ]
        assert all(db == results[0] for db in results)
        return results[0]

    cases.append(
        case("6 strata, 4 layerings", "theorem2-check", run_alternatives, len)
    )
    return cases


EXPERIMENTS: dict[str, Callable[[], list[dict]]] = {
    "E1": e01_ancestor,
    "E2": e02_magic_ancestor,
    "E3": e03_same_generation,
    "E4": e04_young,
    "E5": e05_grouping,
    "E6": e06_parts_explosion,
    "E7": e07_neg_to_grouping,
    "E8": e08_head_terms,
    "E9": e09_lps,
    "E10": e10_book_deal,
    "E11": e11_layering,
}

EXPERIMENT_TITLES = {
    "E1": "naive vs semi-naive bottom-up (ancestor, Section 1)",
    "E2": "bound queries: full bottom-up vs magic (Section 6)",
    "E3": "same-generation: bottom-up vs magic (Section 6 rules 3-4)",
    "E4": "young: negation + grouping + magic (Section 6 running example)",
    "E5": "set grouping cost (Section 1 supplier example)",
    "E6": "parts explosion encodings (Section 1 tc program)",
    "E7": "negation vs negation-as-grouping (Section 3.3)",
    "E8": "LDL1.5 head terms: compiled vs handwritten (Section 4.2)",
    "E9": "LPS: direct interpreter vs Theorem-3 translation (Section 5)",
    "E10": "set enumeration: book deals (Section 1)",
    "E11": "layering: admissibility check and Theorem 2 (Section 3.1)",
}


# -- E12: top-down tabling vs magic vs full bottom-up -------------------------

def e12_topdown() -> list[dict]:
    from repro.engine.topdown import evaluate_topdown

    cases = []
    program = parse_rules(ANCESTOR_RULES)
    for chains in (4, 16):
        edb = []
        for c in range(chains):
            edb.extend(chain_family(40, prefix=f"c{c}_"))
        query = parse_query("? anc(c0_0, X).")
        workload = f"{chains} chains x 40"
        cases.append(_eval_case(workload, program, edb, "seminaive"))
        cases.append(_magic_case(workload, program, edb, query))
        cases.append(
            case(
                workload,
                "topdown-tabled",
                lambda p=program, f=edb, q=query: evaluate_topdown(p, q, edb=f),
                lambda pair: pair[1].answers,
            )
        )
    young_program, _ = parse_program(YOUNG_RULES)
    edb = generation_family(5, 5)
    query = parse_query("? young(g_4_0, S).")
    workload = "young gens=5 width=5"
    cases.append(_eval_case(workload, young_program, edb, "seminaive"))
    cases.append(_magic_case(workload, young_program, edb, query))
    cases.append(
        case(
            workload,
            "topdown-tabled",
            lambda p=young_program, f=edb, q=query: evaluate_topdown(p, q, edb=f),
            lambda pair: pair[1].answers,
        )
    )
    return cases


# -- E13: Generalized vs Supplementary Magic Sets ----------------------------

def e13_supplementary() -> list[dict]:
    from repro.magic import magic_rewrite, supplementary_rewrite

    def magic_with(rewrite, program, edb, query):
        def run():
            return evaluate_magic(program, query, edb=edb, rewrite=rewrite)

        return run

    cases = []
    program = parse_rules(SG_RULES)
    for generations, width in ((5, 6), (6, 10)):
        edb = generation_family(generations, width)
        query = parse_query(f"? sg(g_{generations - 1}_0, Y).")
        workload = f"sg gens={generations} width={width}"
        cases.append(
            case(
                workload,
                "generalized-magic",
                magic_with(magic_rewrite, program, edb, query),
                lambda r: r.stats.saturation.rule_firings,
            )
        )
        cases.append(
            case(
                workload,
                "supplementary",
                magic_with(supplementary_rewrite, program, edb, query),
                lambda r: r.stats.saturation.rule_firings,
            )
        )
    return cases


EXPERIMENTS["E12"] = e12_topdown
EXPERIMENTS["E13"] = e13_supplementary
EXPERIMENT_TITLES["E12"] = "top-down tabling vs magic vs bottom-up (Section 1 PROLOG contrast)"
EXPERIMENT_TITLES["E13"] = "Generalized vs Supplementary Magic Sets (Section 6 footnote 4)"


# -- E14: sip strategy ablation ----------------------------------------------

def e14_sips() -> list[dict]:
    from repro.magic import bound_first_sip, magic_rewrite

    def magic_with_sip(strategy, program, edb, query):
        def run():
            return evaluate_magic(
                program,
                query,
                edb=edb,
                rewrite=lambda p, q: magic_rewrite(p, q, sip_strategy=strategy),
            )

        return run

    # written order is adversarial: the recursive literal precedes the
    # literal that would bind its first argument.
    adversarial = """
    t(X, Y) <- t(Z, Y), e(X, Z).
    t(X, Y) <- e(X, Y).
    """
    cases = []
    program = parse_rules(adversarial)
    for chains in (4, 16):
        edb = []
        for c in range(chains):
            for i in range(30):
                edb.append(parse_atom(f"e(c{c}_{i}, c{c}_{i + 1})"))
        query = parse_query("? t(c0_0, X).")
        workload = f"{chains} chains x 30"
        cases.append(
            case(
                workload,
                "left-to-right-sip",
                magic_with_sip(None, program, edb, query),
                lambda r: r.total_facts,
            )
        )
        cases.append(
            case(
                workload,
                "bound-first-sip",
                magic_with_sip(bound_first_sip, program, edb, query),
                lambda r: r.total_facts,
            )
        )
    return cases


EXPERIMENTS["E14"] = e14_sips
EXPERIMENT_TITLES["E14"] = "sip strategies: left-to-right vs bound-first (Section 6 sips)"


# -- E15: join planning — static heuristic vs cardinality-aware ---------------

def e15_planner() -> list[dict]:
    from repro.engine.database import Database
    from repro.engine.exec import derive_facts
    from repro.engine.plan import compile_rule
    from repro.terms.term import Const

    # adversarially written: the huge relation comes first in the body.
    (rule,) = parse_rules("hit(Y, Z) <- big(X, Y), tiny(X), mid(Y, Z).").rules
    cases = []
    for big_size in (2000, 8000):
        db = Database()
        for i in range(big_size):
            db.add(Atom("big", (Const(i % 200), Const(i))))
        for i in range(5):
            db.add(Atom("tiny", (Const(i),)))
        for i in range(0, big_size, 10):
            db.add(Atom("mid", (Const(i), Const(i + 1))))
        sizes = {pred: db.count(pred) for pred in db.predicates()}
        workload = f"big={big_size}"
        # the same rule compiled twice: ordered by the syntactic
        # heuristic alone (sizes=None), and by the live cardinalities
        for label, plan in (
            ("static", compile_rule(rule)),
            ("sized", compile_rule(rule, sizes=sizes)),
        ):
            cases.append(
                case(
                    workload,
                    f"{label}-planner",
                    lambda d=db, p=plan: derive_facts(d, p),
                    len,
                )
            )
    return cases


EXPERIMENTS["E15"] = e15_planner
EXPERIMENT_TITLES["E15"] = "join planning: static heuristic vs cardinality-aware"


# -- E16: incremental maintenance vs from-scratch recomputation ----------------

def e16_incremental() -> list[dict]:
    from repro.engine.incremental import IncrementalModel
    from repro.terms.term import Const

    program = parse_rules(ANCESTOR_RULES)
    cases = []
    for n in (100, 400):
        base = chain_family(n)
        new_edge = Atom("parent", (Const(f"p{n}"), Const(f"p{n + 1}")))

        def scratch(base=base, new_edge=new_edge):
            return evaluate(program, edb=list(base) + [new_edge])

        def incremental(base=base, new_edge=new_edge):
            model = IncrementalModel(program, base)
            model.add_facts([new_edge])
            return model

        # time only the update against a prebuilt model
        prebuilt = IncrementalModel(program, base)
        counter = [n]

        def update_only(prebuilt=prebuilt, counter=counter):
            i = counter[0]
            counter[0] += 1
            prebuilt.add_facts(
                [Atom("parent", (Const(f"p{i}"), Const(f"p{i + 1}")))]
            )
            return prebuilt

        workload = f"chain n={n}, +1 edge"
        cases.append(
            case(workload, "scratch-reeval", scratch, lambda r: r.total_facts)
        )
        cases.append(
            case(
                workload,
                "incremental-delta",
                update_only,
                lambda m: len(m.database),
            )
        )
    return cases


EXPERIMENTS["E16"] = e16_incremental
EXPERIMENT_TITLES["E16"] = "incremental maintenance vs from-scratch recomputation"


# -- E17: well-founded semantics cost (the §7 open problem answered) ----------

def e17_wellfounded() -> list[dict]:
    from repro.semantics.wellfounded import wellfounded

    cases = []
    # (a) on stratified programs: total model, overhead vs layered eval
    strat_src = """
    reach(X, Y) <- e(X, Y).
    reach(X, Y) <- reach(X, Z), e(Z, Y).
    has_out(X) <- e(X, _).
    sink(Y) <- e(_, Y), ~has_out(Y).
    """
    program = parse_rules(strat_src)
    edb = [parse_atom(f"e({i}, {i + 1})") for i in range(40)]
    cases.append(_eval_case("stratified chain n=40", program, edb, "seminaive"))
    cases.append(
        case(
            "stratified chain n=40",
            "wellfounded",
            lambda p=program, f=edb: wellfounded(p, edb=f),
            lambda m: len(m.true),
        )
    )
    # (b) win-move games (not stratifiable): scaling of the alternation
    for n in (30, 80):
        import random as _random

        rng = _random.Random(5)
        moves = " ".join(
            f"move(n{rng.randrange(n)}, n{rng.randrange(n)})."
            for _ in range(3 * n)
        )
        game, _ = parse_program(moves + " win(X) <- move(X, Y), ~win(Y).")
        cases.append(
            case(
                f"win-move {n} nodes",
                "wellfounded",
                lambda p=game: wellfounded(p),
                lambda m: len(m.true) + len(m.undefined),
            )
        )
    return cases


EXPERIMENTS["E17"] = e17_wellfounded
EXPERIMENT_TITLES["E17"] = "well-founded semantics (Section 7 open problem 1)"


# -- E18: durable restart paths: cold start vs WAL replay vs snapshot ---------

def e18_persistence() -> list[dict]:
    import atexit
    import shutil
    import tempfile

    from repro.storage.store import DurableStore

    program = parse_rules(ANCESTOR_RULES)
    n = 120
    facts = chain_family(n)
    batches = [facts[i : i + 10] for i in range(0, len(facts), 10)]

    def populate(root, checkpoint):
        store = DurableStore(program, root, fsync="never").open()
        for batch in batches:
            store.add_facts(batch)
        if checkpoint:
            store.checkpoint()
        store.close()

    # fixture stores built once; reopening them is read-only, so the
    # timed runs are repeatable
    wal_dir = tempfile.mkdtemp(prefix="ldl1-bench-wal-")
    snap_dir = tempfile.mkdtemp(prefix="ldl1-bench-snap-")
    for root in (wal_dir, snap_dir):
        atexit.register(shutil.rmtree, root, ignore_errors=True)
    populate(wal_dir, checkpoint=False)
    populate(snap_dir, checkpoint=True)

    def cold_start():
        root = tempfile.mkdtemp(prefix="ldl1-bench-cold-")
        try:
            store = DurableStore(program, root, fsync="never").open()
            store.add_facts(facts)
            nfacts = len(store.database)
            store.close()
            return nfacts
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def reopen(root):
        store = DurableStore(program, root, fsync="never").open()
        nfacts = len(store.database)
        store.close()
        return nfacts

    workload = f"chain n={n}, restart"
    return [
        case(workload, "cold-start", cold_start, lambda f: f),
        case(workload, "wal-replay", lambda: reopen(wal_dir), lambda f: f),
        case(
            workload,
            "snapshot-restore",
            lambda: reopen(snap_dir),
            lambda f: f,
        ),
    ]


EXPERIMENTS["E18"] = e18_persistence
EXPERIMENT_TITLES["E18"] = "durable restart: cold start vs WAL replay vs snapshot"


def e19_server() -> list[dict]:
    """Server throughput/latency: concurrent clients vs one session.

    One shared server (background event-loop thread, torn down atexit)
    serves every case.  ``read-only`` cases issue bound magic queries
    only; ``mixed`` cases interleave one update per three queries, and
    every run removes what it added so the EDB — and therefore the cost
    of later runs — is unchanged.
    """
    import asyncio
    import atexit
    import threading

    from repro.api import LDL
    from repro.server import Client, LDLServer

    n = 60
    requests_per_client = 30
    session = LDL(ANCESTOR_RULES)
    session.add_atoms(chain_family(n))
    session.model()  # warm: measure serving, not the first fixpoint

    server = LDLServer(session, port=0)
    started = threading.Event()

    async def serve():
        await server.start()
        started.set()
        await server.serve(handle_signals=False)

    thread = threading.Thread(
        target=lambda: asyncio.run(serve()), daemon=True
    )
    thread.start()
    if not started.wait(10):
        raise RuntimeError("benchmark server did not start")
    atexit.register(server.request_stop)
    port = server.port

    def read_worker(seed: int) -> int:
        with Client("127.0.0.1", port) as client:
            for i in range(requests_per_client):
                client.query(
                    f"? anc(p{(seed + i) % n}, X).", strategy="magic"
                )
        return requests_per_client

    def mixed_worker(seed: int) -> int:
        with Client("127.0.0.1", port) as client:
            added = []
            for i in range(requests_per_client):
                if i % 3 == 0:
                    row = (f"x{seed}_{i}", f"y{seed}_{i}")
                    client.add_facts("parent", [row])
                    added.append(row)
                else:
                    client.query(
                        f"? anc(p{(seed + i) % n}, X).", strategy="magic"
                    )
            client.remove_facts("parent", added)
        return requests_per_client

    def run_clients(worker, count: int) -> int:
        totals = []
        errors = []

        def target(seed):
            try:
                totals.append(worker(seed))
            except Exception as exc:  # noqa: BLE001 - fail the benchmark
                errors.append(exc)

        threads = [
            threading.Thread(target=target, args=(i,)) for i in range(count)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return sum(totals)

    cases = []
    for clients in (1, 4, 8):
        cases.append(
            case(
                f"anc chain n={n}, {clients} clients",
                "read-only",
                lambda c=clients: run_clients(read_worker, c),
                lambda requests: requests,
            )
        )
        cases.append(
            case(
                f"anc chain n={n}, {clients} clients",
                "mixed-writes",
                lambda c=clients: run_clients(mixed_worker, c),
                lambda requests: requests,
            )
        )

    # -- hot-query answer cache under heavy fan-in ------------------------
    # 100+ clients hammer a small set of bound queries; the cached leg
    # serves them from the answer cache (hit rate reported), the
    # uncached leg bypasses it per request ("cache": false).  The third
    # leg adds writers on a predicate the hot queries don't depend on:
    # precise invalidation means the hit rate should stay high.
    import time

    hot_clients = 100
    hot_requests = 10
    hot_queries = [f"? anc(p{i}, X)." for i in range(8)]

    def percentile(ordered, q):
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]

    def hot_worker(seed: int, use_cache: bool, latencies: list) -> int:
        local = []
        with Client("127.0.0.1", port) as client:
            for i in range(hot_requests):
                text = hot_queries[(seed + i) % len(hot_queries)]
                t0 = time.perf_counter()
                client.query(
                    text, strategy="magic", cache=None if use_cache else False
                )
                local.append(time.perf_counter() - t0)
        latencies.extend(local)
        return hot_requests

    def unrelated_writer(seed: int) -> int:
        """Writes on a predicate outside the hot queries' support set."""
        with Client("127.0.0.1", port) as client:
            added = []
            for i in range(hot_requests):
                row = (f"u{seed}_{i}", i)
                client.add_facts("unrelated", [row])
                added.append(row)
            client.remove_facts("unrelated", added)
        return 2 * hot_requests

    def run_hot(count: int, use_cache: bool, writers: int = 0) -> dict:
        before = server.cache.report()
        latencies: list = []
        totals = []
        errors = []

        def target(worker, *args):
            try:
                totals.append(worker(*args))
            except Exception as exc:  # noqa: BLE001 - fail the benchmark
                errors.append(exc)

        threads = [
            threading.Thread(target=target, args=(hot_worker, i, use_cache, latencies))
            for i in range(count)
        ] + [
            threading.Thread(target=target, args=(unrelated_writer, i))
            for i in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        ordered = sorted(latencies)
        out = {
            "requests": sum(totals),
            "p50_ms": percentile(ordered, 0.50) * 1000,
            "p99_ms": percentile(ordered, 0.99) * 1000,
        }
        if use_cache:
            after = server.cache.report()
            lookups = (after["hits"] + after["misses"]) - (
                before["hits"] + before["misses"]
            )
            out["hit_rate"] = (
                (after["hits"] - before["hits"]) / lookups if lookups else 0.0
            )
            out["entries_invalidated"] = (
                after["entries_invalidated"] - before["entries_invalidated"]
            )
        return out

    cases.append(
        case(
            f"hot set, {hot_clients} clients",
            "cached",
            lambda: run_hot(hot_clients, True),
            lambda r: r["requests"],
        )
    )
    cases.append(
        case(
            f"hot set, {hot_clients} clients",
            "uncached",
            lambda: run_hot(hot_clients, False),
            lambda r: r["requests"],
        )
    )
    cases.append(
        case(
            f"hot set + unrelated writes, {hot_clients} clients",
            "cached",
            lambda: run_hot(hot_clients, True, writers=4),
            lambda r: r["requests"],
        )
    )
    return cases


EXPERIMENTS["E19"] = e19_server
EXPERIMENT_TITLES["E19"] = "server throughput: concurrent clients, read-only vs mixed"


# -- E21: the compiled executor on join-heavy bodies --------------------------

#: ``vector`` is the compiled lane — ID-tuple emission plus the ID-space
#: kernels, the engine's only body evaluator.  The label predates the
#: removal of the ablation knobs and is kept so committed baselines
#: still compare this case.
E21_MODES = ("vector",)


def _ablation_case(workload, program, edb, mode):
    def run():
        from repro.observe import MetricsCollector

        return evaluate(program, edb=edb, metrics=MetricsCollector())

    return case(workload, mode, run, lambda r: r.total_facts)


def e21_executor() -> list[dict]:
    from repro.terms.term import Const

    cases = []
    anc = parse_rules(ANCESTOR_RULES)
    for n in (200, 400):
        edb = chain_family(n)
        for mode in E21_MODES:
            cases.append(_ablation_case(f"anc chain n={n}", anc, edb, mode))
    # same-generation stresses the probe path: wide deltas joined twice
    # per round against the parent relation.
    sg = parse_rules(SG_RULES)
    edb = generation_family(8, 14)
    for mode in E21_MODES:
        cases.append(_ablation_case("sg 8x14", sg, edb, mode))
    # wide-relation high-fan-out join: 40 keys, 60x60 rows per key —
    # 144,000 output tuples from one non-recursive rule.  This is the
    # shape the fused last-step emission exists for: huge
    # buckets, no recursion, throughput limited purely by per-row
    # dispatch.
    wide = parse_rules("j(X, Y) <- r(K, X), s(K, Y).")
    wide_edb = []
    for k in range(40):
        key = Const(f"k{k}")
        for i in range(60):
            wide_edb.append(Atom("r", (key, Const(f"x{k}_{i}"))))
            wide_edb.append(Atom("s", (key, Const(f"y{k}_{i}"))))
    for mode in E21_MODES:
        cases.append(_ablation_case("wide join 40keys 60x60", wide, wide_edb, mode))
    # the projecting join ``candidate`` on degree-regular graphs: one
    # application plus its install, as a key map (``keys``, what a
    # fixpoint asks for) and as rows (``rows``), so the slope of each
    # over the graph size is on record.  Not in any committed baseline.
    for users, follows in ((200, 4), (350, 6), (1000, 8)):
        cases.extend(_candidate_cases(users, follows))
    return cases


CANDIDATE_RULE = "candidate(A, B) <- follows(A, M), follows(M, B), A != B."


def _candidate_cases(users: int, follows: int) -> list[dict]:
    """``candidate`` derived and installed once per run, into a
    copy-on-write copy of one ``follows`` database: the union of
    ``follows`` seeded random permutations of the users.  The metric
    asserts that both modes install the same relation."""
    import random

    from repro.engine.context import EvalContext
    from repro.engine.database import Database
    from repro.engine.exec import derive_rows
    from repro.engine.fixpoint import install_rows
    from repro.engine.plan import compile_rule
    from repro.parser import parse_rule
    from repro.terms.term import Const

    rng = random.Random(users * follows)
    names = [Const(f"u{i}") for i in range(users)]
    edb = []
    for _ in range(follows):
        targets = names[:]
        rng.shuffle(targets)
        edb.extend(Atom("follows", pair) for pair in zip(names, targets))
    base = Database(edb)
    rule = parse_rule(CANDIDATE_RULE)
    plan = compile_rule(rule)
    installed: dict = {}

    def mode_case(mode: str) -> dict:
        recursive = frozenset({"candidate"}) if mode == "keys" else None

        def run():
            db = base.copy()
            dr = derive_rows(db, plan, recursive=recursive)
            assert (dr.keys is not None) == (mode == "keys")
            install_rows(EvalContext(db), db, rule, dr)
            return db

        def metric(db) -> int:
            rows = set(db.id_rows("candidate"))
            assert installed.setdefault("rows", rows) == rows, mode
            return len(rows)

        return case(f"candidate {users}x{follows}", mode, run, metric)

    return [mode_case("keys"), mode_case("rows")]


EXPERIMENTS["E21"] = e21_executor
EXPERIMENT_TITLES["E21"] = "compiled executor: join-heavy bodies"


# -- E22: differential maintenance vs cone recompute --------------------------

def e22_maintenance() -> list[dict]:
    from collections import Counter

    from repro.engine.incremental import IncrementalModel
    from repro.terms.term import Const
    from repro.workloads.social import SOCIAL_PROGRAM, social_network

    program = parse_rules(SOCIAL_PROGRAM)
    cases = []

    # (a) single-fact deletion latency on a ~100k-fact recursive model:
    # retract one follow of a *peripheral* user (nobody follows them)
    # — the common case differential maintenance exists for.  The
    # support cone is one influence column; cone recompute rebuilds
    # the whole closure either way.
    edb = social_network(300)
    follows = [a for a in edb if a.pred == "follows"]
    indegree = Counter(a.args[1] for a in follows)
    target = next(a for a in follows if indegree[a.args[0]] == 0)
    for mode in ("recompute", "delta"):
        model = IncrementalModel(program, edb, maintain=mode)

        def delete_one(model=model, fact=target):
            # deterministic churn: every sample deletes the *same*
            # edge on the same model state (restoring it first from
            # the second sample on), so the captured minimum doesn't
            # depend on which follower a sampling pass happens to hit.
            if fact not in model.edb_facts:
                model.add_facts([fact])
            model.remove_facts([fact])
            return model

        cases.append(
            case(
                "social n=300, del 1 follow",
                f"{mode}-delete",
                delete_one,
                lambda m: len(m.database),
            )
        )

    # (b) sustained mixed add/remove/query throughput vs model size:
    # each run churns three fresh follow edges through the model
    # (insert, read the negation-guarded recommendations, retract).
    for users in (60, 120):
        churn_edb = social_network(users)
        for mode in ("recompute", "delta"):
            model = IncrementalModel(program, churn_edb, maintain=mode)
            counter = [0]

            def mixed(model=model, counter=counter, users=users):
                batch = counter[0]
                counter[0] += 1
                ops = 0
                fresh = []
                for i in range(3):
                    # fresh follower names keep inserts genuinely new;
                    # fixed followees keep per-run work comparable.
                    fact = Atom(
                        "follows",
                        (
                            Const(f"w{batch}_{i}"),
                            Const(f"u{(i * 17) % users}"),
                        ),
                    )
                    model.add_facts([fact])
                    fresh.append(fact)
                    ops += 1
                ops += sum(1 for _ in model.database.atoms("recommend"))
                for fact in fresh:
                    model.remove_facts([fact])
                    ops += 1
                return ops

            cases.append(
                case(
                    f"social n={users}, mixed ops",
                    f"{mode}-mixed",
                    mixed,
                    lambda ops: ops,
                )
            )
    return cases


EXPERIMENTS["E22"] = e22_maintenance
EXPERIMENT_TITLES["E22"] = "differential maintenance vs cone recompute"
