"""The cyclic collector is paused while the engine builds or repairs a
model (``repro.util.gc_paused``), and the engine leaves no reference
cycle that grows with the data, which is what makes the pause safe."""

import gc
import tempfile
import threading
import weakref

import pytest

from repro.api import LDL
from repro.engine import compile_program, evaluate
from repro.engine.incremental import IncrementalModel
from repro.parser import parse_program, parse_rules
from repro.program.rule import Atom
from repro.storage import store as store_module
from repro.storage.store import DurableStore
from repro.terms.term import Const
from repro.util import gc_paused
from repro.workloads.social import SOCIAL_PROGRAM, social_network

ANCESTOR = parse_program(
    """
    anc(X, Y) <- parent(X, Y).
    anc(X, Y) <- parent(X, Z), anc(Z, Y).
    """
).program


def parent(x, y):
    return Atom("parent", (Const(x), Const(y)))


@pytest.fixture(autouse=True)
def collector_restored():
    """Whatever a test does to the collector, the next test starts with
    it enabled."""
    yield
    gc.enable()


class CollectorProbe:
    """A ``rule_fired`` subscriber recording whether the collector was
    enabled at each firing."""

    def __init__(self):
        self.seen = []

    def on_rule_fired(self, rule, derived, seconds):
        self.seen.append(gc.isenabled())


# -- the context manager -------------------------------------------------


def test_paused_inside_and_restored_after():
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_exception_restores_the_collector():
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("midway")
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_nested_pauses_end_enabled():
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        # the inner pause found the collector off, so it leaves it off
        assert not gc.isenabled()
    assert gc.isenabled()


def test_decorated_function_is_paused():
    @gc_paused()
    def probe():
        return gc.isenabled()

    assert probe() is False
    assert probe() is False  # reusable: a fresh pause per call
    assert gc.isenabled()


@pytest.mark.parametrize("first_out", ["first", "second"])
def test_overlapping_pauses_in_two_threads_end_enabled(first_out):
    """Two threads whose pauses overlap: whichever leaves first, the
    collector is enabled once both have left."""
    first_in, second_in = threading.Event(), threading.Event()
    leave = {"first": threading.Event(), "second": threading.Event()}
    left = {"first": threading.Event(), "second": threading.Event()}
    inside = {}

    def body(name, wait_for):
        if wait_for is not None:
            wait_for.wait(5)
        with gc_paused():
            inside[name] = gc.isenabled()
            (first_in if name == "first" else second_in).set()
            leave[name].wait(5)
        left[name].set()

    threads = [
        threading.Thread(target=body, args=("first", None)),
        threading.Thread(target=body, args=("second", first_in)),
    ]
    for t in threads:
        t.start()
    assert second_in.wait(5)
    last_out = "second" if first_out == "first" else "first"
    leave[first_out].set()
    assert left[first_out].wait(5)
    leave[last_out].set()
    for t in threads:
        t.join(5)
    assert inside == {"first": False, "second": False}
    assert gc.isenabled()


# -- the engine's pause sites ------------------------------------------


def test_evaluate_runs_paused():
    probe = CollectorProbe()
    evaluate(ANCESTOR, [parent("a", "b"), parent("b", "c")], hooks=probe)
    assert probe.seen and not any(probe.seen)
    assert gc.isenabled()


def test_evaluation_that_raises_restores_the_collector():
    class Failing:
        def on_rule_fired(self, rule, derived, seconds):
            raise RuntimeError("midway")

    with pytest.raises(RuntimeError):
        evaluate(ANCESTOR, [parent("a", "b")], hooks=Failing())
    assert gc.isenabled()


def test_maintained_update_runs_paused():
    probe = CollectorProbe()
    model = IncrementalModel(
        ANCESTOR, [parent("a", "b"), parent("b", "c")], hooks=probe,
        maintain="delta",
    )
    assert probe.seen and not any(probe.seen)
    assert gc.isenabled()
    for update in (model.add_facts, model.remove_facts):
        probe.seen.clear()
        update([parent("c", "d")])
        assert model.last_update.mode == "maintain"
        assert probe.seen and not any(probe.seen)
        assert gc.isenabled()


def test_store_open_runs_paused(tmp_path, monkeypatch):
    with DurableStore(ANCESTOR, tmp_path) as store:
        store.add_facts([parent("a", "b")])
        store.checkpoint()
    seen = []
    load = store_module.load_snapshot

    def probing_load(path):
        seen.append(gc.isenabled())
        return load(path)

    monkeypatch.setattr(store_module, "load_snapshot", probing_load)
    store = DurableStore(ANCESTOR, tmp_path).open()
    assert store.stats.restore_mode == "snapshot"
    assert seen == [False]
    assert gc.isenabled()
    store.close()


# -- cycle freedom -------------------------------------------------------


def test_dropped_maintained_model_is_freed_without_the_collector():
    """The model holds its maintainer; a strong reference back would
    keep the whole model (database, support counts) alive until a full
    collection."""
    model = IncrementalModel(
        ANCESTOR, [parent("a", "b"), parent("b", "c")], maintain="delta"
    )
    gc.disable()
    model.add_facts([parent("c", "d")])
    model.remove_facts([parent("a", "b")])
    assert model.last_update.mode == "maintain"
    database = weakref.ref(model.database)
    del model
    assert database() is None


def _new_follows(edb, count=2):
    """``count`` follows facts absent from ``edb`` (same at any size)."""
    have = {a.args for a in edb if a.pred == "follows"}
    out = []
    for i in range(1, 10):
        args = (Const("u0"), Const(f"u{i}"))
        if args not in have:
            out.append(Atom("follows", args))
            if len(out) == count:
                return out
    raise AssertionError("no free follows edge")


SOCIAL = parse_program(SOCIAL_PROGRAM).program


def _evaluate(users, tmp_path):
    evaluate(SOCIAL, social_network(users, seed=1))


def _maintained(users, tmp_path):
    edb = social_network(users, seed=1)
    model = IncrementalModel(SOCIAL, edb, maintain="delta")
    added, other = _new_follows(edb)
    model.add_facts([added, other])
    model.remove_facts([added])
    assert model.last_update.mode == "maintain"
    del model


def _durable_session(users, tmp_path):
    path = tempfile.mkdtemp(dir=tmp_path)
    edb = social_network(users, seed=1)
    added, _ = _new_follows(edb)
    session = LDL(SOCIAL_PROGRAM, path=path, maintain="delta")
    session.add_atoms(edb)
    session.add_atoms([added])
    session.remove_atoms([added])
    session.checkpoint()
    session.close()
    session = LDL(SOCIAL_PROGRAM, path=path)
    assert session.query("? influences(u0, X).")
    session.close()
    del session


@pytest.mark.parametrize(
    "case", [_evaluate, _maintained, _durable_session],
    ids=["evaluate", "maintained", "durable"],
)
def test_cyclic_garbage_does_not_grow_with_the_data(case, tmp_path):
    """What a case leaves for the collector is the same at 10 and at
    120 users: per-program garbage (plans and their closures), never
    data.

    The collector stays off for the whole case, so no automatic pass
    frees or untracks part of that garbage before it is counted."""
    left = {}
    for users in (10, 120):
        case(users, tmp_path)  # warm caches that outlive the case
    for users in (10, 120):
        gc.collect()
        gc.disable()
        case(users, tmp_path)
        gc.enable()
        left[users] = gc.collect()
    assert left[10] == left[120]


def test_compile_leaves_no_cyclic_garbage():
    """A compile refers back to its program only weakly, and its
    dependency graph is plain dicts: dropping a compiled program frees
    it by reference counting alone."""
    compile_program(parse_rules(SOCIAL_PROGRAM))  # warm caches that outlive it
    gc.collect()
    gc.disable()
    compile_program(parse_rules(SOCIAL_PROGRAM))
    assert gc.collect() == 0


def test_evaluate_leaves_no_cyclic_garbage():
    """A specialized plan's function is not kept in its own ``exec``
    namespace, and a plan's specialization refers back to the plan
    weakly: evaluating a freshly parsed program leaves nothing for the
    collector."""
    edb = social_network(10, seed=1)
    evaluate(parse_program(SOCIAL_PROGRAM).program, edb)  # warm caches
    gc.collect()
    gc.disable()
    evaluate(parse_program(SOCIAL_PROGRAM).program, edb)
    assert gc.collect() == 0


def test_magic_query_leaves_no_cyclic_garbage():
    """A prepared magic query refers to its program weakly: the program's
    compile holds the prepared form, so a strong reference back would
    make every session that asks a magic query cyclic garbage."""
    edb = social_network(10, seed=1)

    def session_query():
        session = LDL(SOCIAL_PROGRAM)
        session.add_atoms(edb)
        assert session.query("? influences(u0, X).", strategy="magic")

    session_query()  # warm caches
    gc.collect()
    gc.disable()
    session_query()
    assert gc.collect() == 0
