"""Crash-recovery fault injection, property-tested.

The contract under test is the store's whole reason to exist: for ANY
sequence of update batches, an optional checkpoint anywhere in the
sequence, and a crash that tears the WAL at ANY byte offset, reopening
the store must yield exactly the model a from-scratch evaluation over
the recovered EDB produces — and the recovered EDB must be the prefix
of acknowledged batches whose records survived intact (no partial
batches, no resurrection of torn ones).  Each example draws the
store's maintenance mode, so the recompute oracle is held to the same
contract as delta maintenance, and a reopened store must keep
repairing its model the way it was built to.
"""

import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.engine.maintain import MAINTAIN_MODES
from repro.observe import TraceRecorder
from repro.parser import parse_atom, parse_rules
from repro.storage.store import DurableStore
from repro.storage.wal import MAGIC

PROGRAM = parse_rules(
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

PEOPLE = [f"p{i}" for i in range(5)]

facts_st = st.tuples(
    st.sampled_from(PEOPLE), st.sampled_from(PEOPLE)
).map(lambda pair: parse_atom(f"parent({pair[0]}, {pair[1]})"))

batches_st = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.lists(facts_st, min_size=1, max_size=3, unique=True),
    ),
    min_size=1,
    max_size=6,
)


modes_st = st.sampled_from(MAINTAIN_MODES)


def apply_expected(batches):
    """The EDB a perfect database would hold after ``batches``."""
    edb = set()
    for op, facts in batches:
        if op == "add":
            edb |= set(facts)
        else:
            edb -= set(facts)
    return edb


def assert_repaired_in_mode(store, maintain):
    """Every update the store's model absorbed ran in ``maintain``."""
    totals = store.model.maintenance
    in_mode = totals.delta_updates if maintain == "delta" else totals.recompute_updates
    assert in_mode == totals.updates, (maintain, totals)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_crash_recovery_equals_from_scratch(data):
    batches = data.draw(batches_st)
    checkpoint_after = data.draw(
        st.none() | st.integers(min_value=0, max_value=len(batches) - 1),
        label="checkpoint_after",
    )
    maintain = data.draw(modes_st, label="maintain")
    workdir = tempfile.mkdtemp(prefix="ldl1-crash-")
    try:
        store = DurableStore(
            PROGRAM, workdir, fsync="never", compact_every=0, maintain=maintain
        )
        store.open()
        for i, (op, facts) in enumerate(batches):
            if op == "add":
                store.add_facts(facts)
            else:
                store.remove_facts(facts)
            if checkpoint_after == i:
                store.checkpoint()
        # batches the snapshot fully contains vs batches only in the WAL
        snapshotted = (
            batches[: checkpoint_after + 1] if checkpoint_after is not None else []
        )
        logged = batches[len(snapshotted):]
        record_ends = [r.end_offset for r in store.wal.replay()]
        assert len(record_ends) == len(logged)
        wal_path = store.wal_path
        store.close()

        # the crash: tear the log at an arbitrary byte offset
        kill = data.draw(
            st.integers(
                min_value=len(MAGIC), max_value=os.path.getsize(wal_path)
            ),
            label="kill_offset",
        )
        with open(wal_path, "r+b") as handle:
            handle.truncate(kill)

        surviving = sum(1 for end in record_ends if end <= kill)
        expected_edb = apply_expected(snapshotted + logged[:surviving])

        recorder = TraceRecorder()
        reopened = DurableStore(
            PROGRAM, workdir, fsync="never", compact_every=0, hooks=recorder,
            maintain=maintain,
        ).open()
        try:
            assert reopened.stats.wal_records_replayed == surviving
            assert_repaired_in_mode(reopened, maintain)
            assert set(reopened.edb_facts) == expected_edb
            scratch = evaluate(PROGRAM, edb=sorted(expected_edb, key=lambda a: a.sort_key()))
            assert reopened.database.as_set() == scratch.database.as_set()
            if (
                checkpoint_after is not None
                and surviving == 0
                and reopened.stats.restore_mode == "snapshot"
            ):
                # nothing to replay and a usable snapshot: the layered
                # fixpoint must not have run at all
                assert recorder.count("layer_start") == 0
                assert recorder.count("iteration") == 0
        finally:
            reopened.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@settings(max_examples=25, deadline=None)
@given(batches=batches_st, maintain=modes_st)
def test_clean_restart_equals_from_scratch(batches, maintain):
    """No crash at all: close/reopen is already a model-preserving cycle."""
    workdir = tempfile.mkdtemp(prefix="ldl1-restart-")
    try:
        store = DurableStore(
            PROGRAM, workdir, fsync="never", compact_every=0, maintain=maintain
        )
        store.open()
        for op, facts in batches:
            (store.add_facts if op == "add" else store.remove_facts)(facts)
        before = store.database.as_set()
        store.close()
        reopened = DurableStore(
            PROGRAM, workdir, fsync="never", maintain=maintain
        ).open()
        try:
            assert_repaired_in_mode(reopened, maintain)
            assert reopened.database.as_set() == before
            assert reopened.database.as_set() == evaluate(
                PROGRAM, edb=sorted(reopened.edb_facts, key=lambda a: a.sort_key())
            ).database.as_set()
        finally:
            reopened.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@settings(max_examples=25, deadline=None)
@given(batches=batches_st, maintain=modes_st)
def test_snapshot_restore_never_runs_fixpoint(batches, maintain):
    """After a checkpoint, restart adopts the model without evaluation,
    and the adopted model goes on absorbing updates in its mode."""
    workdir = tempfile.mkdtemp(prefix="ldl1-snap-")
    try:
        store = DurableStore(
            PROGRAM, workdir, fsync="never", compact_every=0, maintain=maintain
        )
        store.open()
        for op, facts in batches:
            (store.add_facts if op == "add" else store.remove_facts)(facts)
        store.checkpoint()
        before = store.database.as_set()
        store.close()
        recorder = TraceRecorder()
        reopened = DurableStore(
            PROGRAM, workdir, fsync="never", hooks=recorder, maintain=maintain
        ).open()
        try:
            assert reopened.stats.restore_mode == "snapshot"
            assert reopened.database.as_set() == before
            assert recorder.count("layer_start") == 0
            assert recorder.count("rule_fired") == 0
            assert recorder.count("fact_derived") == 0
            reopened.add_facts([parse_atom("parent(p0, newcomer)")])
            assert reopened.model.maintenance.updates == 1
            assert_repaired_in_mode(reopened, maintain)
            assert reopened.database.as_set() == evaluate(
                PROGRAM, edb=sorted(reopened.edb_facts, key=lambda a: a.sort_key())
            ).database.as_set()
        finally:
            reopened.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
