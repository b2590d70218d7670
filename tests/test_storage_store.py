"""DurableStore behavior: restore modes, compaction, API and CLI wiring."""

import io
import os

import pytest

from repro import LDL, evaluate
from repro.cli import run as cli_run
from repro.engine.database import Database
from repro.errors import EvaluationError, StorageError, WellFormednessError
from repro.observe import MetricsCollector, TraceRecorder, compose_hooks
from repro.parser import parse_atom, parse_rules
from repro.storage.store import DurableStore
from repro.storage.wal import WriteAheadLog

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


def atoms(*sources):
    return [parse_atom(s) for s in sources]


def scratch_model(program, edb):
    return evaluate(program, edb=edb).database.as_set()


class TestOpenModes:
    def test_cold_start(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path) as store:
            assert store.stats.restore_mode == "cold"
            store.add_facts(atoms("parent(a, b)", "parent(b, c)"))
            assert parse_atom("anc(a, c)") in store.database

    def test_wal_replay_restores_model(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path) as store:
            store.add_facts(atoms("parent(a, b)"))
            store.add_facts(atoms("parent(b, c)"))
            store.remove_facts(atoms("parent(a, b)"))
            expected = store.database.as_set()
        with DurableStore(ANCESTOR, tmp_path) as store:
            assert store.stats.restore_mode == "cold"
            assert store.stats.wal_records_replayed == 3
            assert store.database.as_set() == expected
            assert store.database.as_set() == scratch_model(
                ANCESTOR, store.edb_facts
            )

    def test_snapshot_restore_skips_fixpoint(self, tmp_path):
        with DurableStore(STRATIFIED, tmp_path) as store:
            store.add_facts(atoms("parent(a, b)", "parent(b, c)"))
            store.checkpoint()
            expected = store.database.as_set()
        recorder = TraceRecorder()
        with DurableStore(STRATIFIED, tmp_path, hooks=recorder) as store:
            assert store.stats.restore_mode == "snapshot"
            assert store.database.as_set() == expected
        # the whole point: no layers entered, no iterations, no firings
        assert recorder.count("layer_start") == 0
        assert recorder.count("iteration") == 0
        assert recorder.count("rule_fired") == 0
        loads = [e for e in recorder.events if e.kind == "snapshot_load"]
        assert len(loads) == 1 and loads[0].payload["restored"] is True

    def test_snapshot_plus_wal_tail(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path) as store:
            store.add_facts(atoms("parent(a, b)"))
            store.checkpoint()
            store.add_facts(atoms("parent(b, c)"))
        with DurableStore(ANCESTOR, tmp_path) as store:
            assert store.stats.restore_mode == "snapshot"
            assert store.stats.wal_records_replayed == 1
            assert parse_atom("anc(a, c)") in store.database

    def test_program_change_invalidates_snapshot(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path) as store:
            store.add_facts(atoms("parent(a, b)", "parent(b, c)"))
            store.checkpoint()
        with DurableStore(STRATIFIED, tmp_path) as store:
            assert store.stats.restore_mode == "rebuild"
            # EDB carried over, IDB recomputed under the new rules
            assert parse_atom("childless(c)") in store.database
            assert store.database.as_set() == scratch_model(
                STRATIFIED, store.edb_facts
            )

    def test_double_open_rejected(self, tmp_path):
        store = DurableStore(ANCESTOR, tmp_path).open()
        with pytest.raises(StorageError):
            store.open()
        store.close()

    def test_rejected_batch_is_never_logged(self, tmp_path):
        """A batch the model rejects (a fact of another arity than the
        rules', or of a derived predicate) raises before it is
        WAL-logged, so the store still reopens."""
        for bad, error in (
            (atoms("parent(a, b)", "parent(c)"), WellFormednessError),
            (atoms("parent(a, b)", "anc(x, y)"), EvaluationError),
        ):
            with DurableStore(ANCESTOR, tmp_path) as store:
                with pytest.raises(error):
                    store.add_facts(bad)
                assert store.wal.record_count == 0 and store.edb_facts == set()
        with DurableStore(ANCESTOR, tmp_path) as store:
            assert store.stats.wal_records_replayed == 0

    def test_failed_replay_leaves_the_store_closed(self, tmp_path):
        """A logged record the model rejects on replay (a derived fact,
        which older stores could log; or a fact of another arity) makes
        ``open`` raise and leaves the store closed, its log released."""
        for bad, error in (
            (atoms("anc(x, y)"), EvaluationError),
            (atoms("parent(c)"), WellFormednessError),
        ):
            store = DurableStore(ANCESTOR, tmp_path / error.__name__)
            os.makedirs(store.path)
            log = WriteAheadLog(store.wal_path)
            log.append("add", atoms("parent(a, b)"))
            log.append("add", bad)
            log.close()
            with pytest.raises(error):
                store.open()
            assert store.wal is None and store.model is None
            with pytest.raises(StorageError):
                store.database

    def test_closed_store_rejects_use(self, tmp_path):
        store = DurableStore(ANCESTOR, tmp_path)
        with pytest.raises(StorageError):
            store.add_facts(atoms("parent(a, b)"))
        with pytest.raises(StorageError):
            store.database


class TestCompaction:
    def test_auto_compaction_after_n_records(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path, compact_every=3) as store:
            for i in range(7):
                store.add_facts(atoms(f"parent(n{i}, n{i + 1})"))
            # 7 appends, compaction at every 3rd: wal holds the tail only
            assert store.wal.record_count < 3
            assert store.stats.compactions == 2
            expected = store.database.as_set()
        with DurableStore(ANCESTOR, tmp_path) as store:
            assert store.stats.restore_mode == "snapshot"
            assert store.database.as_set() == expected

    def test_checkpoint_resets_wal(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path) as store:
            store.add_facts(atoms("parent(a, b)"))
            assert store.wal.record_count == 1
            nbytes = store.checkpoint()
            assert nbytes > 0
            assert store.wal.record_count == 0

    def test_compact_alias(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path) as store:
            store.add_facts(atoms("parent(a, b)"))
            store.compact()
            assert store.wal.record_count == 0


class TestMetricsAndHooks:
    def test_storage_metrics_collected(self, tmp_path):
        metrics = MetricsCollector()
        with DurableStore(ANCESTOR, tmp_path, metrics=metrics) as store:
            store.add_facts(atoms("parent(a, b)"))
            store.checkpoint()
        counters = metrics.counters
        assert counters["storage_bytes_written"] > 0
        assert counters["storage_fsyncs"] >= 2
        assert counters["wal_records_appended"] == 1
        assert counters["snapshot_writes"] == 1
        assert "wal_append" in metrics.phases
        assert "snapshot_write" in metrics.phases

    def test_replay_metrics_on_reopen(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path) as store:
            store.add_facts(atoms("parent(a, b)"))
        metrics = MetricsCollector()
        with DurableStore(ANCESTOR, tmp_path, metrics=metrics):
            pass
        assert metrics.counters["wal_records_replayed"] == 1
        assert "wal_replay" in metrics.phases

    def test_trace_records_storage_events(self, tmp_path):
        recorder = TraceRecorder()
        with DurableStore(ANCESTOR, tmp_path, hooks=recorder) as store:
            store.add_facts(atoms("parent(a, b)"))
            store.checkpoint()
        assert recorder.count("wal_append") == 1
        assert recorder.count("snapshot_write") == 1

    def test_composite_hooks_fan_out_storage_events(self, tmp_path):
        first, second = TraceRecorder(), TraceRecorder()

        class LegacyHooks:
            """An engine-hooks object predating the storage events."""

            def on_plan_built(self, plan):
                pass

            def on_layer_start(self, layer, rules):
                pass

            def on_layer_end(self, layer, new_facts):
                pass

            def on_iteration(self, iteration, new_facts):
                pass

            def on_rule_fired(self, rule, derived):
                pass

            def on_fact_derived(self, fact, rule):
                pass

        composite = compose_hooks(first, second)
        with DurableStore(
            ANCESTOR, tmp_path, hooks=compose_hooks(composite, LegacyHooks())
        ) as store:
            store.add_facts(atoms("parent(a, b)"))
        assert first.count("wal_append") == 1
        assert second.count("wal_append") == 1


class TestDatabaseApi:
    def test_unknown_predicate_is_evaluation_error(self):
        db = Database()
        with pytest.raises(EvaluationError, match="nosuch"):
            db.relation("nosuch")

    def test_discard_maintains_indexes(self):
        db = Database(atoms("e(1, 2)", "e(1, 3)", "e(2, 3)"))
        # force an index, then discard through it
        assert len(list(db.lookup("e", (0,), tuple(parse_atom("e(1, 2)").args[:1])))) == 2
        assert db.discard(parse_atom("e(1, 2)"))
        assert not db.discard(parse_atom("e(1, 2)"))
        assert list(db.lookup("e", (0,), tuple(parse_atom("e(1, 3)").args[:1]))) == [
            parse_atom("e(1, 3)").args
        ]
        assert db.count() == 2

    def test_remove_missing_raises(self):
        db = Database(atoms("e(1, 2)"))
        db.remove(parse_atom("e(1, 2)"))
        with pytest.raises(EvaluationError):
            db.remove(parse_atom("e(1, 2)"))


class TestLDLDurableSession:
    SRC = """
    anc(X, Y) <- parent(X, Y).
    anc(X, Y) <- parent(X, Z), anc(Z, Y).
    """

    def test_facts_survive_restart(self, tmp_path):
        path = str(tmp_path / "db")
        with LDL(self.SRC, path=path) as db:
            db.facts("parent", [("a", "b"), ("b", "c")])
            first = db.query("? anc(a, X).")
        with LDL(self.SRC, path=path) as db:
            assert db.query("? anc(a, X).") == first
            assert db.store.stats.wal_records_replayed == 1

    def test_checkpoint_then_snapshot_restart(self, tmp_path):
        path = str(tmp_path / "db")
        with LDL(self.SRC, path=path) as db:
            db.facts("parent", [("a", "b")])
            db.checkpoint()
        with LDL(self.SRC, path=path) as db:
            assert db.store.stats.restore_mode == "snapshot"
            assert db.query("? anc(a, X).") == [{"X": "b"}]

    def test_remove_fact(self, tmp_path):
        with LDL(self.SRC, path=str(tmp_path / "db")) as db:
            db.fact("parent", "a", "b")
            db.remove("parent", "a", "b")
            assert db.query("? anc(a, X).") == []

    def test_remove_fact_in_memory_session(self):
        db = LDL(self.SRC).fact("parent", "a", "b").fact("parent", "b", "c")
        db.remove("parent", "b", "c")
        assert db.query("? anc(a, X).") == [{"X": "b"}]

    def test_magic_uses_durable_edb(self, tmp_path):
        with LDL(self.SRC, path=str(tmp_path / "db")) as db:
            db.facts("parent", [("a", "b"), ("b", "c")])
            assert db.query("? anc(a, X).", strategy="magic") == [
                {"X": "b"},
                {"X": "c"},
            ]

    def test_loading_rules_reopens_store(self, tmp_path):
        path = str(tmp_path / "db")
        with LDL(self.SRC, path=path) as db:
            db.fact("parent", "a", "b")
            db.load("grandparent(X, Z) <- parent(X, Y), parent(Y, Z).")
            db.fact("parent", "b", "c")
            assert db.query("? grandparent(a, X).") == [{"X": "c"}]
        with LDL(self.SRC, path=path) as db:
            # old rules: persisted EDB intact, grandparent gone
            assert db.query("? anc(a, X).") == [{"X": "b"}, {"X": "c"}]

    def test_checkpoint_requires_durable_session(self):
        with pytest.raises(EvaluationError):
            LDL(self.SRC).checkpoint()

    def test_buffered_facts_flow_into_store(self, tmp_path):
        db = LDL(self.SRC)
        db.fact("parent", "a", "b")
        db._path = str(tmp_path / "db")
        db._open_store()
        assert db.query("? anc(a, X).") == [{"X": "b"}]
        db.close()


class TestCliDurable:
    PROGRAM = "anc(X, Y) <- parent(X, Y). anc(X, Y) <- parent(X, Z), anc(Z, Y).\n"

    def _write_program(self, tmp_path):
        program = tmp_path / "prog.ldl"
        program.write_text(self.PROGRAM + "parent(a, b). parent(b, c).\n")
        return str(program)

    def test_db_flag_round_trip(self, tmp_path):
        program = self._write_program(tmp_path)
        dbdir = str(tmp_path / "db")
        out = io.StringIO()
        assert cli_run([program, "--db", dbdir, "-q", "? anc(a, X)."], out=out) == 0
        assert "cold start" in out.getvalue()
        assert os.path.exists(os.path.join(dbdir, "snapshot.jsonl"))
        out = io.StringIO()
        assert cli_run([program, "--db", dbdir, "-q", "? anc(a, X)."], out=out) == 0
        text = out.getvalue()
        assert "snapshot start" in text
        assert "X = 'c'" in text

    def test_repl_save_and_compact(self, tmp_path):
        program = self._write_program(tmp_path)
        dbdir = str(tmp_path / "db")
        out = io.StringIO()
        stdin = io.StringIO("parent(c, d).\n:save\n.compact\n:quit\n")
        assert cli_run([program, "--db", dbdir, "--repl"], out=out, stdin=stdin) == 0
        assert out.getvalue().count("% checkpoint:") == 2
        out = io.StringIO()
        assert cli_run(
            [program, "--db", dbdir, "-q", "? anc(a, X)."], out=out
        ) == 0
        assert "X = 'd'" in out.getvalue()

    def test_repl_save_without_db(self, tmp_path):
        program = self._write_program(tmp_path)
        out = io.StringIO()
        stdin = io.StringIO(":save\n:quit\n")
        assert cli_run([program, "--repl"], out=out, stdin=stdin) == 0
        assert "no durable store" in out.getvalue()


class TestWalTornTailThroughStore:
    def test_torn_tail_recovers_prefix(self, tmp_path):
        with DurableStore(ANCESTOR, tmp_path) as store:
            store.add_facts(atoms("parent(a, b)"))
            store.add_facts(atoms("parent(b, c)"))
            wal_path = store.wal_path
        # crash mid-append: chop bytes off the second record
        with open(wal_path, "r+b") as fh:
            fh.truncate(os.path.getsize(wal_path) - 2)
        with DurableStore(ANCESTOR, tmp_path) as store:
            assert store.stats.wal_truncated_bytes > 0
            assert store.stats.wal_records_replayed == 1
            assert parse_atom("anc(a, b)") in store.database
            assert parse_atom("anc(b, c)") not in store.database
            # the torn record is physically gone: a fresh append works
            store.add_facts(atoms("parent(b, d)"))
        log = WriteAheadLog(wal_path)
        assert log.record_count == 2
        log.close()
