"""Tests for engine observability (repro.observe) and its surfaces.

The one event channel (subscribers resolved into a Dispatcher),
TraceRecorder/MetricsCollector as subscribers, the
``trace=``/``hooks=``/``metrics=`` arguments on the api layer, and the
CLI's ``--trace`` summary.
"""

import io

from repro.api import LDL
from repro.cli import run as cli_run
from repro.engine.relation import Relation
from repro.observe import (
    EVENTS,
    SILENT,
    Dispatcher,
    MetricsCollector,
    TraceRecorder,
    compose_hooks,
)
from repro.terms.pretty import format_atom

from tests.helpers import run

ANC = """
parent(a, b). parent(b, c).
anc(X, Y) <- parent(X, Y).
anc(X, Y) <- parent(X, Z), anc(Z, Y).
"""
#: ``anc`` is a right-linear closure: its exit rule is the one rule
#: planned, and the closure step compiles no plan.
ANC_PLANS = 1


class CatchAll:
    """Observes everything and records nothing, like the ledger's
    no-op hooks."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


class LegacyHooks:
    """A subscriber written before events carried ``seconds``."""

    def __init__(self):
        self.fired = []

    def on_rule_fired(self, rule, derived):
        self.fired.append((rule, derived))

    def on_iteration(self, iteration, new_facts):
        pass


class TestComposeHooks:
    def test_empty_is_null(self):
        assert compose_hooks() is SILENT
        assert compose_hooks(None, None) is SILENT
        assert all(getattr(SILENT, event) is None for event in EVENTS)

    def test_single_passthrough(self):
        legacy = LegacyHooks()
        dispatcher = compose_hooks(None, legacy)
        # the subscriber's own bound method, no fan-out in between
        assert dispatcher.iteration == legacy.on_iteration
        assert dispatcher.fact_derived is None
        assert compose_hooks(dispatcher) is dispatcher
        assert compose_hooks(None, dispatcher) is dispatcher

    def test_composite_fans_out(self):
        a, b = TraceRecorder(), TraceRecorder()
        combined = compose_hooks(a, b)
        assert isinstance(combined, Dispatcher)
        combined.iteration(iteration=1, new_facts=5)
        assert a.count("iteration") == b.count("iteration") == 1

    def test_null_hooks_accept_all_events(self):
        dispatcher = compose_hooks(CatchAll())
        for event, fields in EVENTS.items():
            handler = getattr(dispatcher, event)
            assert handler is not None
            handler(**dict.fromkeys(fields))

    def test_nested_composition_flattens_and_dedupes(self):
        a, b = TraceRecorder(), TraceRecorder()
        legacy = LegacyHooks()
        nested = compose_hooks(compose_hooks(a, b), legacy, a)
        assert nested.subscribers == (a, b, legacy)
        result = run(ANC, hooks=nested)
        assert a.count("rule_fired") == b.count("rule_fired") == len(legacy.fired)
        assert a.plans_built == b.plans_built == ANC_PLANS
        assert result.total_firings == len(legacy.fired)

    def test_legacy_subscriber_gets_only_its_fields(self):
        legacy = LegacyHooks()
        compose_hooks(legacy).rule_fired(rule="r", derived=2, seconds=0.5)
        assert legacy.fired == [("r", 2)]


class TestTraceRecorder:
    def test_records_layer_lifecycle(self):
        recorder = TraceRecorder()
        run(ANC, hooks=recorder)
        assert recorder.count("layer_start") == recorder.count("layer_end")
        assert recorder.count("layer_start") >= 1
        assert recorder.plans_built == ANC_PLANS

    def test_fact_events_cover_the_model(self):
        recorder = TraceRecorder()
        result = run(ANC, hooks=recorder)
        derived = {e.payload["fact"] for e in recorder.events if e.kind == "fact_derived"}
        assert derived == set(result.database.atoms("anc"))

    def test_events_carry_layer(self):
        recorder = TraceRecorder()
        run(ANC, hooks=recorder)
        fired = [e for e in recorder.events if e.kind == "rule_fired"]
        assert fired and all(e.payload["layer"] is not None for e in fired)

    def test_every_event_recorded_with_its_payload(self, tmp_path):
        recorder = TraceRecorder()
        run(ANC + "s(X, <Y>) <- parent(X, Y).", hooks=recorder)
        with LDL(ANC, path=str(tmp_path / "db"), hooks=recorder) as db:
            db.fact("parent", "c", "d")
            db.checkpoint()
        kinds = {event.kind for event in recorder.events}
        assert {
            "plan_built", "plan_reused", "layer_start", "layer_end",
            "scc_start", "scc_end", "iteration", "rule_fired",
            "fact_derived", "exec_steps", "wal_append", "wal_replay",
            "snapshot_write", "snapshot_load", "fsync", "edb_load",
        } <= kinds
        for event in recorder.events:
            assert set(event.payload) == set(EVENTS[event.kind]) | {"layer"}

    def test_format_summary(self):
        recorder = TraceRecorder()
        run(ANC, hooks=recorder)
        summary = recorder.format_summary()
        assert summary.startswith("% trace:")
        assert "plans built" in summary
        assert "rule firings" in summary


class TestSccPath:
    """``scc_end``, ``SCCStats`` and ``MetricsCollector.sccs`` name the
    path each component ran."""

    @staticmethod
    def _paths(result, metrics):
        stats = [scc.path for layer in result.layer_stats for scc in layer.sccs]
        assert stats == [entry["path"] for entry in metrics.sccs]
        return stats

    def test_closure_with_and_without_a_fact_handler(self):
        for hooks in (None, TraceRecorder()):
            metrics = MetricsCollector()
            result = run(ANC, hooks=hooks, metrics=metrics)
            assert self._paths(result, metrics) == ["closure"]
            assert result.total_iterations == 2
        # the attached handler saw every derived fact
        assert hooks.count("fact_derived") == 3

    def test_every_path_named(self):
        src = ANC + """
        reach(X) <- anc(a, X).
        tc(X, Y) <- parent(X, Y).
        tc(X, Y) <- tc(X, Z), tc(Z, Y).
        """
        paths = {}
        for strategy in ("seminaive", "naive"):
            metrics = MetricsCollector()
            result = run(src, strategy=strategy, metrics=metrics)
            paths[strategy] = dict(
                zip((entry["preds"][0] for entry in metrics.sccs),
                    self._paths(result, metrics))
            )
        assert paths["seminaive"] == {
            "anc": "closure", "reach": "single", "tc": "seminaive",
        }
        assert paths["naive"] == {"anc": "naive", "reach": "single", "tc": "naive"}

    def test_handler_without_path_still_called(self):
        class OldSccHandler:
            """An ``scc_end`` subscriber written before ``path``."""

            def __init__(self):
                self.ended = []

            def on_scc_end(self, layer, preds, recursive, new_facts, seconds):
                self.ended.append((sorted(preds), new_facts))

        old = OldSccHandler()
        run(ANC, hooks=old)
        assert old.ended == [(["anc"], 3)]


class TestMetricsCollector:
    def test_phases_recorded(self):
        metrics = MetricsCollector()
        run(ANC, metrics=metrics)
        assert "plan" in metrics.phases
        assert "match" in metrics.phases
        assert metrics.layers  # per-layer timings in evaluation order

    def test_grouping_phase_recorded(self):
        metrics = MetricsCollector()
        run("e(1, 2). e(1, 3). s(X, <Y>) <- e(X, Y).", metrics=metrics)
        assert "grouping" in metrics.phases

    def test_report_shape(self):
        metrics = MetricsCollector()
        run(ANC, metrics=metrics)
        report = metrics.report()
        assert set(report) == {
            "phases", "counters", "layers", "sccs", "join_orders"
        }
        assert all({"layer", "seconds"} == set(row) for row in report["layers"])
        # one entry per compiled plan: which join order the planner chose
        assert all(
            {"rule", "order", "first"} <= set(entry)
            for entry in report["join_orders"]
        )
        assert report["join_orders"]

    def test_result_carries_collector(self):
        metrics = MetricsCollector()
        result = run(ANC, metrics=metrics)
        assert result.metrics is metrics

    def test_format_mentions_counters(self):
        metrics = MetricsCollector()
        for _ in range(2):
            metrics.on_wal_append(op="add", facts=1, nbytes=10, seconds=0.001)
        assert "wal_records_appended=2" in metrics.format()
        assert "wal_append=2.00ms" in metrics.format()

    def test_collector_only_run_decodes_nothing(self, monkeypatch):
        decoded = []
        args_of = Relation.args_of

        def counting(self, row):
            decoded.append(row)
            return args_of(self, row)

        monkeypatch.setattr(Relation, "args_of", counting)
        # the compiled lane derives ID rows; only a fact_derived
        # subscriber makes install_rows decode them
        run(ANC, metrics=MetricsCollector())
        assert decoded == []
        run(ANC, hooks=TraceRecorder())
        assert decoded

    def test_grouping_rule_events(self, monkeypatch):
        # one rule_fired per grouping rule with derived = the number of
        # groups, one fact_derived per new grouped fact (decoded only
        # for a subscriber), one exec_steps per closure run
        src = "e(1, 2). e(1, 3). e(2, 3). s(X, <Y>) <- e(X, Y)."
        decoded = []
        args_of = Relation.args_of

        def counting(self, row):
            decoded.append(row)
            return args_of(self, row)

        monkeypatch.setattr(Relation, "args_of", counting)
        run(src, metrics=MetricsCollector())
        assert decoded == []
        recorder = TraceRecorder()
        run(src, hooks=recorder)
        (fired,) = [e for e in recorder.events if e.kind == "rule_fired"]
        assert fired.payload["derived"] == 2
        derived = [e for e in recorder.events if e.kind == "fact_derived"]
        assert sorted(format_atom(e.payload["fact"]) for e in derived) == [
            "s(1, {2, 3})", "s(2, {3})",
        ]
        assert sum(e.kind == "exec_steps" for e in recorder.events) == 1

    def test_metrics_passed_twice_report_once(self):
        metrics = MetricsCollector()
        run(ANC, hooks=metrics, metrics=metrics)
        assert metrics.counters["plans_built"] == ANC_PLANS


class TestApiTrace:
    def test_trace_records_model_evaluation(self):
        session = LDL(ANC, trace=True)
        session.model()
        assert session.trace is not None
        assert session.trace.plans_built == ANC_PLANS

    def test_trace_off_by_default(self):
        assert LDL(ANC).trace is None

    def test_external_hooks_compose_with_trace(self):
        mine = TraceRecorder()
        session = LDL(ANC, hooks=mine, trace=True)
        session.model()
        assert mine.plans_built == session.trace.plans_built == ANC_PLANS


class TestApiMetrics:
    """``LDL(metrics=)`` joins the session's subscribers, so every path
    the session evaluates on reports into the collector."""

    def test_model_reports_engine_phases(self):
        metrics = MetricsCollector()
        result = LDL(ANC, metrics=metrics).model()
        assert {"plan", "match"} <= set(metrics.phases)
        assert metrics.counters["plans_built"] == ANC_PLANS
        assert result.metrics is metrics

    def test_on_demand_queries_report(self):
        metrics = MetricsCollector()
        session = LDL(ANC, metrics=metrics)
        assert session.query("? anc(a, X).", strategy="magic")
        session.on_demand_rows("? anc(b, X).")
        assert "match" in metrics.phases
        assert metrics.join_orders

    def test_durable_session_reports_engine_and_storage(self, tmp_path):
        metrics = MetricsCollector()
        with LDL(ANC, path=str(tmp_path / "db"), metrics=metrics) as session:
            session.fact("parent", "c", "d")
            assert session.query("? anc(a, d).")
        assert {"plan", "match", "wal_append", "snapshot_load"} <= set(
            metrics.phases
        )
        assert metrics.counters["wal_records_appended"] == 1


class TestCliTrace:
    def _invoke(self, tmp_path, argv_extra):
        path = tmp_path / "prog.ldl"
        path.write_text(ANC + "? anc(a, X).\n")
        out = io.StringIO()
        code = cli_run([str(path), *argv_extra], out=out)
        return code, out.getvalue()

    def test_trace_summary_printed(self, tmp_path):
        code, output = self._invoke(tmp_path, ["--trace"])
        assert code == 0
        assert "% trace:" in output
        assert "plans built" in output

    def test_no_trace_by_default(self, tmp_path):
        code, output = self._invoke(tmp_path, [])
        assert code == 0
        assert "% trace:" not in output
