"""Tests for engine observability (repro.observe) and its surfaces.

TraceRecorder/MetricsCollector behavior, hook composition, the
``trace=``/``hooks=`` arguments on the api layer, and the CLI's
``--trace`` summary.
"""

import io

from repro.api import LDL
from repro.cli import run as cli_run
from repro.observe import (
    NULL_HOOKS,
    CompositeHooks,
    MetricsCollector,
    NullHooks,
    TraceRecorder,
    compose_hooks,
)

from tests.helpers import run

ANC = """
parent(a, b). parent(b, c).
anc(X, Y) <- parent(X, Y).
anc(X, Y) <- parent(X, Z), anc(Z, Y).
"""


class TestComposeHooks:
    def test_empty_is_null(self):
        assert compose_hooks() is NULL_HOOKS
        assert compose_hooks(None, NULL_HOOKS) is NULL_HOOKS

    def test_single_passthrough(self):
        recorder = TraceRecorder()
        assert compose_hooks(None, recorder) is recorder

    def test_composite_fans_out(self):
        a, b = TraceRecorder(), TraceRecorder()
        combined = compose_hooks(a, b)
        assert isinstance(combined, CompositeHooks)
        combined.on_iteration(1, 5)
        assert a.count("iteration") == b.count("iteration") == 1

    def test_null_hooks_accept_all_events(self):
        hooks = NullHooks()
        hooks.on_plan_built(None)
        hooks.on_layer_start(0, ())
        hooks.on_layer_end(0, 0)
        hooks.on_iteration(0, 0)
        hooks.on_rule_fired(None, 0)
        hooks.on_fact_derived(None, None)


class TestTraceRecorder:
    def test_records_layer_lifecycle(self):
        recorder = TraceRecorder()
        run(ANC, hooks=recorder)
        assert recorder.count("layer_start") == recorder.count("layer_end")
        assert recorder.count("layer_start") >= 1
        assert recorder.plans_built == 3

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

    def test_format_summary(self):
        recorder = TraceRecorder()
        run(ANC, hooks=recorder)
        summary = recorder.format_summary()
        assert summary.startswith("% trace:")
        assert "plans built" in summary
        assert "rule firings" in summary


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
        metrics.add_time("plan", 0.001)
        metrics.incr("plans_built", 2)
        assert "plans_built=2" in metrics.format()


class TestApiTrace:
    def test_trace_records_model_evaluation(self):
        session = LDL(ANC, trace=True)
        session.model()
        assert session.trace is not None
        assert session.trace.plans_built == 3

    def test_trace_off_by_default(self):
        assert LDL(ANC).trace is None

    def test_external_hooks_compose_with_trace(self):
        mine = TraceRecorder()
        session = LDL(ANC, hooks=mine, trace=True)
        session.model()
        assert mine.plans_built == session.trace.plans_built == 3


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
