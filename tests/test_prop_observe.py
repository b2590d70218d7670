"""Observing does not change the run.

Whatever subscribes — nobody, a :class:`~repro.observe.TraceRecorder`,
a :class:`~repro.observe.MetricsCollector`, or a catch-all hook that
claims every event — a generated admissible program evaluates to the
same model, spelled the same, with the same per-layer work counters.
"""

from hypothesis import given, settings

from repro.engine import evaluate
from repro.observe import MetricsCollector, TraceRecorder
from repro.terms.pretty import format_atom

from tests.strategies import generated_programs


class CatchAll:
    """Observes everything and records nothing."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


def _run(generated, **observers):
    result = evaluate(generated.program, edb=generated.edb, **observers)
    model = [format_atom(a) for a in result.database.sorted_atoms()]
    layers = [
        (s.layer, s.grouping_facts, s.fixpoint) for s in result.layer_stats
    ]
    return model, layers


@given(generated_programs)
@settings(max_examples=25, deadline=None)
def test_observers_do_not_change_model_or_work(generated):
    plain = _run(generated)
    recorder = TraceRecorder()
    assert _run(generated, hooks=recorder) == plain
    assert _run(generated, metrics=MetricsCollector()) == plain
    assert _run(generated, hooks=CatchAll()) == plain
    # the recorder saw the run it did not change
    assert recorder.count("layer_end") == len(plain[1])
