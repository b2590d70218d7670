"""Engine-wide observability: hooks, structured tracing, and metrics.

The evaluation engine reports its progress through an
:class:`EngineHooks` implementation attached to the
:class:`~repro.engine.context.EvalContext`.  Three implementations ship
here:

* :data:`NULL_HOOKS` — the no-op default.  Hot paths test
  ``context.observing`` (a plain attribute) before dispatching, so the
  default adds no measurable overhead;
* :class:`TraceRecorder` — records every event as a structured
  :class:`TraceEvent` and can summarize a run (rule firings per layer,
  plans built, facts derived).  The CLI's ``--trace`` flag uses it;
* :class:`MetricsCollector` — wall-clock time per engine phase
  (``plan``, ``match``, ``grouping``) and per layer, feeding the
  benchmark harness' phase-attribution tables.

Several hooks can be active at once via :func:`compose_hooks`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.plan import RulePlan
    from repro.program.rule import Atom, Rule


@runtime_checkable
class EngineHooks(Protocol):
    """Observation points raised by every evaluation strategy.

    Implementations may ignore any subset; all methods return None and
    must not mutate engine state.  ``on_plan_built`` fires once per
    compiled :class:`~repro.engine.plan.RulePlan` (so a counter on it
    verifies plan caching); the remaining hooks follow the Theorem 1
    pipeline: layers, fixpoint iterations, rule firings, derived facts.
    """

    def on_plan_built(self, plan: "RulePlan") -> None: ...

    def on_layer_start(self, layer: int, rules: Sequence["Rule"]) -> None: ...

    def on_layer_end(self, layer: int, new_facts: int) -> None: ...

    def on_iteration(self, iteration: int, new_facts: int) -> None: ...

    def on_rule_fired(self, rule: "Rule", derived: int) -> None: ...

    def on_fact_derived(self, fact: "Atom", rule: "Rule | None") -> None: ...


#: Storage observation points (:mod:`repro.storage`).  These are *not*
#: part of the :class:`EngineHooks` protocol so hook implementations
#: written before the storage engine keep working; the storage layer
#: dispatches them through :func:`emit_storage_event`, which silently
#: skips hooks that do not implement a method.
#:
#: * ``on_wal_append(op=..., facts=..., nbytes=...)`` — one batch framed
#:   and written to the write-ahead log;
#: * ``on_wal_replay(records=..., facts=...)`` — recovery replayed the
#:   log through the incremental engine;
#: * ``on_snapshot_write(path=..., facts=..., nbytes=...)`` — a snapshot
#:   was atomically published;
#: * ``on_snapshot_load(path=..., facts=..., restored=...)`` — a
#:   snapshot was read; ``restored`` is True when the materialized model
#:   was adopted wholesale (fixpoint skipped).
STORAGE_EVENTS = (
    "on_wal_append",
    "on_wal_replay",
    "on_snapshot_write",
    "on_snapshot_load",
)

#: SCC-scheduler observation points (:mod:`repro.engine.evaluator`).
#: Dispatched tolerantly like storage events, so hook implementations
#: written before SCC condensation keep working:
#:
#: * ``on_scc_start(layer=..., preds=..., recursive=...)`` — one
#:   component of the stratum's condensation is about to run; ``layer``
#:   is None outside layered evaluation (magic saturation);
#: * ``on_scc_end(layer=..., preds=..., new_facts=..., seconds=...)`` —
#:   the component reached its (single-pass or fixpoint) end.
SCC_EVENTS = (
    "on_scc_start",
    "on_scc_end",
)

#: Differential-maintenance observation points
#: (:mod:`repro.engine.maintain`).  Dispatched tolerantly like storage
#: events, so hook implementations written before delta maintenance
#: keep working:
#:
#: * ``on_delta_batch(lsn=..., mode=..., inserted=..., deleted=...)`` —
#:   one maintained update published its net model delta; ``lsn`` is
#:   the WAL LSN of the producing mutation (None outside the durable
#:   store), ``inserted``/``deleted`` are net fact counts.
MAINTENANCE_EVENTS = (
    "on_delta_batch",
)

#: Events dispatched via :func:`emit_event` (tolerant getattr dispatch).
OPTIONAL_EVENTS = STORAGE_EVENTS + SCC_EVENTS + MAINTENANCE_EVENTS


def emit_event(hooks, name: str, **payload) -> None:
    """Dispatch an optional event to ``hooks`` if it implements ``name``."""
    if hooks is None:
        return
    method = getattr(hooks, name, None)
    if method is not None:
        method(**payload)


#: Back-compat alias — the storage layer predates the generic dispatcher.
emit_storage_event = emit_event


class NullHooks:
    """The do-nothing default hook implementation."""

    __slots__ = ()

    def on_plan_built(self, plan) -> None:
        pass

    def on_layer_start(self, layer, rules) -> None:
        pass

    def on_layer_end(self, layer, new_facts) -> None:
        pass

    def on_iteration(self, iteration, new_facts) -> None:
        pass

    def on_rule_fired(self, rule, derived) -> None:
        pass

    def on_fact_derived(self, fact, rule) -> None:
        pass

    def on_wal_append(self, op, facts, nbytes) -> None:
        pass

    def on_wal_replay(self, records, facts) -> None:
        pass

    def on_snapshot_write(self, path, facts, nbytes) -> None:
        pass

    def on_snapshot_load(self, path, facts, restored) -> None:
        pass

    def on_scc_start(self, layer, preds, recursive) -> None:
        pass

    def on_scc_end(self, layer, preds, new_facts, seconds) -> None:
        pass

    def on_delta_batch(self, lsn, mode, inserted, deleted) -> None:
        pass


#: Shared no-op instance; contexts compare against it to skip dispatch.
NULL_HOOKS = NullHooks()


class CompositeHooks:
    """Fan one event stream out to several hook implementations."""

    __slots__ = ("hooks",)

    def __init__(self, hooks: Sequence[EngineHooks]) -> None:
        self.hooks = tuple(hooks)

    def on_plan_built(self, plan) -> None:
        for hook in self.hooks:
            hook.on_plan_built(plan)

    def on_layer_start(self, layer, rules) -> None:
        for hook in self.hooks:
            hook.on_layer_start(layer, rules)

    def on_layer_end(self, layer, new_facts) -> None:
        for hook in self.hooks:
            hook.on_layer_end(layer, new_facts)

    def on_iteration(self, iteration, new_facts) -> None:
        for hook in self.hooks:
            hook.on_iteration(iteration, new_facts)

    def on_rule_fired(self, rule, derived) -> None:
        for hook in self.hooks:
            hook.on_rule_fired(rule, derived)

    def on_fact_derived(self, fact, rule) -> None:
        for hook in self.hooks:
            hook.on_fact_derived(fact, rule)

    def __getattr__(self, name: str):
        # storage and SCC events fan out too, tolerating member hooks
        # that predate them (see OPTIONAL_EVENTS).
        if name in OPTIONAL_EVENTS:
            def dispatch(**payload) -> None:
                for hook in self.hooks:
                    emit_event(hook, name, **payload)

            return dispatch
        raise AttributeError(name)


def compose_hooks(*hooks: EngineHooks | None) -> EngineHooks:
    """Combine hooks, dropping Nones and no-ops; NULL_HOOKS when empty."""
    active = [h for h in hooks if h is not None and h is not NULL_HOOKS]
    if not active:
        return NULL_HOOKS
    if len(active) == 1:
        return active[0]
    return CompositeHooks(active)


@dataclass(frozen=True)
class TraceEvent:
    """One structured engine event: a kind tag plus its payload."""

    kind: str
    payload: dict


class TraceRecorder:
    """Hook implementation that records every event for inspection.

    The recorded stream is available as :attr:`events`; convenience
    accessors aggregate the common questions (how many plans were
    built, which rules fired per layer).  ``format_summary`` renders
    the per-layer firing table the CLI prints under ``--trace``.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._layer: int | None = None

    # -- hook protocol -----------------------------------------------------

    def on_plan_built(self, plan) -> None:
        self.events.append(
            TraceEvent(
                "plan_built",
                {
                    "rule": plan.rule,
                    "order": plan.order,
                    "first": plan.first,
                },
            )
        )

    def on_layer_start(self, layer, rules) -> None:
        self._layer = layer
        self.events.append(
            TraceEvent("layer_start", {"layer": layer, "rules": tuple(rules)})
        )

    def on_layer_end(self, layer, new_facts) -> None:
        self.events.append(
            TraceEvent("layer_end", {"layer": layer, "new_facts": new_facts})
        )
        self._layer = None

    def on_iteration(self, iteration, new_facts) -> None:
        self.events.append(
            TraceEvent(
                "iteration",
                {
                    "layer": self._layer,
                    "iteration": iteration,
                    "new_facts": new_facts,
                },
            )
        )

    def on_rule_fired(self, rule, derived) -> None:
        self.events.append(
            TraceEvent(
                "rule_fired",
                {"layer": self._layer, "rule": rule, "derived": derived},
            )
        )

    def on_fact_derived(self, fact, rule) -> None:
        self.events.append(
            TraceEvent(
                "fact_derived",
                {"layer": self._layer, "fact": fact, "rule": rule},
            )
        )

    # -- storage events (see STORAGE_EVENTS) -------------------------------

    def on_wal_append(self, op, facts, nbytes) -> None:
        self.events.append(
            TraceEvent("wal_append", {"op": op, "facts": facts, "nbytes": nbytes})
        )

    def on_wal_replay(self, records, facts) -> None:
        self.events.append(
            TraceEvent("wal_replay", {"records": records, "facts": facts})
        )

    def on_snapshot_write(self, path, facts, nbytes) -> None:
        self.events.append(
            TraceEvent(
                "snapshot_write",
                {"path": path, "facts": facts, "nbytes": nbytes},
            )
        )

    def on_snapshot_load(self, path, facts, restored) -> None:
        self.events.append(
            TraceEvent(
                "snapshot_load",
                {"path": path, "facts": facts, "restored": restored},
            )
        )

    # -- SCC scheduler events (see SCC_EVENTS) ------------------------------

    def on_scc_start(self, layer, preds, recursive) -> None:
        self.events.append(
            TraceEvent(
                "scc_start",
                {"layer": layer, "preds": preds, "recursive": recursive},
            )
        )

    def on_scc_end(self, layer, preds, new_facts, seconds) -> None:
        self.events.append(
            TraceEvent(
                "scc_end",
                {
                    "layer": layer,
                    "preds": preds,
                    "new_facts": new_facts,
                    "seconds": seconds,
                },
            )
        )

    # -- maintenance events (see MAINTENANCE_EVENTS) ------------------------

    def on_delta_batch(self, lsn, mode, inserted, deleted) -> None:
        self.events.append(
            TraceEvent(
                "delta_batch",
                {
                    "lsn": lsn,
                    "mode": mode,
                    "inserted": inserted,
                    "deleted": deleted,
                },
            )
        )

    # -- aggregation -------------------------------------------------------

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def plans_built(self) -> int:
        return self.count("plan_built")

    def firings_per_layer(self) -> dict[int | None, int]:
        """Rule applications keyed by layer (None: outside layers).

        Counts ``rule_fired`` events — the same unit as
        :attr:`~repro.engine.fixpoint.FixpointStats.rule_firings` — not
        the tuples each firing produced (those are in the event's
        ``derived`` payload and in :meth:`facts_per_layer`).
        """
        out: dict[int | None, int] = {}
        for event in self.events:
            if event.kind == "rule_fired":
                layer = event.payload["layer"]
                out[layer] = out.get(layer, 0) + 1
        return out

    def facts_per_layer(self) -> dict[int | None, int]:
        out: dict[int | None, int] = {}
        for event in self.events:
            if event.kind == "fact_derived":
                layer = event.payload["layer"]
                out[layer] = out.get(layer, 0) + 1
        return out

    def format_summary(self) -> str:
        """A per-layer firing/fact table, e.g. for the CLI's --trace."""
        firings = self.firings_per_layer()
        facts = self.facts_per_layer()
        lines = [
            f"% trace: {len(self.events)} events, {self.plans_built} plans built"
        ]
        for layer in sorted(
            set(firings) | set(facts), key=lambda x: (x is None, x)
        ):
            label = f"layer {layer}" if layer is not None else "unlayered"
            lines.append(
                f"%   {label}: {firings.get(layer, 0)} rule firings, "
                f"{facts.get(layer, 0)} new facts"
            )
        return "\n".join(lines)


@dataclass
class MetricsCollector:
    """Wall-clock attribution per engine phase and per layer.

    ``phases`` accumulates seconds under free-form names — the engine
    uses ``plan`` (RulePlan compilation), ``match`` (body enumeration +
    head instantiation) and ``grouping`` (the R1 step); ``layers`` holds
    ``(layer, seconds)`` pairs in evaluation order.  ``counters`` holds
    integer tallies (``plans_built``, ``plan_cache_hits``, the
    batch-executor tallies ``batch_steps``/``batch_bindings``/
    ``batch_peak``, the vector-kernel tallies ``kernel_calls``/
    ``kernel_rows`` — with ``rows_per_dispatch`` derived in
    :meth:`report` — and the intern table's ``id_table_size``
    high-water mark).  ``join_orders`` records the chosen per-rule join
    order for every plan compiled under this collector.
    """

    phases: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    layers: list[tuple[int, float]] = field(default_factory=list)
    sccs: list[dict] = field(default_factory=list)
    join_orders: list[dict] = field(default_factory=list)

    def add_time(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def incr(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def add_layer_time(self, layer: int, seconds: float) -> None:
        self.layers.append((layer, seconds))

    def add_scc_time(
        self, layer: int | None, preds, recursive: bool, seconds: float
    ) -> None:
        """One SCC finished: record its predicates, kind, and wall time."""
        self.sccs.append(
            {
                "layer": layer,
                "preds": sorted(preds),
                "recursive": recursive,
                "seconds": seconds,
            }
        )

    def record_storage(
        self, bytes_written: int = 0, fsyncs: int = 0, replayed: int = 0
    ) -> None:
        """Tally storage I/O: bytes framed to disk, fsync calls, and WAL
        records replayed during recovery."""
        if bytes_written:
            self.incr("storage_bytes_written", bytes_written)
        if fsyncs:
            self.incr("storage_fsyncs", fsyncs)
        if replayed:
            self.incr("wal_records_replayed", replayed)

    def record_join_order(self, plan) -> None:
        """One plan compiled: record the join order the planner chose."""
        from repro.program.rule import format_rule

        rule = getattr(plan, "rule", None)
        self.join_orders.append(
            {
                "rule": format_rule(rule) if rule is not None else None,
                "order": list(plan.order),
                "first": plan.first,
            }
        )

    def record_batch(self, size: int) -> None:
        """One batch-executor step finished with ``size`` live bindings."""
        counters = self.counters
        counters["batch_steps"] = counters.get("batch_steps", 0) + 1
        counters["batch_bindings"] = counters.get("batch_bindings", 0) + size
        if size > counters.get("batch_peak", 0):
            counters["batch_peak"] = size

    def record_kernel(self, rows: int, calls: int = 1) -> None:
        """Vector-kernel dispatches: ``calls`` whole-column kernel
        invocations processed ``rows`` rows in total.  The derived
        ``rows_per_dispatch`` in :meth:`report` quantifies how much
        interpreter dispatch the vectorized lane amortizes — higher is
        better (one Python-level call covering more rows)."""
        counters = self.counters
        counters["kernel_calls"] = counters.get("kernel_calls", 0) + calls
        counters["kernel_rows"] = counters.get("kernel_rows", 0) + rows

    def record_maintain_dispatch(self, rows: int) -> None:
        """One maintenance delta dispatched as a row batch (``rows``
        rows); :meth:`report` derives ``maintain_rows_per_dispatch``."""
        counters = self.counters
        counters["maintain_dispatches"] = (
            counters.get("maintain_dispatches", 0) + 1
        )
        counters["maintain_rows"] = counters.get("maintain_rows", 0) + rows

    def record_id_table(self, size: int) -> None:
        """Snapshot the dense term-ID table size (distinct interned
        ground terms process-wide).  The high-water mark is kept: the
        table only grows between ``clear_intern_table`` calls, so the
        max over snapshots is the run's dictionary footprint."""
        if size > self.counters.get("id_table_size", 0):
            self.counters["id_table_size"] = size

    def now(self) -> float:
        return time.perf_counter()

    def report(self) -> dict:
        """A JSON-friendly snapshot for benchmark output."""
        counters = dict(self.counters)
        calls = counters.get("kernel_calls", 0)
        if calls:
            counters["rows_per_dispatch"] = round(
                counters.get("kernel_rows", 0) / calls, 1
            )
        dispatches = counters.get("maintain_dispatches", 0)
        if dispatches:
            counters["maintain_rows_per_dispatch"] = round(
                counters.get("maintain_rows", 0) / dispatches, 1
            )
        return {
            "phases": dict(self.phases),
            "counters": counters,
            "layers": [
                {"layer": layer, "seconds": seconds}
                for layer, seconds in self.layers
            ],
            "sccs": [dict(entry) for entry in self.sccs],
            "join_orders": [dict(entry) for entry in self.join_orders],
        }

    def format(self) -> str:
        parts = [
            f"{name}={seconds * 1000:.2f}ms"
            for name, seconds in sorted(self.phases.items())
        ]
        parts.extend(
            f"{name}={value}" for name, value in sorted(self.counters.items())
        )
        return " ".join(parts)


#: Upper bounds (seconds) of the server latency histogram buckets; one
#: implicit +inf bucket follows.  Prometheus-style cumulative counts.
SERVER_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class ServerMetrics:
    """Request-level counters for :class:`repro.server.LDLServer`.

    Tracks per-op request and error counts, an in-flight gauge (with
    high-water mark), connection totals, and a fixed-bucket latency
    histogram.  Updated from executor threads and the event loop alike,
    so every mutation takes an internal mutex; :meth:`report` returns
    the JSON-friendly snapshot the ``stats`` op serves.
    """

    def __init__(self, buckets: Sequence[float] = SERVER_LATENCY_BUCKETS) -> None:
        self._mutex = threading.Lock()
        self.buckets = tuple(buckets)
        self.requests: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.in_flight = 0
        self.peak_in_flight = 0
        self.connections_opened = 0
        self.connections_closed = 0
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._latency_sum = 0.0
        self._latency_count = 0
        # answer-cache outcomes ("hit"/"hit-subsumed"/"miss"/
        # "invalidation_events"/"invalidated") and gateway admission
        # rejections ("connections"/"admission"/"body"), by kind.
        self.cache_events: dict[str, int] = {}
        self.rejections: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def record_cache(self, kind: str, n: int = 1) -> None:
        """Count ``n`` answer-cache outcomes of ``kind``."""
        with self._mutex:
            self.cache_events[kind] = self.cache_events.get(kind, 0) + n

    def record_rejection(self, reason: str) -> None:
        """Count one admission-control rejection (gateway 503/413)."""
        with self._mutex:
            self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def connection_opened(self) -> None:
        with self._mutex:
            self.connections_opened += 1

    def connection_closed(self) -> None:
        with self._mutex:
            self.connections_closed += 1

    def request_started(self, op: str) -> None:
        with self._mutex:
            self.requests[op] = self.requests.get(op, 0) + 1
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def request_finished(self, op: str, seconds: float, ok: bool = True) -> None:
        with self._mutex:
            self.in_flight -= 1
            if not ok:
                self.errors[op] = self.errors.get(op, 0) + 1
            self._latency_sum += seconds
            self._latency_count += 1
            for i, bound in enumerate(self.buckets):
                if seconds <= bound:
                    self._bucket_counts[i] += 1
                    return
            self._bucket_counts[-1] += 1

    # -- reporting ---------------------------------------------------------

    def latency_histogram(self) -> dict[str, int]:
        """Cumulative counts keyed by upper bound (``"inf"`` closes it)."""
        with self._mutex:
            out: dict[str, int] = {}
            running = 0
            for bound, count in zip(self.buckets, self._bucket_counts):
                running += count
                out[repr(bound)] = running
            out["inf"] = running + self._bucket_counts[-1]
            return out

    def report(self) -> dict:
        histogram = self.latency_histogram()
        with self._mutex:
            total = sum(self.requests.values())
            return {
                "requests": dict(self.requests),
                "errors": dict(self.errors),
                "requests_total": total,
                "errors_total": sum(self.errors.values()),
                "in_flight": self.in_flight,
                "peak_in_flight": self.peak_in_flight,
                "connections_opened": self.connections_opened,
                "connections_closed": self.connections_closed,
                "cache": dict(self.cache_events),
                "rejections": dict(self.rejections),
                "latency": {
                    "count": self._latency_count,
                    "sum_seconds": self._latency_sum,
                    "mean_seconds": (
                        self._latency_sum / self._latency_count
                        if self._latency_count
                        else 0.0
                    ),
                    "buckets": histogram,
                },
            }

    def format(self) -> str:
        report = self.report()
        ops = " ".join(
            f"{op}={count}" for op, count in sorted(report["requests"].items())
        )
        return (
            f"requests={report['requests_total']} ({ops}) "
            f"errors={report['errors_total']} "
            f"in_flight={report['in_flight']} "
            f"peak={report['peak_in_flight']} "
            f"mean_latency={report['latency']['mean_seconds'] * 1000:.2f}ms"
        )
