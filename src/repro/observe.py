"""Engine-wide observability: one event channel and its subscribers.

Every observation point of the engine and the storage layer is an
*event*: a name from :data:`EVENTS` plus its keyword payload.  A
*subscriber* is any object with any subset of ``on_<event>`` methods.
:func:`compose_hooks` resolves subscribers once — when a context,
model, store or WAL is built — into a :class:`Dispatcher` holding one
handler per event: None when nobody listens, the subscriber's bound
method when one does, a fan-out when several do.  Emitters guard with
``if handler is not None``, so an unobserved run pays one attribute
check per event site, and a run nobody asks for facts never decodes
one.

Two subscribers ship here:

* :class:`TraceRecorder` — records every event as a structured
  :class:`TraceEvent` and summarizes a run (rule firings per layer,
  plans built, facts derived).  The CLI's ``--trace`` flag uses it;
* :class:`MetricsCollector` — wall-clock time per engine and storage
  phase, per layer and per SCC, plus work counters, read off the event
  payloads; it feeds the benchmark harness' phase-attribution tables.

:class:`ServerMetrics` (request counters of the server) is separate:
it observes requests, not engine events.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.terms.term import id_table_size

#: Every event and its keyword payload, in emission order of fields.
#:
#: Engine (:mod:`repro.engine`):
#:
#: * ``plan_built`` — a :class:`~repro.engine.plan.RulePlan` was
#:   compiled (``seconds`` to compile it); ``plan_reused`` — a cached
#:   plan was served instead;
#: * ``layer_start``/``layer_end`` — one layer of Theorem 1's layered
#:   fixpoint (``rules`` its proper rules, ``new_facts`` what it added,
#:   ``seconds`` its wall time);
#: * ``scc_start``/``scc_end`` — one component of a layer's SCC
#:   schedule; ``layer`` is None outside layered evaluation;
#: * ``iteration`` — one fixpoint round and the facts it added;
#: * ``rule_fired`` — one rule application: ``derived`` facts emitted
#:   (before dedup) in ``seconds``;
#: * ``fact_derived`` — one new fact and the rule that derived it (the
#:   only event that makes the engine decode ID rows);
#: * ``exec_steps`` — one run of a compiled closure: ``counts`` holds the
#:   bindings each plan step produced, ``rows`` the ID tuples the
#:   closure emitted;
#: * ``delta_batch`` — one maintained update published its net delta
#:   (``lsn`` of the WAL record or None, ``inserted``/``deleted`` net
#:   fact counts, ``stats`` its :class:`~repro.engine.incremental.UpdateStats`);
#: * ``maintain_dispatch`` — maintenance ran one rule over ``rows`` delta
#:   rows.
#:
#: Storage (:mod:`repro.storage`):
#:
#: * ``wal_append`` — one batch framed, written and (per the fsync
#:   policy) synced;
#: * ``wal_replay`` — recovery replayed the WAL's ``records`` through
#:   the incremental engine (0 when the log was empty);
#: * ``snapshot_write`` — a snapshot was atomically published;
#: * ``snapshot_load`` — a store's open loaded its snapshot and built the
#:   model; ``restored`` is True when the materialized model was adopted
#:   wholesale (fixpoint skipped), ``facts`` is 0 when there was none;
#: * ``fsync`` — one ``os.fsync`` of a file or directory.
EVENTS: dict[str, tuple[str, ...]] = {
    "plan_built": ("plan", "seconds"),
    "plan_reused": ("plan",),
    "layer_start": ("layer", "rules"),
    "layer_end": ("layer", "new_facts", "seconds"),
    "scc_start": ("layer", "preds", "recursive"),
    "scc_end": ("layer", "preds", "recursive", "new_facts", "seconds"),
    "iteration": ("iteration", "new_facts"),
    "rule_fired": ("rule", "derived", "seconds"),
    "fact_derived": ("fact", "rule"),
    "exec_steps": ("counts", "rows"),
    "delta_batch": ("lsn", "mode", "inserted", "deleted", "stats"),
    "maintain_dispatch": ("rows",),
    "wal_append": ("op", "facts", "nbytes", "seconds"),
    "wal_replay": ("records", "facts", "seconds"),
    "snapshot_write": ("path", "facts", "nbytes", "seconds"),
    "snapshot_load": ("path", "facts", "restored", "seconds"),
    "fsync": ("path",),
}

#: What ``hooks=`` accepts: any object with any subset of ``on_<event>``
#: methods, or a :class:`Dispatcher` already resolved from several.
Subscriber = object


def _handler(subscriber, event: str, fields: tuple[str, ...]):
    """``subscriber``'s handler for ``event``, or None.

    A method that does not take every payload field (one written before
    a field was added) is wrapped to receive only the fields it names."""
    method = getattr(subscriber, "on_" + event, None)
    if method is None:
        return None
    try:
        params = inspect.signature(method).parameters.values()
    except (TypeError, ValueError):  # not introspectable: pass everything
        return method
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return method
    names = {p.name for p in params}
    if names.issuperset(fields):
        return method
    taken = tuple(f for f in fields if f in names)
    return lambda **payload: method(**{f: payload[f] for f in taken})


def _fan_out(handlers: list):
    if not handlers:
        return None
    if len(handlers) == 1:
        return handlers[0]

    def fan_out(**payload) -> None:
        for handler in handlers:
            handler(**payload)

    return fan_out


class Dispatcher:
    """Subscribers resolved into one handler attribute per event.

    ``dispatcher.rule_fired`` is None when no subscriber implements
    ``on_rule_fired``; otherwise calling it with the event's keyword
    payload reaches every subscriber that does, in subscription order.
    """

    __slots__ = ("subscribers", *EVENTS)

    def __init__(self, subscribers: Sequence[Subscriber] = ()) -> None:
        self.subscribers = tuple(subscribers)
        for event, fields in EVENTS.items():
            handlers = [_handler(s, event, fields) for s in self.subscribers]
            setattr(
                self, event, _fan_out([h for h in handlers if h is not None])
            )

    def __repr__(self) -> str:
        return f"Dispatcher({len(self.subscribers)} subscribers)"


#: The dispatcher of nobody: every handler is None.
SILENT = Dispatcher()


def compose_hooks(*hooks: Subscriber | None) -> Dispatcher:
    """Resolve subscribers into one :class:`Dispatcher`.

    Nones and repeats (by identity) drop out and dispatchers are
    flattened into their subscribers, so composing is associative and a
    collector passed both as ``hooks`` and ``metrics`` reports once.  A
    lone dispatcher comes back as itself, and no subscribers give
    :data:`SILENT`.
    """
    live = [h for h in hooks if h is not None]
    if len(live) == 1 and type(live[0]) is Dispatcher:
        return live[0]
    subscribers: list = []
    for hook in live:
        for sub in hook.subscribers if type(hook) is Dispatcher else (hook,):
            if all(sub is not seen for seen in subscribers):
                subscribers.append(sub)
    return Dispatcher(subscribers) if subscribers else SILENT


@dataclass(frozen=True)
class TraceEvent:
    """One structured engine event: a kind tag plus its payload."""

    kind: str
    payload: dict


class TraceRecorder:
    """Subscriber that records every event for inspection.

    Each event becomes a :class:`TraceEvent` whose payload is the
    event's keyword payload, tagged with the enclosing ``layer`` (None
    outside layers) unless the payload names one itself.  The recorded
    stream is available as :attr:`events`; convenience accessors
    aggregate the common questions (how many plans were built, which
    rules fired per layer).  ``format_summary`` renders the per-layer
    firing table the CLI prints under ``--trace``.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._layer: int | None = None

    def __getattr__(self, name: str):
        kind = name[3:]
        if not name.startswith("on_") or kind not in EVENTS:
            raise AttributeError(name)
        return lambda **payload: self.record(kind, payload)

    def record(self, kind: str, payload: dict) -> None:
        if kind == "layer_start":
            self._layer = payload["layer"]
        payload.setdefault("layer", self._layer)
        self.events.append(TraceEvent(kind, payload))
        if kind == "layer_end":
            self._layer = None

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
        return self._per_layer("rule_fired")

    def facts_per_layer(self) -> dict[int | None, int]:
        return self._per_layer("fact_derived")

    def _per_layer(self, kind: str) -> dict[int | None, int]:
        out: dict[int | None, int] = {}
        for event in self.events:
            if event.kind == kind:
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
    """Subscriber attributing wall-clock time and work to phases.

    ``phases`` accumulates seconds under the engine phases ``plan``
    (RulePlan compilation), ``match`` (rule applications) and
    ``grouping`` (the R1 step), and the storage phases ``wal_append``,
    ``wal_replay``, ``snapshot_write`` and ``snapshot_load``.
    ``layers`` holds ``(layer, seconds)`` pairs in evaluation order and
    ``sccs`` one entry per scheduled component.  ``counters`` holds
    integer tallies: ``plans_built`` and ``plan_cache_hits``; the
    compiled closures' per-step binding counts (``batch_steps`` steps
    entered, ``batch_bindings`` bindings they produced, ``batch_peak``
    the largest) and their runs (``kernel_calls`` compiled runs that
    emitted ``kernel_rows`` ID tuples, with ``rows_per_dispatch``
    derived in :meth:`report`); maintenance tallies (``maint_*``,
    ``maintain_dispatches``/``maintain_rows``); storage I/O
    (``storage_bytes_written``, ``storage_fsyncs``, WAL records
    appended and replayed, snapshot writes and restores); and the
    intern table's ``id_table_size`` high-water mark at each layer end.
    ``join_orders`` records the chosen join order of every plan
    compiled while the collector listened.
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

    # -- engine events -----------------------------------------------------

    def on_plan_built(self, plan, seconds: float) -> None:
        from repro.program.rule import format_rule

        self.add_time("plan", seconds)
        self.incr("plans_built")
        self.join_orders.append(
            {
                "rule": format_rule(plan.rule) if plan.rule is not None else None,
                "order": list(plan.order),
                "first": plan.first,
            }
        )

    def on_plan_reused(self, plan) -> None:
        self.incr("plan_cache_hits")

    def on_layer_end(self, layer: int, new_facts: int, seconds: float) -> None:
        self.layers.append((layer, seconds))
        # the table only grows between clear_intern_table calls, so the
        # high-water mark is the run's dictionary footprint
        size = id_table_size()
        if size > self.counters.get("id_table_size", 0):
            self.counters["id_table_size"] = size

    def on_scc_end(
        self, layer: int | None, preds, recursive: bool, new_facts: int,
        seconds: float,
    ) -> None:
        self.sccs.append(
            {
                "layer": layer,
                "preds": sorted(preds),
                "recursive": recursive,
                "seconds": seconds,
            }
        )

    def on_rule_fired(self, rule, derived: int, seconds: float) -> None:
        self.add_time("grouping" if rule.is_grouping() else "match", seconds)

    def on_exec_steps(self, counts: tuple[int, ...], rows: int) -> None:
        # step k ran iff the batch entering it (step k-1's output) was
        # non-empty; step 0 always runs
        counters = self.counters
        for k, size in enumerate(counts):
            if k and not counts[k - 1]:
                break
            counters["batch_steps"] = counters.get("batch_steps", 0) + 1
            counters["batch_bindings"] = counters.get("batch_bindings", 0) + size
            if size > counters.get("batch_peak", 0):
                counters["batch_peak"] = size
        counters["kernel_calls"] = counters.get("kernel_calls", 0) + 1
        counters["kernel_rows"] = counters.get("kernel_rows", 0) + rows

    def on_delta_batch(self, lsn, mode, inserted, deleted, stats) -> None:
        self.incr("maint_updates")
        for name in (
            "overdeleted", "rederived", "count_adjusted", "component_recomputes",
        ):
            amount = getattr(stats, name)
            if amount:
                self.incr("maint_" + name, amount)

    def on_maintain_dispatch(self, rows: int) -> None:
        self.incr("maintain_dispatches")
        self.incr("maintain_rows", rows)

    # -- storage events ----------------------------------------------------

    def on_wal_append(self, op, facts, nbytes: int, seconds: float) -> None:
        self.add_time("wal_append", seconds)
        self.incr("storage_bytes_written", nbytes)
        self.incr("wal_records_appended")

    def on_wal_replay(self, records: int, facts, seconds: float) -> None:
        self.add_time("wal_replay", seconds)
        if records:
            self.incr("wal_records_replayed", records)

    def on_snapshot_write(self, path, facts, nbytes: int, seconds: float) -> None:
        self.add_time("snapshot_write", seconds)
        self.incr("storage_bytes_written", nbytes)
        self.incr("snapshot_writes")

    def on_snapshot_load(self, path, facts, restored: bool, seconds: float) -> None:
        self.add_time("snapshot_load", seconds)
        if restored:
            self.incr("snapshot_restores")

    def on_fsync(self, path) -> None:
        self.incr("storage_fsyncs")

    # -- reporting ---------------------------------------------------------

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
