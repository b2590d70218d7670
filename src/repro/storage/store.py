"""The durable store: snapshot + WAL + incremental engine, composed.

:class:`DurableStore` owns one database directory::

    <path>/snapshot.jsonl    last published snapshot (atomic replace)
    <path>/wal.log           mutations since that snapshot

The open protocol is the classical ARIES-shaped sequence, specialized
to a deductive database whose IDB is a deterministic function of the
EDB and the program:

1. load the snapshot (if any).  When its fingerprint matches the
   current program, the materialized model — IDB extensions included —
   is adopted wholesale and the layered fixpoint is *skipped*; when it
   does not match (the rules changed), only the EDB facts are kept and
   the model is recomputed from them;
2. open the WAL, which truncates any torn tail (a crash mid-append);
3. replay the surviving records through the
   :class:`~repro.engine.incremental.IncrementalModel`, which repairs
   the model per batch exactly as the original updates did;
4. serve.  Later mutations are WAL-appended *before* they touch the
   model (write-ahead), so an acknowledged batch is never lost.

Compaction folds the WAL into a fresh snapshot: after
``compact_every`` records the store checkpoints itself, and
:meth:`checkpoint` does the same on demand.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable

from repro.engine.compiled import compile_program
from repro.engine.database import Database
from repro.engine.incremental import IncrementalModel, UpdateStats
from repro.errors import StorageError, WellFormednessError
from repro.observe import MetricsCollector, Subscriber, compose_hooks
from repro.program.rule import Atom, Program, canonical_atom
from repro.program.wellformed import check_arity_pairs, predicate_arities
from repro.storage.snapshot import load_snapshot, write_snapshot
from repro.storage.wal import WriteAheadLog
from repro.util import gc_paused

SNAPSHOT_FILE = "snapshot.jsonl"
WAL_FILE = "wal.log"


@dataclass
class StoreStats:
    """How the last :meth:`DurableStore.open` brought the model up."""

    #: "cold" — no snapshot; "snapshot" — materialized model adopted,
    #: fixpoint skipped; "rebuild" — snapshot EDB kept, rules changed,
    #: model recomputed.
    restore_mode: str = "cold"
    snapshot_facts: int = 0
    wal_records_replayed: int = 0
    wal_facts_replayed: int = 0
    wal_truncated_bytes: int = 0
    compactions: int = 0


class DurableStore:
    """A persistent LDL1 fact base with crash recovery."""

    def __init__(
        self,
        program: Program,
        path,
        fsync: str = "always",
        compact_every: int = 1024,
        hooks: Subscriber | None = None,
        metrics: MetricsCollector | None = None,
        maintain: str = "delta",
    ) -> None:
        self.program = program
        self.path = os.fspath(path)
        self.fsync = fsync
        self.compact_every = compact_every
        # the model, the WAL and snapshots all report to one dispatcher
        self.on = compose_hooks(hooks, metrics)
        self.maintain = maintain
        self.model: IncrementalModel | None = None
        self.wal: WriteAheadLog | None = None
        self.stats = StoreStats()
        self._fingerprint: str | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.path, SNAPSHOT_FILE)

    @property
    def wal_path(self) -> str:
        return os.path.join(self.path, WAL_FILE)

    @gc_paused()
    def open(self) -> "DurableStore":
        """Load snapshot, recover the WAL, replay, and start serving.

        Raises :class:`~repro.errors.WellFormednessError`, and closes
        again, when a stored predicate is one the program uses with
        another arity (facts stored under other rules)."""
        if self.model is not None:
            raise StorageError(f"{self.path}: store already open")
        os.makedirs(self.path, exist_ok=True)
        self._fingerprint = compile_program(self.program).fingerprint
        stats = StoreStats()

        start = time.perf_counter()
        snapshot = load_snapshot(self.snapshot_path)
        if snapshot is not None and snapshot.fingerprint == self._fingerprint:
            self.model = IncrementalModel(
                self.program,
                edb=snapshot.edb_facts,
                hooks=self.on,
                materialized=snapshot.model,
                maintain=self.maintain,
            )
            stats.restore_mode = "snapshot"
        elif snapshot is not None:
            # rules changed since the snapshot: its materialized IDB is
            # stale, but the EDB facts are still the durable truth.
            self.model = IncrementalModel(
                self.program,
                edb=snapshot.edb_facts,
                hooks=self.on,
                maintain=self.maintain,
            )
            stats.restore_mode = "rebuild"
        else:
            self.model = IncrementalModel(
                self.program, hooks=self.on, maintain=self.maintain
            )
            stats.restore_mode = "cold"
        if snapshot is not None:
            stats.snapshot_facts = len(snapshot.edb_facts) + len(snapshot.model)
        on = self.on
        if on.snapshot_load is not None:
            on.snapshot_load(
                path=self.snapshot_path,
                facts=stats.snapshot_facts,
                restored=stats.restore_mode == "snapshot",
                seconds=time.perf_counter() - start,
            )

        start = time.perf_counter()
        self.wal = WriteAheadLog(self.wal_path, fsync=self.fsync, hooks=on)
        stats.wal_truncated_bytes = self.wal.truncated_bytes
        for record in self.wal.replay():
            # replayed updates carry the same LSN (the log offset one
            # past the record) the original mutation was stamped with.
            if record.op == "add":
                self.model.add_facts(record.facts, lsn=record.end_offset)
            else:
                self.model.remove_facts(record.facts, lsn=record.end_offset)
            stats.wal_records_replayed += 1
            stats.wal_facts_replayed += len(record.facts)
        if on.wal_replay is not None:
            on.wal_replay(
                records=stats.wal_records_replayed,
                facts=stats.wal_facts_replayed,
                seconds=time.perf_counter() - start,
            )
        self.stats = stats
        try:
            # facts stored under other rules: a predicate these rules
            # use with another arity has no literal that reads it
            check_arity_pairs(
                predicate_arities(self.program), self.model.database.arities()
            )
        except WellFormednessError:
            self.close()
            raise
        return self

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()
            self.wal = None
        self.model = None

    def __enter__(self) -> "DurableStore":
        if self.model is None:
            self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving -----------------------------------------------------------

    @property
    def database(self) -> Database:
        """The live materialized model."""
        self._require_open()
        return self.model.database

    @property
    def edb_facts(self) -> frozenset[Atom]:
        self._require_open()
        return self.model.edb_facts

    # -- mutation ----------------------------------------------------------

    def add_facts(self, atoms: Iterable[Atom]) -> UpdateStats:
        """Durably insert base facts: WAL first, then repair the model."""
        return self._mutate("add", atoms)

    def remove_facts(self, atoms: Iterable[Atom]) -> UpdateStats:
        """Durably delete base facts: WAL first, then repair the model."""
        return self._mutate("remove", atoms)

    def _mutate(self, op: str, atoms: Iterable[Atom]) -> UpdateStats:
        self._require_open()
        batch = tuple(canonical_atom(a) for a in atoms)
        if not batch:
            return UpdateStats(mode="none")
        record = self.wal.append(op, batch)
        # the WAL LSN (offset one past the record) stamps the update and
        # its delta batch, so downstream consumers can order view deltas
        # against the log.
        if op == "add":
            stats = self.model.add_facts(batch, lsn=record.end_offset)
        else:
            stats = self.model.remove_facts(batch, lsn=record.end_offset)
        if self.compact_every and self.wal.record_count >= self.compact_every:
            self.checkpoint()
        return stats

    # -- maintenance -------------------------------------------------------

    def checkpoint(self) -> int:
        """Publish a snapshot and reset the WAL; returns bytes written.

        Crash-safe in every interleaving: the snapshot replaces its
        predecessor atomically, and until the WAL reset lands a reopen
        merely replays records whose effects the snapshot already
        contains (replay is idempotent for adds and removes alike).
        """
        self._require_open()
        nbytes = write_snapshot(
            self.snapshot_path,
            self._fingerprint,
            self.model.edb_facts,
            self.model.database,
            hooks=self.on,
        )
        self.wal.reset()
        self.stats.compactions += 1
        return nbytes

    #: :meth:`compact` is :meth:`checkpoint` under its log-centric name.
    compact = checkpoint

    def _require_open(self) -> None:
        if self.model is None or self.wal is None:
            raise StorageError(f"{self.path}: store is not open")

    def __repr__(self) -> str:
        state = "open" if self.model is not None else "closed"
        return f"DurableStore({self.path!r}, {state})"
