"""Maintenance package: the mode names and the delta-batch surface.

Two ways to repair a materialized model after an EDB update sit behind
:class:`~repro.engine.incremental.IncrementalModel`:

* ``"delta"`` (default) — the differential engine in
  :mod:`repro.engine.maintain.maintainer`: per-derived-fact support
  counting for non-recursive SCCs, DRed (delete–rederive) for
  recursive ones, and multiset-backed regrouping for grouping heads,
  all on ID rows through the same ``derive_rows`` entry point as
  evaluation itself;
* ``"recompute"`` — the differential oracle: every update, insert or
  delete, clears its affected cone's derived predicates and re-runs
  the layered evaluation restricted to cone rules.

A model's mode is fixed when it is built (``IncrementalModel(maintain=
...)``, passed through by ``DurableStore`` and ``LDL``); the test suite
runs both modes side by side in one process and compares them.

Every maintained update also publishes a :class:`DeltaBatch` — the net
per-predicate row changes of the whole model, stamped with the WAL LSN
of the producing mutation when the update came through the durable
store — so downstream consumers (replicas, answer caches) can apply
view deltas instead of re-deriving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from repro.program.rule import Atom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.exec.kernels import RowBatch

MAINTAIN_MODES = ("delta", "recompute")


def validated_mode(name: str) -> str:
    """``name`` if it is one of :data:`MAINTAIN_MODES`, else ValueError."""
    if name not in MAINTAIN_MODES:
        raise ValueError(
            f"unknown maintenance mode {name!r}; "
            f"expected one of {MAINTAIN_MODES}"
        )
    return name


def _decoded(batches: Mapping[str, RowBatch]) -> dict[str, tuple[Atom, ...]]:
    return {
        pred: tuple([Atom(pred, args) for args in batch])
        for pred, batch in batches.items()
    }


@dataclass(frozen=True)
class DeltaBatch:
    """The net fact changes one maintained update made to the model.

    ``inserted_rows``/``deleted_rows`` map predicate names to the
    :class:`~repro.engine.exec.kernels.RowBatch` of ID rows that
    entered/left the model (EDB changes included), each row once and
    spelled as it was stored — *net* changes: a fact overdeleted and
    then rederived in the same update appears in neither.
    ``inserted``/``deleted`` are the same changes as ground atoms,
    decoded on first read, so an update no one inspects decodes
    nothing; the counts and ``len`` read the rows.  ``lsn`` is the WAL
    LSN of the mutation that produced the batch (the log offset one
    past the producing record) when the update came through
    :class:`repro.storage.DurableStore`, else None.
    """

    lsn: int | None = None
    mode: str = "delta"
    inserted_rows: Mapping[str, RowBatch] = field(default_factory=dict)
    deleted_rows: Mapping[str, RowBatch] = field(default_factory=dict)

    @cached_property
    def inserted(self) -> Mapping[str, tuple[Atom, ...]]:
        return _decoded(self.inserted_rows)

    @cached_property
    def deleted(self) -> Mapping[str, tuple[Atom, ...]]:
        return _decoded(self.deleted_rows)

    @property
    def inserted_count(self) -> int:
        return sum(len(batch) for batch in self.inserted_rows.values())

    @property
    def deleted_count(self) -> int:
        return sum(len(batch) for batch in self.deleted_rows.values())

    def __len__(self) -> int:
        return self.inserted_count + self.deleted_count


def changed_predicates(batch: DeltaBatch) -> frozenset[str]:
    """The predicates whose extensions ``batch`` touched (either way)."""
    return frozenset(batch.inserted_rows) | frozenset(batch.deleted_rows)


@dataclass(frozen=True)
class Invalidation:
    """What one completed update means for downstream answer caches.

    ``preds`` names the predicates whose extensions may now differ —
    ``None`` means *everything* (the program itself changed).  When the
    signal came from a :class:`DeltaBatch`, ``precise`` is True and
    ``preds`` are exactly the net-changed predicates; the recompute
    paths and in-memory sessions publish a conservative superset
    (``precise`` False).  ``version`` is the publishing model's update
    version *after* the update (see
    :attr:`repro.engine.incremental.IncrementalModel.version`): a cache
    entry stamped at or after it already reflects the update and
    survives.  ``lsn`` is the WAL LSN of the producing mutation when
    there is one — for ordering against the log only: LSNs are byte
    offsets that restart at every checkpoint, so validity never
    compares them.
    """

    lsn: int | None = None
    preds: frozenset[str] | None = None
    precise: bool = True
    version: int | None = None


def invalidation_of(
    batch: DeltaBatch, version: int | None = None
) -> Invalidation:
    """The precise invalidation a maintained update's delta implies."""
    return Invalidation(
        lsn=batch.lsn, preds=changed_predicates(batch), precise=True,
        version=version,
    )


__all__ = [
    "MAINTAIN_MODES",
    "DeltaBatch",
    "Invalidation",
    "changed_predicates",
    "invalidation_of",
    "validated_mode",
]
