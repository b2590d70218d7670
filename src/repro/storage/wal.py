"""Append-only write-ahead log of EDB mutations.

File layout: an 8-byte magic (``LDL1WAL`` + format version byte)
followed by framed records.  Each record is::

    <payload length: u32 le> <crc32(payload): u32 le> <payload bytes>

where the payload is canonical JSON ``{"op": ..., "facts": [...]}``
with atoms encoded by :mod:`repro.storage.codec`.  Batches are one
record, so a batch becomes durable — and later replays — atomically.

Crash recovery is the open path: the log is scanned front to back and
the first frame that is short, oversized, CRC-mismatched, or
undecodable marks the *torn tail*; everything from there on is the
debris of an interrupted append and is physically truncated away.
A corrupt or missing magic is different — that is not a torn append
but a damaged or foreign file, and raises
:class:`~repro.errors.StorageError` instead of silently wiping it.

``fsync`` policy: ``"always"`` syncs every append (durability =
acknowledged), ``"batch"`` syncs only on :meth:`flush`/:meth:`close`,
``"never"`` leaves it to the OS.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import StorageError
from repro.observe import MetricsCollector, Subscriber, compose_hooks
from repro.program.rule import Atom
from repro.storage import codec

MAGIC = b"LDL1WAL\x01"
_HEADER = struct.Struct("<II")

#: Mutation kinds a record may carry.
OPS = ("add", "remove")


@dataclass(frozen=True)
class WalRecord:
    """One durable mutation batch: the op plus its ground facts."""

    op: str
    facts: tuple[Atom, ...]
    #: File offset one past this record's frame (where the next starts).
    end_offset: int = 0


def _decode_payload(payload: bytes) -> tuple[str, tuple[Atom, ...]]:
    obj = codec.loads(payload)
    if (
        not isinstance(obj, dict)
        or obj.get("op") not in OPS
        or not isinstance(obj.get("facts"), list)
    ):
        raise StorageError(f"malformed WAL record: {obj!r}")
    return obj["op"], tuple(codec.decode_atom(f) for f in obj["facts"])


class WriteAheadLog:
    """A CRC-checked append-only log with torn-tail truncation on open."""

    def __init__(
        self,
        path,
        fsync: str = "always",
        hooks: Subscriber | None = None,
        metrics: MetricsCollector | None = None,
    ) -> None:
        if fsync not in ("always", "batch", "never"):
            raise StorageError(f"unknown fsync policy {fsync!r}")
        self.path = os.fspath(path)
        self.fsync = fsync
        self.on = compose_hooks(hooks, metrics)
        self.records: list[WalRecord] = []
        self.truncated_bytes = 0
        self._file = None
        self._open()

    # -- open / recovery ---------------------------------------------------

    def _open(self) -> None:
        fresh = not os.path.exists(self.path)
        self._file = open(self.path, "a+b" if fresh else "r+b")
        if fresh:
            self._file.write(MAGIC)
            self._sync(force=self.fsync != "never")
            return
        self._file.seek(0)
        head = self._file.read(len(MAGIC))
        if head != MAGIC:
            self._file.close()
            self._file = None
            raise StorageError(
                f"{self.path}: not an LDL1 WAL (bad magic {head!r})"
            )
        good_end = self._scan()
        size = os.path.getsize(self.path)
        if good_end < size:
            self.truncated_bytes = size - good_end
            self._file.truncate(good_end)
            self._sync(force=self.fsync != "never")
        self._file.seek(0, os.SEEK_END)

    def _scan(self) -> int:
        """Read every intact record; return the offset of the torn tail."""
        offset = len(MAGIC)
        size = os.path.getsize(self.path)
        while True:
            header = self._file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return offset
            length, crc = _HEADER.unpack(header)
            if offset + _HEADER.size + length > size:
                return offset
            payload = self._file.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return offset
            try:
                op, facts = _decode_payload(payload)
            except StorageError:
                return offset
            offset += _HEADER.size + length
            self.records.append(WalRecord(op, facts, end_offset=offset))

    # -- appending ---------------------------------------------------------

    def append(self, op: str, facts: Iterable[Atom]) -> WalRecord:
        """Durably log one mutation batch; returns the framed record."""
        if self._file is None:
            raise StorageError(f"{self.path}: log is closed")
        if op not in OPS:
            raise StorageError(f"unknown WAL op {op!r}")
        start = time.perf_counter()
        batch = tuple(facts)
        # assembled from the codec's per-term fragment memo; the literal
        # layout matches dumps({"facts": [...], "op": op}) byte for byte
        # ("facts" sorts before "op", canonical separators throughout).
        payload = (
            '{"facts":['
            + ",".join(codec.dumps_atom(a) for a in batch)
            + '],"op":'
            + codec.dumps(op)
            + "}"
        ).encode("utf-8")
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._file.write(frame)
        if self.fsync == "always":
            self._sync(force=True)
        record = WalRecord(op, batch, end_offset=self._file.tell())
        self.records.append(record)
        if self.on.wal_append is not None:
            self.on.wal_append(
                op=op, facts=len(batch), nbytes=len(frame),
                seconds=time.perf_counter() - start,
            )
        return record

    def replay(self) -> Iterator[WalRecord]:
        """The intact records recovered at open plus later appends."""
        return iter(self.records)

    @property
    def record_count(self) -> int:
        return len(self.records)

    @property
    def size_bytes(self) -> int:
        if self._file is None:
            return os.path.getsize(self.path)
        return self._file.tell()

    # -- maintenance -------------------------------------------------------

    def reset(self) -> None:
        """Drop every record (after a snapshot made them redundant)."""
        if self._file is None:
            raise StorageError(f"{self.path}: log is closed")
        self._file.truncate(len(MAGIC))
        self._file.seek(len(MAGIC))
        self._sync(force=self.fsync != "never")
        self.records = []

    def flush(self) -> None:
        self._sync(force=True)

    def _sync(self, force: bool) -> None:
        self._file.flush()
        if force:
            os.fsync(self._file.fileno())
            if self.on.fsync is not None:
                self.on.fsync(path=self.path)

    def close(self) -> None:
        if self._file is not None:
            if self.fsync != "never":
                self._sync(force=True)
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
