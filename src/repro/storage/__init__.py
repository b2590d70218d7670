"""Durable storage: codec, write-ahead log, snapshots, and the store.

The engine keeps the computed model in memory (:mod:`repro.engine`);
this package makes that state survive process restarts:

* :mod:`repro.storage.codec` — a stable, versioned encoding of ground
  U-terms and atoms with round-trip guarantees,
* :mod:`repro.storage.wal` — an append-only, CRC-checked write-ahead
  log of EDB mutations with torn-tail truncation on open,
* :mod:`repro.storage.snapshot` — atomic (write-temp-then-rename)
  snapshots of the full database, including materialized IDB
  extensions and the program's layering fingerprint.  Version 2 writes
  the live terms once, as a table whose lines name their subterms by
  earlier line number, then each relation as one flat list of term-line
  numbers plus its few non-canonical spellings; a reopen interns the
  table once and adopts the rows, with no atom per model fact.
  Version 1 (one encoded atom per line) is still read,
* :mod:`repro.storage.store` — :class:`DurableStore`, composing the
  three into open → load snapshot → replay WAL → serve, with log
  compaction.
"""

from repro.storage.codec import (
    CODEC_VERSION,
    decode_atom,
    decode_atom_row,
    decode_term,
    dumps_atom,
    dumps_id_row,
    encode_atom,
    encode_id_row,
    encode_term,
    loads_atom,
    term_fragment,
)
from repro.storage.snapshot import Snapshot, load_snapshot, program_fingerprint, write_snapshot
from repro.storage.store import DurableStore, StoreStats
from repro.storage.wal import WalRecord, WriteAheadLog

__all__ = [
    "CODEC_VERSION",
    "DurableStore",
    "Snapshot",
    "StoreStats",
    "WalRecord",
    "WriteAheadLog",
    "decode_atom",
    "decode_atom_row",
    "decode_term",
    "dumps_atom",
    "dumps_id_row",
    "encode_atom",
    "encode_id_row",
    "encode_term",
    "load_snapshot",
    "loads_atom",
    "program_fingerprint",
    "term_fragment",
    "write_snapshot",
]
