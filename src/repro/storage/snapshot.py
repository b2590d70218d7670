"""Atomic snapshots of the full database state.

A snapshot captures everything a restart needs to serve queries
without re-running the layered fixpoint: the EDB facts, the *whole*
materialized model (IDB extensions included), and a fingerprint of the
program + layering that produced it.  On load, a store compares the
fingerprint of its current program against the stored one — a match
means the materialized model is still the minimal model and can be
adopted wholesale; a mismatch downgrades the snapshot to an EDB-only
backup and the fixpoint re-runs.

File format (JSONL, codec-encoded atoms)::

    {"format": "ldl1-snapshot", "version": 1, "codec": 1,
     "fingerprint": "...", "edb": <n>, "model": <m>}
    ["e", [pred, [args...]]]      # one line per EDB fact
    ["m", [pred, [args...]]]      # one line per model fact
    {"end": <n + m>}

Writes are crash-atomic: the body goes to a temp file in the same
directory, is fsynced, then renamed over the target (``os.replace``),
and the directory entry is fsynced.  Readers therefore only ever see
the previous complete snapshot or the new complete snapshot; the
``end`` trailer is a belt-and-braces integrity check on top.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import StorageError
from repro.observe import MetricsCollector, Subscriber, compose_hooks
from repro.program.rule import Atom, Program
from repro.storage import codec
from repro.terms.pretty import format_rule

FORMAT = "ldl1-snapshot"
SNAPSHOT_VERSION = 1


def program_fingerprint(program: Program, layering=None) -> str:
    """A stable digest of the rules and their layering.

    The digest keys snapshot reuse: equal fingerprints guarantee the
    stored model was computed by the same rules under the same layer
    structure (Theorem 2 makes the result layering-independent, but the
    fingerprint still pins the layering so a digest match certifies the
    whole pipeline).  The codec version is mixed in so a codec bump
    invalidates old materializations.  Without a ``layering`` this is
    the program's compiled fingerprint, computed once per program.
    """
    if layering is None:
        from repro.engine.compiled import compile_program

        return compile_program(program).fingerprint
    digest = hashlib.sha256()
    digest.update(f"codec:{codec.CODEC_VERSION}\n".encode())
    for line in sorted(format_rule(rule) for rule in program):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    for layer in layering:
        digest.update(",".join(sorted(layer)).encode("utf-8"))
        digest.update(b";")
    return digest.hexdigest()


@dataclass
class Snapshot:
    """A loaded snapshot: the persisted facts plus their provenance."""

    fingerprint: str
    edb_facts: list[Atom] = field(default_factory=list)
    model_atoms: list[Atom] = field(default_factory=list)
    version: int = SNAPSHOT_VERSION


def write_snapshot(
    path,
    fingerprint: str,
    edb_facts: Iterable[Atom],
    model_atoms: Iterable[Atom],
    hooks: Subscriber | None = None,
    metrics: MetricsCollector | None = None,
) -> int:
    """Atomically publish a snapshot; returns bytes written."""
    start = time.perf_counter()
    on = compose_hooks(hooks, metrics)
    path = os.fspath(path)
    edb = list(edb_facts)
    model = list(model_atoms)
    header = {
        "format": FORMAT,
        "version": SNAPSHOT_VERSION,
        "codec": codec.CODEC_VERSION,
        "fingerprint": fingerprint,
        "edb": len(edb),
        "model": len(model),
    }
    lines = [codec.dumps(header)]
    # fact lines assemble from the codec's per-term fragment memo:
    # ['["e",' .. ']'] is byte-identical to dumps(["e", encode_atom(a)])
    # because the tree is all lists (no key ordering to diverge on).
    lines.extend('["e",' + codec.dumps_atom(a) + "]" for a in edb)
    lines.extend('["m",' + codec.dumps_atom(a) + "]" for a in model)
    lines.append(codec.dumps({"end": len(edb) + len(model)}))
    body = ("\n".join(lines) + "\n").encode("utf-8")

    tmp_path = path + ".tmp"
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, body)
        os.fsync(fd)
    finally:
        os.close(fd)
    if on.fsync is not None:
        on.fsync(path=tmp_path)
    os.replace(tmp_path, path)
    dirname = os.path.dirname(path) or "."
    if _fsync_dir(dirname) and on.fsync is not None:
        on.fsync(path=dirname)
    if on.snapshot_write is not None:
        on.snapshot_write(
            path=path,
            facts=len(edb) + len(model),
            nbytes=len(body),
            seconds=time.perf_counter() - start,
        )
    return len(body)


def load_snapshot(path) -> Snapshot | None:
    """Read a snapshot, or None when the file does not exist.

    Raises :class:`~repro.errors.StorageError` on a damaged body —
    thanks to atomic publication that indicates external corruption,
    not a torn write, so it is surfaced rather than repaired.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw_lines = handle.read().split(b"\n")
    except FileNotFoundError:
        return None
    lines = [line for line in raw_lines if line.strip()]
    if not lines:
        raise StorageError(f"{path}: empty snapshot")
    header = codec.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise StorageError(f"{path}: not an LDL1 snapshot")
    if header.get("version") != SNAPSHOT_VERSION:
        raise StorageError(
            f"{path}: unsupported snapshot version {header.get('version')!r}"
        )
    codec.check_version(header.get("codec"))
    fingerprint = header.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise StorageError(f"{path}: snapshot missing fingerprint")
    snapshot = Snapshot(fingerprint=fingerprint)
    trailer = codec.loads(lines[-1])
    if not isinstance(trailer, dict) or "end" not in trailer:
        raise StorageError(f"{path}: snapshot missing end trailer")
    for line in lines[1:-1]:
        row = codec.loads(line)
        if not isinstance(row, list) or len(row) != 2 or row[0] not in ("e", "m"):
            raise StorageError(f"{path}: malformed snapshot row {row!r}")
        atom = codec.decode_atom(row[1])
        (snapshot.edb_facts if row[0] == "e" else snapshot.model_atoms).append(atom)
    if trailer["end"] != len(snapshot.edb_facts) + len(snapshot.model_atoms):
        raise StorageError(f"{path}: snapshot row count mismatch")
    if (
        len(snapshot.edb_facts) != header.get("edb")
        or len(snapshot.model_atoms) != header.get("model")
    ):
        raise StorageError(f"{path}: snapshot header count mismatch")
    return snapshot


def _fsync_dir(dirname: str) -> bool:
    """Persist a rename by fsyncing the containing directory; False on
    a platform that cannot open directories."""
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return False
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return True
