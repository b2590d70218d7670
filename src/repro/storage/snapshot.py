"""Atomic snapshots of the full database state.

A snapshot captures everything a restart needs to serve queries
without re-running the layered fixpoint: the EDB facts, the *whole*
materialized model (IDB extensions included), and a fingerprint of the
program + layering that produced it.  On load, a store compares the
fingerprint of its current program against the stored one — a match
means the materialized model is still the minimal model and can be
adopted wholesale; a mismatch downgrades the snapshot to an EDB-only
backup and the fixpoint re-runs.

File format, version 2 (JSONL, one JSON value per line)::

    {"format": "ldl1-snapshot", "version": 2, "codec": 1,
     "fingerprint": "...", "terms": <T>, "relations": <R>,
     "edb": <n>, "model": <m>}
    ["s", "alice"]                   # T term lines, numbered 0..T-1
    ["f", "pair", [0, 1]]            #   a compound names its direct
    ["S", [0, 2]]                    #   subterms by earlier line number
    ["e", pred, arity, [ints...], spellings]   # R relation lines
    ["m", pred, arity, [ints...], spellings]
    {"end": <n + m>}

The term lines are the *live* terms — every dense ID a stored row or
spelling names, closed under subterms — in ascending ID order,
renumbered ``0..T-1``.  The dense-ID table is topological (a subterm
always has a smaller ID than its term), so every reference points to
an earlier line and loading interns each term exactly once.  Constants
are the codec's fragments (``["s", ..]``, ``["q", ..]``, ``["n", ..]``).

A relation line holds one non-empty relation: section ``"e"`` (base
facts) or ``"m"`` (the model, which repeats the base facts), its
predicate and arity, its rows flattened into one list of term-line
numbers (``arity`` numbers per row; an arity-0 line stands for its one
row ``()`` and its list is empty), and ``spellings`` — a list of
``[row, args]`` pairs, both as term-line numbers, for the rows whose
arguments were added with a spelling other than their equality-class
representatives' (a quoted string, or a compound holding one).  Loading
replays the term table, maps each line to its new row ID, and hands
each relation's rows to :meth:`Relation.adopt` — no :class:`Atom` per
model fact, no sort, one JSON parse for the whole body.  Only the small
``"e"`` section is decoded to atoms.

Version 1 files (one codec-encoded atom per line, ``["e", atom]`` or
``["m", atom]``, with the same header minus ``terms``/``relations`` and
the same trailer) are still read, so an existing store reopens from its
snapshot; the next checkpoint writes version 2.

Writes are crash-atomic: the body goes to a temp file in the same
directory, is fsynced, then renamed over the target (``os.replace``),
and the directory entry is fsynced.  Readers therefore only ever see
the previous complete snapshot or the new complete snapshot; the
``end`` trailer and the header counts are belt-and-braces integrity
checks on top.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable

from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.errors import StorageError
from repro.observe import MetricsCollector, Subscriber, compose_hooks
from repro.program.rule import Atom, Program
from repro.storage import codec
from repro.terms.pretty import format_rule
from repro.terms.term import _ID_TABLE, Func, SetVal, Term, intern_term, row_id, term_id

FORMAT = "ldl1-snapshot"
SNAPSHOT_VERSION = 2

#: Facts to snapshot: a live database, or atoms for the bulk loader.
Facts = Database | Iterable[Atom]


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
    model: Database = field(default_factory=Database)
    version: int = SNAPSHOT_VERSION


def write_snapshot(
    path,
    fingerprint: str,
    edb_facts: Facts,
    model: Facts,
    hooks: Subscriber | None = None,
    metrics: MetricsCollector | None = None,
) -> int:
    """Atomically publish a version-2 snapshot; returns bytes written.

    ``edb_facts`` and ``model`` are each a :class:`Database`, written
    from its ID rows as it stands, or an iterable of atoms, bulk-loaded
    first and written in ID-row order: a set of atoms iterates in an
    order the interpreter's string hashing sets, and the file must not
    depend on it.
    """
    start = time.perf_counter()
    on = compose_hooks(hooks, metrics)
    path = os.fspath(path)
    relations = [
        (section, rel, *_flat(rel, isinstance(facts, Database)))
        for section, facts in (("e", edb_facts), ("m", model))
        for rel in _relations(facts)
    ]
    live = _live_ids(relations)
    remap = {tid: line for line, tid in enumerate(live)}
    counts = {"e": 0, "m": 0}
    for section, rel, _, _ in relations:
        counts[section] += len(rel)
    header = {
        "format": FORMAT,
        "version": SNAPSHOT_VERSION,
        "codec": codec.CODEC_VERSION,
        "fingerprint": fingerprint,
        "terms": len(live),
        "relations": len(relations),
        "edb": counts["e"],
        "model": counts["m"],
    }
    lines = [codec.dumps(header)]
    lines.extend(_term_line(_ID_TABLE[tid], remap) for tid in live)
    line_of = remap.__getitem__
    for section, rel, ids, spelled in relations:
        flat = list(map(line_of, ids))
        spellings = [
            [list(map(line_of, row)), [remap[term_id(arg)] for arg in args]]
            for row, args in spelled
        ]
        lines.append(codec.dumps([section, rel.pred, rel.arity, flat, spellings]))
    facts = counts["e"] + counts["m"]
    lines.append(codec.dumps({"end": facts}))
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
            facts=facts,
            nbytes=len(body),
            seconds=time.perf_counter() - start,
        )
    return len(body)


def _relations(facts: Facts) -> list[Relation]:
    """The non-empty relations of ``facts``, in predicate order."""
    db = facts if isinstance(facts, Database) else Database(facts)
    relations = (db.get_relation(pred) for pred in db.predicates())
    return [rel for rel in relations if len(rel)]


def _flat(rel: Relation, ordered: bool) -> tuple[list[int], list]:
    """A relation's rows as one flat ID list, row after row, and its
    spellings, in the relation's order, or sorted by row when the
    relation came from a set of atoms."""
    if ordered:
        return rel.flat_ids(), list(rel.spellings())
    rows = sorted(rel.id_rows())
    return list(chain.from_iterable(rows)), sorted(rel.spellings(), key=itemgetter(0))


def _live_ids(relations: Iterable[tuple]) -> list[int]:
    """Every dense ID the flattened relations' rows and spellings name,
    closed under subterms, ascending — so each term follows its
    subterms."""
    live: set[int] = set()
    for _, _, ids, spelled in relations:
        live.update(ids)
        for _, args in spelled:
            live.update(map(term_id, args))
    table = _ID_TABLE
    pending = list(live)
    while pending:
        term = table[pending.pop()]
        if isinstance(term, Func):
            children = term.args
        elif isinstance(term, SetVal):
            children = term.elements
        else:
            continue
        for child in children:
            tid = term_id(child)
            if tid not in live:
                live.add(tid)
                pending.append(tid)
    return sorted(live)


def _term_line(term: Term, remap: dict[int, int]) -> str:
    """One term line: a constant's codec fragment, or a compound naming
    its direct subterms by (earlier) line number."""
    if isinstance(term, Func):
        refs = [remap[term_id(arg)] for arg in term.args]
        return codec.dumps(["f", term.functor, refs])
    if isinstance(term, SetVal):
        return codec.dumps(["S", sorted(remap[term_id(e)] for e in term.elements)])
    return codec.term_fragment(term)


def load_snapshot(path) -> Snapshot | None:
    """Read a snapshot, or None when the file does not exist.

    Reads version 2 and, for stores written before it, version 1.
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
    version = header.get("version")
    if type(version) is not int or version not in (1, SNAPSHOT_VERSION):
        raise StorageError(f"{path}: unsupported snapshot version {version!r}")
    codec.check_version(header.get("codec"))
    fingerprint = header.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise StorageError(f"{path}: snapshot missing fingerprint")
    trailer = codec.loads(lines[-1])
    if len(lines) < 2 or not isinstance(trailer, dict) or "end" not in trailer:
        raise StorageError(f"{path}: snapshot missing end trailer")
    load = _load_v1 if version == 1 else _load_v2
    edb_facts, model, edb_count, model_count = load(path, header, lines[1:-1])
    if trailer["end"] != edb_count + model_count:
        raise StorageError(f"{path}: snapshot row count mismatch")
    if edb_count != header.get("edb") or model_count != header.get("model"):
        raise StorageError(f"{path}: snapshot header count mismatch")
    return Snapshot(fingerprint, edb_facts, model, version)


def _load_v1(path: str, header: dict, body: list[bytes]):
    """A version-1 body: one ``["e"|"m", atom]`` line per fact."""
    edb: list[Atom] = []
    model_atoms: list[Atom] = []
    for line in body:
        row = codec.loads(line)
        if not isinstance(row, list) or len(row) != 2 or row[0] not in ("e", "m"):
            raise StorageError(f"{path}: malformed snapshot row {row!r}")
        atom = codec.decode_atom(row[1])
        (edb if row[0] == "e" else model_atoms).append(atom)
    return edb, Database(model_atoms), len(edb), len(model_atoms)


def _load_v2(path: str, header: dict, body: list[bytes]):
    """A version-2 body: the term table, then one line per relation."""
    n_terms, n_relations = header.get("terms"), header.get("relations")
    if (
        type(n_terms) is not int
        or type(n_relations) is not int
        or n_terms < 0
        or n_relations < 0
        or n_terms + n_relations != len(body)
    ):
        raise StorageError(f"{path}: snapshot header count mismatch")
    # one parse for the whole body instead of one per line
    parsed = codec.loads(b"[" + b",".join(body) + b"]")
    if len(parsed) != len(body):
        raise StorageError(f"{path}: snapshot line holds more than one value")
    terms = _replay_terms(path, parsed[:n_terms])
    rids = [row_id(term) for term in terms]
    sections: dict[str, dict[str, Relation]] = {"e": {}, "m": {}}
    for line in parsed[n_terms:]:
        section, rel = _relation(path, line, terms, rids)
        if rel.pred in sections[section]:
            raise StorageError(f"{path}: duplicate relation {section}/{rel.pred}")
        sections[section][rel.pred] = rel
    edb = [Atom(rel.pred, args) for rel in sections["e"].values() for args in rel]
    model = Database.from_relations(sections["m"].values())
    return edb, model, len(edb), len(model)


def _replay_terms(path: str, lines: list) -> list[Term]:
    """Intern the term lines in order; line ``i`` becomes ``terms[i]``."""
    terms: list[Term] = []
    for line in lines:
        tag = line[0] if type(line) is list and line else None
        if tag == "f" and len(line) == 3 and type(line[1]) is str:
            args = _refs(path, line[2], terms)
            if not args:
                raise StorageError(f"{path}: term line {len(terms)} has no arguments")
            term = intern_term(Func(line[1], args))
        elif tag == "S" and len(line) == 2:
            term = intern_term(SetVal.from_ground(_refs(path, line[1], terms)))
        elif tag in ("s", "q", "n"):
            term = codec.decode_term(line)
        else:
            raise StorageError(f"{path}: malformed term line {line!r}")
        terms.append(term)
    return terms


def _refs(path: str, refs, terms: list[Term]) -> list[Term]:
    """The terms ``refs`` names by line number; raises on anything but
    a list of lines already in ``terms`` (a later line, a non-int)."""
    n = len(terms)
    if type(refs) is not list or not all(type(j) is int and 0 <= j < n for j in refs):
        raise StorageError(f"{path}: {refs!r} names no term line before {n}")
    return [terms[j] for j in refs]


def _relation(path: str, line, terms: list[Term], rids: list[int]):
    """One relation line as ``(section, Relation)``, rows in row IDs."""
    if type(line) is not list or len(line) != 5:
        raise StorageError(f"{path}: malformed relation line {line!r}")
    section, pred, arity, flat, spelled = line
    if (
        section not in ("e", "m")
        or type(pred) is not str
        or type(arity) is not int
        or arity < 0
        or type(flat) is not list
        or type(spelled) is not list
    ):
        raise StorageError(f"{path}: malformed relation line {line[:3]!r}")
    if arity == 0:
        if flat or spelled:
            raise StorageError(f"{path}: {pred}: arity-0 relation with row data")
        rows: dict = {(): None}
    else:
        if not flat or len(flat) % arity:
            raise StorageError(
                f"{path}: {pred}: {len(flat)} row ints for arity {arity}"
            )
        if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= len(rids):
            raise StorageError(f"{path}: {pred}: row names a missing term line")
        ids = list(map(rids.__getitem__, flat))
        rows = dict.fromkeys(zip(*[iter(ids)] * arity))
        if len(rows) * arity != len(flat):
            raise StorageError(f"{path}: {pred}: duplicate row")
    spellings = {}
    for entry in spelled:
        if type(entry) is not list or len(entry) != 2:
            raise StorageError(f"{path}: {pred}: malformed spelling {entry!r}")
        row = tuple(row_id(term) for term in _refs(path, entry[0], terms))
        args = tuple(_refs(path, entry[1], terms))
        if row not in rows or tuple(map(row_id, args)) != row:
            raise StorageError(f"{path}: {pred}: spelling for a row it does not hold")
        spellings[row] = args
    return section, Relation.adopt(pred, arity, rows, spellings)


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
