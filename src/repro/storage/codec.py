"""Versioned wire codec for ground U-terms and atoms.

Every persisted fact — WAL record or snapshot row — passes through this
module.  The encoding is a JSON-compatible tagged tree chosen for three
properties:

* **stability** — the tag alphabet is frozen per :data:`CODEC_VERSION`;
  decoding rejects tags it does not know instead of guessing,
* **faithful round-trips** — ``decode(encode(t)) == t`` for every
  element of the LDL1 universe, including the distinctions Python's
  JSON would otherwise blur (symbol vs quoted string, ``2`` vs ``2.0``),
* **canonical bytes** — set elements serialize in ``sort_key`` order
  and JSON maps use no whitespace, so equal terms produce equal bytes
  (which makes CRCs and snapshot diffs meaningful).

Tags: ``["s", name]`` symbol constant, ``["q", text]`` quoted string,
``["n", number]`` numeric constant, ``["f", functor, [args...]]``
compound term, ``["S", [elems...]]`` finite set.  An atom is
``[pred, [args...]]``.  Non-ground and non-U terms (variables,
grouping terms, open set patterns) are rejected at encode time: they
never belong in a fact base.
"""

from __future__ import annotations

import json

from repro.errors import StorageError
from repro.program.rule import Atom
from repro.terms.term import (
    _ID_TABLE,
    Const,
    Func,
    SetVal,
    Term,
    intern_term,
    row_id,
)

#: Bump when the tag alphabet or layout changes; decoders refuse newer.
CODEC_VERSION = 1


def encode_term(term: Term) -> list:
    """Encode one ground U-term as a JSON-compatible tagged tree."""
    if isinstance(term, Const):
        if isinstance(term.value, str):
            return ["q", term.value] if term.quoted else ["s", term.value]
        return ["n", term.value]
    if isinstance(term, SetVal):
        return ["S", [encode_term(e) for e in term]]
    if isinstance(term, Func):
        return ["f", term.functor, [encode_term(a) for a in term.args]]
    raise StorageError(f"cannot persist non-U term {term!r}")


def decode_term(obj) -> Term:
    """Decode one tagged tree back to a term; inverse of :func:`encode_term`.

    Decoded terms are re-interned bottom-up, so facts arriving from the
    WAL, a snapshot, or the server protocol share subterm objects with
    the rest of the process and hit the evaluator's identity fast paths.
    """
    if not isinstance(obj, list) or not obj:
        raise StorageError(f"malformed term encoding: {obj!r}")
    tag = obj[0]
    if tag == "s" and len(obj) == 2 and isinstance(obj[1], str):
        return intern_term(Const(obj[1]))
    if tag == "q" and len(obj) == 2 and isinstance(obj[1], str):
        return intern_term(Const(obj[1], quoted=True))
    if (
        tag == "n"
        and len(obj) == 2
        and isinstance(obj[1], (int, float))
        and not isinstance(obj[1], bool)
    ):
        return intern_term(Const(obj[1]))
    if tag == "S" and len(obj) == 2 and isinstance(obj[1], list):
        return intern_term(SetVal(decode_term(e) for e in obj[1]))
    if (
        tag == "f"
        and len(obj) == 3
        and isinstance(obj[1], str)
        and isinstance(obj[2], list)
    ):
        return intern_term(Func(obj[1], (decode_term(a) for a in obj[2])))
    raise StorageError(f"malformed term encoding: {obj!r}")


def encode_atom(atom: Atom) -> list:
    """Encode a ground atom as ``[pred, [args...]]``."""
    if not atom.is_ground():
        raise StorageError(f"cannot persist non-ground atom {atom!r}")
    return [atom.pred, [encode_term(a) for a in atom.args]]


def decode_atom(obj) -> Atom:
    """Decode ``[pred, [args...]]`` back to an atom."""
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not isinstance(obj[0], str)
        or not isinstance(obj[1], list)
    ):
        raise StorageError(f"malformed atom encoding: {obj!r}")
    return Atom(obj[0], (decode_term(a) for a in obj[1]))


def dumps(obj) -> str:
    """Canonical JSON text: no whitespace, keys sorted, UTF-8-safe."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def loads(text: str | bytes):
    """Parse JSON, converting parse failures to :class:`StorageError`."""
    try:
        return json.loads(text)
    except (ValueError, UnicodeDecodeError) as exc:
        raise StorageError(f"corrupt JSON payload: {exc}") from exc


# Canonical JSON fragment per interned term, keyed by the *faithful*
# intern ID (``_tid``), never the equality-class ID: the codec must
# keep the quoted-string / symbol distinction (``["q",...]`` vs
# ``["s",...]``) that equality-class IDs deliberately collapse.
# Entries carry the term alongside its text and are validated by
# identity on every hit, so a cleared-and-refilled intern table (which
# reuses IDs) can never serve a stale fragment.
_FRAGMENTS: dict[int, tuple[Term, str]] = {}


def term_fragment(term: Term) -> str:
    """The canonical JSON text of one ground term, memoized per intern
    ID.  Byte-identical to ``dumps(encode_term(term))`` — term trees
    contain no JSON objects, so key ordering cannot differ."""
    tid = term._tid
    if tid is None:
        return dumps(encode_term(term))
    entry = _FRAGMENTS.get(tid)
    if entry is not None and entry[0] is term:
        return entry[1]
    text = dumps(encode_term(term))
    _FRAGMENTS[tid] = (term, text)
    return text


def dumps_atom(atom: Atom) -> str:
    """One atom as a canonical JSON line (no trailing newline).

    Assembled from per-term memoized fragments: a fact whose terms have
    been serialized before — the overwhelmingly common case in WAL
    batches and snapshots — costs one dict hit per argument instead of
    re-walking every term tree.
    """
    if not atom.is_ground():
        raise StorageError(f"cannot persist non-ground atom {atom!r}")
    frags = ",".join(term_fragment(a) for a in atom.args)
    return "[" + dumps(atom.pred) + ",[" + frags + "]]"


def encode_id_row(pred: str, row: tuple[int, ...]) -> list:
    """Encode a stored ID row (see :mod:`repro.engine.relation`) as the
    same tagged tree :func:`encode_atom` produces, without materializing
    an :class:`Atom`."""
    table = _ID_TABLE
    return [pred, [encode_term(table[rid]) for rid in row]]


def dumps_id_row(pred: str, row: tuple[int, ...]) -> str:
    """A predicate's ID row as a canonical atom line — the ID-direct
    twin of :func:`dumps_atom` (relation storage hands the codec rows,
    not atoms)."""
    table = _ID_TABLE
    frags = ",".join(term_fragment(table[rid]) for rid in row)
    return "[" + dumps(pred) + ",[" + frags + "]]"


def decode_atom_row(obj) -> tuple[str, tuple[int, ...]]:
    """Decode ``[pred, [args...]]`` straight to ``(pred, id_row)``.

    Terms are interned bottom-up exactly as :func:`decode_atom` does,
    then collapsed to their equality-class IDs — the row a
    :class:`~repro.engine.relation.Relation` stores — so loaders can
    feed relation storage without building intermediate atoms.
    """
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not isinstance(obj[0], str)
        or not isinstance(obj[1], list)
    ):
        raise StorageError(f"malformed atom encoding: {obj!r}")
    return obj[0], tuple(row_id(decode_term(a)) for a in obj[1])


def loads_atom(text: str | bytes) -> Atom:
    """Inverse of :func:`dumps_atom`."""
    return decode_atom(loads(text))


def check_version(version) -> None:
    """Reject payloads written by a codec newer than this module."""
    if not isinstance(version, int) or version < 1:
        raise StorageError(f"bad codec version marker: {version!r}")
    if version > CODEC_VERSION:
        raise StorageError(
            f"codec version {version} is newer than supported {CODEC_VERSION}"
        )
