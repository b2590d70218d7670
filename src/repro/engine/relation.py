"""Columnar relations: dictionary-encoded tuples with hash indexes.

A :class:`Relation` stores the extension of one predicate.  Since PR 6
the primary representation is *columnar over dense term IDs*: every
stored tuple is encoded as a row of equality-class IDs
(:func:`repro.terms.term.row_id`), kept three ways at once —

* ``_rowpos`` — a dict mapping each ID row to its position, giving O(1)
  membership, insertion order, and the row *set* the specialized
  executors use for semi-join and anti-join membership tests;
* ``_columns`` — parallel ``array('q')`` int lanes, one per argument
  position (the dictionary-encoded columnar layout; ``column`` and
  ``id_set`` expose them for scans and per-position statistics, and
  ``lane`` hands out a zero-copy ``memoryview`` slice for the vector
  kernels);
* ``_id_indexes`` — per-signature hash indexes in ID space, keyed by a
  bare ``int`` for 1-position signatures and an int tuple otherwise,
  with ID-row-set buckets.  Built on first probe, maintained by every
  later ``add``/``discard``, and preserved by ``copy`` exactly as the
  term-level indexes always were.

Because ``row_id`` identifies the term *equality class*, ID equality on
rows coincides with term-tuple equality, so membership and join
semantics are unchanged from the term-set representation.

The term-level API (iteration, ``lookup``, ``probe_index``) reads a
parallel *term lane*: the exact argument tuples as added, kept verbatim
alongside the columns.  Equality-class IDs deliberately collapse
equal-but-distinct spellings (a quoted string vs the bare symbol), so
decoding rows back to terms would surface whichever spelling interned
first process-wide; the verbatim lane keeps answers and printing
deterministic, exactly as the pre-columnar representation did.
Term-level hash indexes are still built lazily per signature and
maintained incrementally.

Single-position signatures — the dominant shape in linear-recursive
joins — key both index families by the bare key instead of a 1-tuple:
an ``int`` key for ID indexes, the term itself (cached hash) for term
indexes.

``copy`` is copy-on-write: the clone shares every container with the
original until either side mutates, at which point the mutating side
takes private copies (``_unshare``).  Fixpoint delta bookkeeping and
magic evaluation copy relations that are usually never (or barely)
written afterwards; deep-copying the int lanes on every copy would eat
the vectorization win.
"""

from __future__ import annotations

from array import array
from itertools import filterfalse
from typing import Callable, Iterable, Iterator

from repro.terms.term import Term, _ID_TABLE, row_id

ArgTuple = tuple[Term, ...]

#: A stored tuple in ID space: one equality-class ID per argument.
IdRow = tuple[int, ...]


def encode_args(args: ArgTuple) -> IdRow:
    """Encode a term tuple as a row of equality-class IDs.

    Already-interned terms (the common case everywhere past the parser)
    encode with one attribute load each; anything else is interned on
    the way in, which also canonicalizes the stored representation.
    """
    row = []
    for term in args:
        rid = term._rid
        if rid is None:
            rid = row_id(term)
        row.append(rid)
    return tuple(row)


def decode_row(row: IdRow) -> ArgTuple:
    """Materialize the canonical term tuple for an ID row."""
    table = _ID_TABLE
    return tuple(table[rid] for rid in row)


class Relation:
    """The set of ground argument tuples of one predicate."""

    __slots__ = (
        "pred",
        "arity",
        "_rowpos",
        "_columns",
        "_id_indexes",
        "_indexes",
        "_decoded",
        "_cow",
    )

    def __init__(self, pred: str, arity: int) -> None:
        self.pred = pred
        self.arity = arity
        self._rowpos: dict[IdRow, int] = {}
        self._columns: tuple[array, ...] = tuple(
            array("q") for _ in range(arity)
        )
        # bucket values are sets: ``_rowpos`` guarantees row uniqueness,
        # so membership and removal stay O(1) instead of O(bucket).
        self._id_indexes: dict[tuple[int, ...], dict[object, set[IdRow]]] = {}
        self._indexes: dict[tuple[int, ...], dict[object, set[ArgTuple]]] = {}
        # the term lane: the exact argument tuples as added, parallel to
        # ``_columns`` positions.  ID rows carry *equality-class* IDs,
        # which collapse equal-but-distinct spellings (a quoted string
        # vs the bare symbol), so decoding a row would surface whichever
        # spelling interned first process-wide; keeping the added tuples
        # verbatim makes iteration, answers, and printing deterministic
        # — exactly the pre-columnar behavior — at one list append per
        # insert.
        self._decoded: list[ArgTuple] = []
        # True while this relation's containers are shared with a
        # copy-on-write clone; the first mutation on either side calls
        # ``_unshare`` to take private copies.
        self._cow = False

    def __len__(self) -> int:
        return len(self._rowpos)

    def __iter__(self) -> Iterator[ArgTuple]:
        return iter(self._decoded)

    def __contains__(self, args: ArgTuple) -> bool:
        return encode_args(args) in self._rowpos

    # -- ID-space API (the specialized executors' surface) -----------------

    def id_rows(self):
        """The set of stored ID rows (a live dict keys view)."""
        return self._rowpos.keys()

    def contains_id_row(self, row: IdRow) -> bool:
        return row in self._rowpos

    def column(self, position: int) -> array:
        """The ID column for one argument position (do not mutate)."""
        return self._columns[position]

    def lane(self, position: int) -> memoryview:
        """A zero-copy ``memoryview`` slice of one ID column.

        The view reads the live ``array('q')`` buffer — no copy, valid
        int lane for the vector kernels.  It pins the buffer against
        resizing (``BufferError`` on ``add`` while a view is alive), so
        callers must release it — or simply let it fall out of scope —
        before mutating the relation.  Kernel call sites hold lanes
        only for the duration of one whole-column pass.
        """
        return memoryview(self._columns[position])

    def id_set(self, position: int) -> set[int]:
        """Distinct IDs appearing at one position (the dictionary of the
        dictionary encoding; useful for selectivity estimates)."""
        return set(self._columns[position])

    def id_index(
        self, positions: tuple[int, ...]
    ) -> dict[object, set[IdRow]]:
        """The ID-space hash index for a non-empty position signature,
        built on first use and maintained by later adds/discards.  Keys
        follow the index convention: bare ``int`` for 1-position
        signatures, int tuple otherwise; buckets are ID-row sets."""
        index = self._id_indexes.get(positions)
        if index is None:
            index = {}
            if len(positions) == 1:
                pos = positions[0]
                for row in self._rowpos:
                    key = row[pos]
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = {row}
                    else:
                        bucket.add(row)
            else:
                for row in self._rowpos:
                    key = tuple(row[i] for i in positions)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = {row}
                    else:
                        bucket.add(row)
            self._id_indexes[positions] = index
        return index

    # -- mutation ----------------------------------------------------------

    def add(self, args: ArgTuple) -> bool:
        """Insert a tuple; returns True when it is new."""
        return self.add_row(encode_args(args), args)

    def add_row(self, row: IdRow, args: ArgTuple) -> bool:
        """Insert a tuple whose ID row the caller already holds (the
        specialized executor derives facts in ID space); ``row`` must
        be the encoding of ``args``."""
        if row in self._rowpos:
            return False
        if len(args) != self.arity:
            raise ValueError(
                f"{self.pred}: arity {self.arity} but got {len(args)} args"
            )
        if self._cow:
            self._unshare()
        # columns first, with rollback: an exported lane pins its
        # buffer, and the BufferError must not leave the row half
        # registered (rowpos without lane entries).
        columns = self._columns
        done = 0
        try:
            for column, rid in zip(columns, row):
                column.append(rid)
                done += 1
        except BufferError:
            for column in columns[:done]:
                column.pop()
            raise
        self._rowpos[row] = len(self._rowpos)
        if self._id_indexes:
            for positions, index in self._id_indexes.items():
                if len(positions) == 1:
                    key = row[positions[0]]
                else:
                    key = tuple(row[i] for i in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = {row}
                else:
                    bucket.add(row)
        self._decoded.append(args)
        if self._indexes:
            for positions, index in self._indexes.items():
                if len(positions) == 1:
                    key = args[positions[0]]
                else:
                    key = tuple(args[i] for i in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = {args}
                else:
                    bucket.add(args)
        return True

    def add_all(self, tuples: Iterable[ArgTuple]) -> int:
        """Insert many tuples; returns how many were new."""
        return sum(1 for t in tuples if self.add(t))

    def add_rows(
        self,
        rows: Iterable[IdRow],
        decode: Callable[[IdRow], ArgTuple],
    ) -> list[tuple[IdRow, ArgTuple]]:
        """Bulk-insert derived ID rows; returns the (row, args) pairs
        that were actually new, in derivation order.

        This is the vectorized fixpoint's scatter: the duplicate
        candidates a naive round re-derives by the hundreds of
        thousands are eliminated at C speed (``dict.fromkeys`` dedupe +
        ``filterfalse`` against the row→position dict), columns extend
        in one bulk gather/append per lane, and only the genuinely new
        rows pay Python-level work (one ``decode`` call each for the
        verbatim term lane, plus index maintenance when indexes exist).
        """
        fresh = list(filterfalse(self._rowpos.__contains__, dict.fromkeys(rows)))
        if not fresh:
            return []
        if self._cow:
            self._unshare()
        rowpos = self._rowpos
        base = len(rowpos)
        # columns first, with rollback (see add_row): a pinned lane must
        # not leave some columns extended and others not.
        done = 0
        try:
            for i, column in enumerate(self._columns):
                column.extend([row[i] for row in fresh])
                done += 1
        except BufferError:
            for column in self._columns[:done]:
                del column[base:]
            raise
        pos = base
        for row in fresh:
            rowpos[row] = pos
            pos += 1
        pairs = [(row, decode(row)) for row in fresh]
        self._decoded.extend([args for _, args in pairs])
        if self._id_indexes:
            for positions, index in self._id_indexes.items():
                single = len(positions) == 1
                first = positions[0]
                for row in fresh:
                    key = row[first] if single else tuple(
                        row[i] for i in positions
                    )
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = {row}
                    else:
                        bucket.add(row)
        if self._indexes:
            for positions, index in self._indexes.items():
                single = len(positions) == 1
                first = positions[0]
                for _, args in pairs:
                    key = args[first] if single else tuple(
                        args[i] for i in positions
                    )
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = {args}
                    else:
                        bucket.add(args)
        return pairs

    def discard(self, args: ArgTuple) -> bool:
        """Remove a tuple; returns True when it was present.

        Already-built indexes — columnar ID indexes and term-level ones
        alike — are maintained in place, mirroring :meth:`add`, so
        later probes stay consistent.  Columns compact by swapping the
        last row into the vacated position (order is not part of the
        relation contract).
        """
        row = encode_args(args)
        if row not in self._rowpos:
            return False
        if self._cow:
            self._unshare()
        pos = self._rowpos.pop(row)
        last = len(self._rowpos)
        columns = self._columns
        if pos != last:
            moved = tuple(column[last] for column in columns)
            for column, rid in zip(columns, moved):
                column[pos] = rid
            self._rowpos[moved] = pos
        for column in columns:
            column.pop()
        decoded = self._decoded
        stored = decoded[pos]  # the verbatim tuple being removed
        if pos != last:
            decoded[pos] = decoded[last]
        decoded.pop()
        for positions, index in self._id_indexes.items():
            if len(positions) == 1:
                key = row[positions[0]]
            else:
                key = tuple(row[i] for i in positions)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]
        if self._indexes:
            # ``stored`` is the tuple the index buckets actually hold;
            # bucket membership is structural, so its exact spelling
            # removes it even when ``args`` spelled some argument
            # differently (quoted vs bare — equal, hence same row).
            for positions, index in self._indexes.items():
                if len(positions) == 1:
                    key = stored[positions[0]]
                else:
                    key = tuple(stored[i] for i in positions)
                bucket = index.get(key)
                if bucket is not None:
                    bucket.discard(stored)
                    if not bucket:
                        del index[key]
        return True

    # -- term-space API (decoded view) -------------------------------------

    def lookup(self, positions: tuple[int, ...], key: ArgTuple) -> Iterable[ArgTuple]:
        """Tuples whose projection on ``positions`` equals ``key``.

        Builds (and thereafter maintains) a term-level hash index for
        the position signature on first use.  An empty signature scans
        everything.
        """
        if not positions:
            return iter(self)
        index = self.probe_index(positions)
        return index.get(key[0] if len(positions) == 1 else key, ())

    def probe_index(
        self, positions: tuple[int, ...]
    ) -> dict[object, set[ArgTuple]]:
        """The term-level hash index for a non-empty position signature,
        built on first use from the verbatim term lane.  Keys follow
        the index convention: bare term for 1-position signatures,
        tuple otherwise.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            rows = self._decoded
            if len(positions) == 1:
                pos = positions[0]
                for targs in rows:
                    index_key = targs[pos]
                    bucket = index.get(index_key)
                    if bucket is None:
                        index[index_key] = {targs}
                    else:
                        bucket.add(targs)
            else:
                for targs in rows:
                    index_key = tuple(targs[i] for i in positions)
                    bucket = index.get(index_key)
                    if bucket is None:
                        index[index_key] = {targs}
                    else:
                        bucket.add(targs)
            self._indexes[positions] = index
        return index

    def copy(self) -> "Relation":
        """A logically independent clone, *including* already-built
        indexes of both families (columnar ID indexes and term-level
        ones) — copies probe the same signatures as the original, and
        rebuilding every index on first probe would pay the full O(n)
        construction again.

        The clone is copy-on-write: it *shares* the row dict, int
        lanes, index dicts, and term lane with the original until
        either side first mutates, at which point the mutating side
        takes private copies (:meth:`_unshare`).  Fixpoint delta
        bookkeeping and magic/well-founded evaluation copy relations
        that often never get written afterwards, so the O(n) lane copy
        is deferred until a write proves it necessary.  Lazily building
        a *new* index signature into a shared index dict is benign:
        both sides hold identical rows while shared, so the built index
        is correct for whichever side triggered it and a free warm
        start for the other.
        """
        clone = Relation(self.pred, self.arity)
        clone._rowpos = self._rowpos
        clone._columns = self._columns
        clone._id_indexes = self._id_indexes
        clone._indexes = self._indexes
        clone._decoded = self._decoded
        clone._cow = True
        self._cow = True
        return clone

    def _unshare(self) -> None:
        """Take private copies of every shared container (first write
        after a copy-on-write :meth:`copy`).

        The lanes are copied as fresh ``array('q')`` buffers, so
        ``memoryview`` slices previously exported from the *other*
        side keep reading their original, still-valid buffer.
        """
        self._rowpos = dict(self._rowpos)
        self._columns = tuple(array("q", column) for column in self._columns)
        self._id_indexes = {
            positions: {key: set(bucket) for key, bucket in index.items()}
            for positions, index in self._id_indexes.items()
        }
        self._indexes = {
            positions: {key: set(bucket) for key, bucket in index.items()}
            for positions, index in self._indexes.items()
        }
        self._decoded = list(self._decoded)
        self._cow = False
