"""Relations: a predicate's extension as a set of ID rows.

A :class:`Relation` stores the extension of one predicate as its set of
*ID rows* — one equality-class ID per argument
(:func:`repro.terms.term.row_id`) — and nothing else that must be kept
in step with them:

* ``_rows`` — a dict whose keys are the stored ID rows (values unused),
  giving O(1) membership, insertion order, and the row *set* the
  compiled executor uses for semi-join and anti-join membership tests;
* ``_id_indexes`` — per-signature hash indexes in ID space, keyed by a
  bare ``int`` for 1-position signatures and an int tuple otherwise,
  with ID-row-set buckets.  Built on first probe, maintained by every
  later ``add``/``discard``, and preserved by ``copy``;
* ``_spellings`` — ``{row: args}`` for the few rows whose arguments,
  as added, are not their equality classes' representatives.

Because ``row_id`` identifies the term *equality class*, ID equality on
rows coincides with term-tuple equality, so membership and join
semantics are those of a set of term tuples.

Terms matter only when a reader asks for them: iteration, ``lookup``
and ``args_of`` decode rows through the ID table when called, and
``lookup`` probes the ID index and decodes that bucket only.  A decoded
row spells every argument as its class representative, the plain
spelling with every string unquoted.  A row added with another spelling
— a quoted string or a compound holding one — keeps it in
``_spellings`` and reads back exactly as added, so answers and printing
never depend on what the process interned first.

``copy`` is copy-on-write: the clone shares every container with the
original until either side mutates, at which point the mutating side
takes private copies (``_unshare``).  Fixpoint delta bookkeeping and
magic evaluation copy relations that are usually never (or barely)
written afterwards.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Callable, Iterable, Iterator

from repro.terms.term import Term, _ID_TABLE, evaluate_ground, row_id, term_id

ArgTuple = tuple[Term, ...]

#: A stored tuple in ID space: one equality-class ID per argument.
IdRow = tuple[int, ...]


def encode_args(args: ArgTuple) -> IdRow:
    """Encode a term tuple as a row of equality-class IDs.

    Already-interned terms (the common case everywhere past the parser)
    encode with one attribute load each; anything else is canonicalized
    (``1 + 1`` encodes as ``2``) and interned on the way in.
    """
    row = []
    for term in args:
        rid = term._rid
        if rid is None:
            rid = row_id(term)
        row.append(rid)
    return tuple(row)


def decode_row(row: IdRow) -> ArgTuple:
    """Materialize the canonical term tuple for an ID row: every
    argument spelled as its class representative."""
    table = _ID_TABLE
    return tuple([table[rid] for rid in row])


def spelling_of(args: ArgTuple) -> ArgTuple | None:
    """The spelling to record for ``args``: None when ``decode_row`` of
    their ID row spells every argument the same, else ``args`` as U-
    elements — a quoted string, or a compound holding one, stays as
    given, while an uninterned term is canonicalized like its ID."""
    for term in args:
        tid = term._tid
        if tid is None:
            if term_id(term) != row_id(term):
                break
        elif tid != term._rid:
            break
    else:
        return None
    return tuple([evaluate_ground(term) for term in args])


def record_spellings(
    spellings: dict[IdRow, ArgTuple],
    rows: Iterable[IdRow],
    decode: Callable[[IdRow], ArgTuple] | None,
) -> None:
    """Record in ``spellings`` the rows ``decode`` spells differently
    from their class representatives.  ``None`` and :func:`decode_row`
    spell every row canonically and record nothing."""
    if decode is None or decode is decode_row:
        return
    for row in rows:
        spelled = spelling_of(decode(row))
        if spelled is not None:
            spellings[row] = spelled


def spelled_decoder(
    spellings: dict[IdRow, ArgTuple],
) -> Callable[[IdRow], ArgTuple] | None:
    """A ``decode`` for :meth:`Relation.add_rows` that spells the rows
    in ``spellings`` as recorded there and every other row canonically,
    or None when ``spellings`` is empty."""
    if not spellings:
        return None
    return lambda row: spellings.get(row) or decode_row(row)


def _index_rows(index: dict, positions: tuple[int, ...], rows) -> None:
    """Add ``rows`` to an ID index over ``positions``."""
    if len(positions) == 1:
        pos = positions[0]
        for row in rows:
            key = row[pos]
            bucket = index.get(key)
            if bucket is None:
                index[key] = {row}
            else:
                bucket.add(row)
    else:
        for row in rows:
            key = tuple([row[i] for i in positions])
            bucket = index.get(key)
            if bucket is None:
                index[key] = {row}
            else:
                bucket.add(row)


class Relation:
    """The set of ground argument tuples of one predicate."""

    __slots__ = ("pred", "arity", "_rows", "_id_indexes", "_spellings", "_cow")

    def __init__(self, pred: str, arity: int) -> None:
        self.pred = pred
        self.arity = arity
        self._rows: dict[IdRow, None] = {}
        # bucket values are sets: ``_rows`` guarantees row uniqueness,
        # so membership and removal stay O(1) instead of O(bucket).
        self._id_indexes: dict[tuple[int, ...], dict[object, set[IdRow]]] = {}
        self._spellings: dict[IdRow, ArgTuple] = {}
        # True while this relation's containers are shared with a
        # copy-on-write clone; the first mutation on either side calls
        # ``_unshare`` to take private copies.
        self._cow = False

    @classmethod
    def adopt(
        cls,
        pred: str,
        arity: int,
        rows: dict[IdRow, None],
        spellings: dict[IdRow, ArgTuple],
    ) -> "Relation":
        """A relation whose containers *are* ``rows`` (distinct ID rows,
        in order) and ``spellings`` — the bulk loader's batches, taken
        over uncopied, so a load never holds two copies of its rows.
        The caller must not use either dict afterwards."""
        rel = cls(pred, arity)
        rel._rows = rows
        rel._spellings = spellings
        return rel

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ArgTuple]:
        # over a snapshot of the rows: writes during iteration are safe
        rows = list(self._rows)
        if self._spellings:
            return map(self.args_of, rows)
        return map(decode_row, rows)

    def __contains__(self, args: ArgTuple) -> bool:
        return encode_args(args) in self._rows

    def args_of(self, row: IdRow) -> ArgTuple:
        """The argument tuple of a stored row, spelled as it was added."""
        args = self._spellings.get(row)
        return decode_row(row) if args is None else args

    # -- ID-space API (the compiled executor's surface) --------------------

    def id_rows(self):
        """The set of stored ID rows (a live dict keys view)."""
        return self._rows.keys()

    def spellings(self):
        """The ``(row, args)`` pairs of the rows added with a spelling
        other than their class representatives' (a live dict items
        view; usually empty)."""
        return self._spellings.items()

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
            _index_rows(index, positions, self._rows)
            self._id_indexes[positions] = index
        return index

    # -- mutation ----------------------------------------------------------

    def add(self, args: ArgTuple) -> bool:
        """Insert a tuple; returns True when it is new."""
        return self.add_row(encode_args(args), args)

    def add_row(self, row: IdRow, args: ArgTuple) -> bool:
        """Insert a tuple whose ID row the caller already holds (the
        compiled executor derives facts in ID space); ``row`` must be
        the encoding of ``args``."""
        if row in self._rows:
            return False
        if len(args) != self.arity:
            raise ValueError(
                f"{self.pred}: arity {self.arity} but got {len(args)} args"
            )
        if self._cow:
            self._unshare()
        self._rows[row] = None
        for positions, index in self._id_indexes.items():
            _index_rows(index, positions, (row,))
        spelled = spelling_of(args)
        if spelled is not None:
            self._spellings[row] = spelled
        return True

    def add_all(self, tuples: Iterable[ArgTuple]) -> int:
        """Insert many tuples; returns how many were new."""
        return sum(1 for t in tuples if self.add(t))

    def add_rows(
        self,
        rows: Iterable[IdRow],
        decode: Callable[[IdRow], ArgTuple] | None,
    ) -> list[IdRow]:
        """Bulk-insert derived ID rows; returns the rows that were
        actually new, in derivation order.

        This is the fixpoint's scatter: the duplicate candidates a
        naive round re-derives by the hundreds of thousands are
        eliminated at C speed (``dict.fromkeys`` dedupe + ``filterfalse``
        against the row dict), and only the genuinely new rows pay
        Python-level work, for index maintenance.  Nothing is decoded
        unless ``decode`` is a slot decoder that spells some head
        argument differently from its class representative
        (:func:`record_spellings`).
        """
        fresh = list(filterfalse(self._rows.__contains__, dict.fromkeys(rows)))
        if not fresh:
            return fresh
        if self._cow:
            self._unshare()
        self._rows.update(dict.fromkeys(fresh))
        for positions, index in self._id_indexes.items():
            _index_rows(index, positions, fresh)
        record_spellings(self._spellings, fresh, decode)
        return fresh

    def discard(self, args: ArgTuple) -> bool:
        """Remove a tuple; returns True when it was present.

        Already-built ID indexes are maintained in place, mirroring
        :meth:`add`, so later probes stay consistent.
        """
        return bool(self.discard_rows((encode_args(args),)))

    def discard_rows(self, rows: Iterable[IdRow]) -> list[IdRow]:
        """Bulk-remove ID rows; returns the rows that were actually
        present, each once, in the order given — exactly what one
        :meth:`discard` per row would remove, built indexes and
        spellings included."""
        stored = self._rows
        gone = list(filter(stored.__contains__, dict.fromkeys(rows)))
        if not gone:
            return gone
        if self._cow:
            self._unshare()
            stored = self._rows
        spellings = self._spellings
        for row in gone:
            del stored[row]
            if spellings:
                spellings.pop(row, None)
        for positions, index in self._id_indexes.items():
            if len(positions) == 1:
                pos = positions[0]
                keys = [row[pos] for row in gone]
            else:
                keys = [tuple([row[i] for i in positions]) for row in gone]
            for key, row in zip(keys, gone):
                bucket = index.get(key)
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del index[key]
        return gone

    def spellings_of(self, rows: Iterable[IdRow]) -> dict[IdRow, ArgTuple]:
        """The recorded spellings of those of ``rows`` that have one
        (see :meth:`spellings`)."""
        spellings = self._spellings
        if not spellings:
            return {}
        return {row: spellings[row] for row in rows if row in spellings}

    # -- term-space API (decoded on read) ----------------------------------

    def lookup(self, positions: tuple[int, ...], key: ArgTuple) -> Iterable[ArgTuple]:
        """Tuples whose projection on ``positions`` equals ``key``.

        Probes the ID index for the signature (built on first use) with
        the key's row IDs and decodes only the matching bucket, as it is
        iterated; like the bucket, the result must not be iterated
        across a write to this relation.  A key that is not a term
        matches nothing, and so does a position past the arity.  An
        empty signature scans everything.
        """
        if not positions:
            return iter(self)
        if max(positions) >= self.arity:
            return ()
        try:
            probe = row_id(key[0]) if len(positions) == 1 else encode_args(key)
        except (TypeError, AttributeError):
            return ()
        bucket = self.id_index(positions).get(probe)
        if not bucket:
            return ()
        return map(self.args_of if self._spellings else decode_row, bucket)

    def copy(self) -> "Relation":
        """A logically independent clone, *including* already-built ID
        indexes — copies probe the same signatures as the original, and
        rebuilding every index on first probe would pay the full O(n)
        construction again.

        The clone is copy-on-write: it *shares* the row dict, the index
        dicts and the spellings with the original until either side
        first mutates, at which point the mutating side takes private
        copies (:meth:`_unshare`).  Lazily building a *new* index
        signature into a shared index dict is benign: both sides hold
        identical rows while shared, so the built index is correct for
        whichever side triggered it and a free warm start for the other.
        """
        clone = Relation(self.pred, self.arity)
        clone._rows = self._rows
        clone._id_indexes = self._id_indexes
        clone._spellings = self._spellings
        clone._cow = True
        self._cow = True
        return clone

    def _unshare(self) -> None:
        """Take private copies of every shared container (first write
        after a copy-on-write :meth:`copy`)."""
        self._rows = dict(self._rows)
        self._id_indexes = {
            positions: {key: set(bucket) for key, bucket in index.items()}
            for positions, index in self._id_indexes.items()
        }
        self._spellings = dict(self._spellings)
        self._cow = False
