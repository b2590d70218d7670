"""Relations: a predicate's extension in ID space.

A :class:`Relation` stores the extension of one predicate over *ID
rows*, one equality-class ID per argument
(:func:`repro.terms.term.row_id`).  ``Relation(pred, arity)`` picks the
storage for the arity, and the rows are held once:

* a binary predicate is a :class:`KeyMapRelation`: ``_keys``, one
  ``{first ID: set(second ID)}`` map and nothing else.  A rule
  application produces a *set* (section 3.2), and per first argument
  it is kept as one: membership is a dict get and a set test, a
  position-0 probe reads a value set as stored
  (:meth:`KeyMapRelation.key_map`), and the fixpoint installs a linear
  recursive rule's candidates as per-key set differences
  (:meth:`KeyMapRelation.add_keys`).  :meth:`~KeyMapRelation.id_rows`
  is a set-like view (:class:`KeyMapRows`) that iterates the map's
  items and value sets, so its order follows the operation history
  only: the IDs are ints, whose hashes no ``PYTHONHASHSEED`` changes;
* any other arity is a :class:`RowRelation`: ``_rows``, a dict whose
  keys are the stored ID rows (values unused), in insertion order.

Both keep, beside their rows:

* ``_id_indexes`` — per-signature hash indexes in ID space, keyed by a
  bare ``int`` for 1-position signatures and an int tuple otherwise,
  with ID-row-set buckets.  Built on first probe, maintained by every
  later ``add``/``discard``, and preserved by ``copy``.  Nothing in
  the engine asks a binary relation for one at ``(0,)``: its key map
  is that index, and ``lookup`` and the compiled closures read it;
* ``_spellings`` — ``{row: args}`` for the few rows whose arguments,
  as added, are not their equality classes' representatives.

Rows arrive in bulk through :meth:`Relation.add_rows`, which
deduplicates a rule application's row multiset against the stored
rows, and (binary only) :meth:`KeyMapRelation.add_keys`, which takes a
key map of candidates.

Because ``row_id`` identifies the term *equality class*, ID equality on
rows coincides with term-tuple equality, so membership and join
semantics are those of a set of term tuples.

Terms matter only when a reader asks for them: iteration, ``lookup``
and ``args_of`` decode rows through the ID table when called, and
``lookup`` decodes the matching bucket (or value set) only.  A decoded
row spells every argument as its class representative, the plain
spelling with every string unquoted.  A row added with another spelling
— a quoted string or a compound holding one — keeps it in
``_spellings`` and reads back exactly as added, so answers and printing
never depend on what the process interned first.

``copy`` is copy-on-write: the clone shares every container with the
original until either side mutates, at which point the mutating side
takes private copies (``_unshare``; a key map copies its value sets).
Fixpoint delta bookkeeping and magic evaluation copy relations that are
usually never (or barely) written afterwards.
"""

from __future__ import annotations

from collections.abc import Set
from itertools import chain, filterfalse, repeat
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


def group_pairs(keys: dict[int, set[int]], rows) -> None:
    """Add binary ``rows`` to the key map ``keys``."""
    get = keys.get
    for first, second in rows:
        values = get(first)
        if values is None:
            keys[first] = {second}
        else:
            values.add(second)


def pairs_of(keys: dict[int, set[int]]) -> list[IdRow]:
    """The ``(first, second)`` rows of a key map, key by key: one list
    comprehension, as fast as a C-level chain of per-key iterators on
    large value sets and three times faster on singletons (a grouping
    rule's ``p(K, <V>)`` holds one set per key)."""
    return [(first, second) for first, values in keys.items() for second in values]


class Relation:
    """The set of ground argument tuples of one predicate.

    ``Relation(pred, arity)`` returns the storage for the arity: a
    :class:`KeyMapRelation` for a binary predicate, a
    :class:`RowRelation` otherwise.  This class holds what both share:
    the row-form indexes, the spellings, the term-space reads and
    copy-on-write."""

    __slots__ = ("pred", "arity", "_id_indexes", "_spellings", "_cow")

    def __new__(cls, pred: str, arity: int) -> "Relation":
        if cls is Relation:
            cls = KeyMapRelation if arity == 2 else RowRelation
        return object.__new__(cls)

    def __init__(self, pred: str, arity: int) -> None:
        self.pred = pred
        self.arity = arity
        # bucket values are sets: the stored rows are unique, so
        # membership and removal stay O(1) instead of O(bucket).
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
        """A relation holding ``rows`` (distinct ID rows, in order) and
        ``spellings`` — the bulk loader's batches.  A row relation takes
        both dicts over uncopied, so a load never holds two copies of
        its rows; a key map groups ``rows`` once.  The caller must not
        use either dict afterwards."""
        rel = cls(pred, arity)
        rel._take(rows)
        rel._spellings = spellings
        return rel

    def __iter__(self) -> Iterator[ArgTuple]:
        # over a snapshot of the rows: writes during iteration are safe
        rows = list(self.id_rows())
        if self._spellings:
            return map(self.args_of, rows)
        return map(decode_row, rows)

    def __contains__(self, args: ArgTuple) -> bool:
        return self.has_row(encode_args(args))

    def args_of(self, row: IdRow) -> ArgTuple:
        """The argument tuple of a stored row, spelled as it was added."""
        args = self._spellings.get(row)
        return decode_row(row) if args is None else args

    # -- ID-space API (the compiled executor's surface) --------------------

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
            _index_rows(index, positions, self.id_rows())
            self._id_indexes[positions] = index
        return index

    # -- mutation ----------------------------------------------------------

    def add(self, args: ArgTuple) -> bool:
        """Insert a tuple; returns True when it is new."""
        return self.add_row(encode_args(args), args)

    def add_all(self, tuples: Iterable[ArgTuple]) -> int:
        """Insert many tuples; returns how many were new."""
        return sum(1 for t in tuples if self.add(t))

    def discard(self, args: ArgTuple) -> bool:
        """Remove a tuple; returns True when it was present.

        Already-built ID indexes are maintained in place, mirroring
        :meth:`add`, so later probes stay consistent.
        """
        return bool(self.discard_rows((encode_args(args),)))

    def spellings_of(self, rows: Iterable[IdRow]) -> dict[IdRow, ArgTuple]:
        """The recorded spellings of those of ``rows`` that have one
        (see :meth:`spellings`)."""
        spellings = self._spellings
        if not spellings:
            return {}
        return {row: spellings[row] for row in rows if row in spellings}

    def _check_arity(self, args: ArgTuple) -> None:
        if len(args) != self.arity:
            raise ValueError(
                f"{self.pred}: arity {self.arity} but got {len(args)} args"
            )

    def _added(self, rows, args: ArgTuple | None = None) -> None:
        """Keep the built indexes in step with newly stored ``rows``, and
        record the spelling of a single row added as ``args``."""
        for positions, index in self._id_indexes.items():
            _index_rows(index, positions, rows)
        if args is not None:
            spelled = spelling_of(args)
            if spelled is not None:
                self._spellings[rows[0]] = spelled

    def _removed(self, gone: list[IdRow]) -> None:
        """Drop the spellings and index entries of removed rows."""
        spellings = self._spellings
        if spellings:
            for row in gone:
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

    # -- term-space API (decoded on read) ----------------------------------

    def lookup(self, positions: tuple[int, ...], key: ArgTuple) -> Iterable[ArgTuple]:
        """Tuples whose projection on ``positions`` equals ``key``.

        Probes the ID index for the signature (built on first use; a
        binary relation reads its key map for position 0) with the
        key's row IDs and decodes only the matching rows, as they are
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
        bucket = self._bucket(positions, probe)
        if not bucket:
            return ()
        return map(self.args_of if self._spellings else decode_row, bucket)

    def _bucket(self, positions: tuple[int, ...], probe):
        """The stored rows matching an encoded probe, or None."""
        return self.id_index(positions).get(probe)

    def copy(self) -> "Relation":
        """A logically independent clone, *including* already-built ID
        indexes — copies probe the same signatures as the original, and
        rebuilding every index on first probe would pay the full O(n)
        construction again.

        The clone is copy-on-write: it *shares* the rows, the index
        dicts and the spellings with the original until either side
        first mutates, at which point the mutating side takes private
        copies (:meth:`_unshare`).  Lazily building a *new* index
        signature into a shared index dict is benign: both sides hold
        identical rows while shared, so the built index is correct for
        whichever side triggered it and a free warm start for the other.
        """
        clone = object.__new__(type(self))
        clone.pred = self.pred
        clone.arity = self.arity
        clone._id_indexes = self._id_indexes
        clone._spellings = self._spellings
        self._share_rows(clone)
        clone._cow = True
        self._cow = True
        return clone

    def _unshare(self) -> None:
        """Take private copies of every shared container (first write
        after a copy-on-write :meth:`copy`)."""
        self._unshare_rows()
        self._id_indexes = {
            positions: {key: set(bucket) for key, bucket in index.items()}
            for positions, index in self._id_indexes.items()
        }
        self._spellings = dict(self._spellings)
        self._cow = False


class RowRelation(Relation):
    """A relation of any arity but 2: its ID rows as the keys of one
    insertion-ordered dict."""

    __slots__ = ("_rows",)

    def __init__(self, pred: str, arity: int) -> None:
        super().__init__(pred, arity)
        self._rows: dict[IdRow, None] = {}

    def _take(self, rows: dict[IdRow, None]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def has_row(self, row: IdRow) -> bool:
        """Whether the ID row is stored."""
        return row in self._rows

    def stored(self, rows: Iterable[IdRow]) -> list[IdRow]:
        """Those of ``rows`` that are stored, in order."""
        return list(filter(self._rows.__contains__, rows))

    def id_rows(self):
        """The set of stored ID rows (a live dict keys view)."""
        return self._rows.keys()

    def flat_ids(self) -> list[int]:
        """Every stored row's IDs, row after row, in :meth:`id_rows`
        order, as one flat list."""
        return list(chain.from_iterable(self._rows))

    def add_row(self, row: IdRow, args: ArgTuple) -> bool:
        """Insert a tuple whose ID row the caller already holds (the
        compiled executor derives facts in ID space); ``row`` must be
        the encoding of ``args``."""
        if row in self._rows:
            return False
        self._check_arity(args)
        if self._cow:
            self._unshare()
        self._rows[row] = None
        self._added((row,), args)
        return True

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

        A first install — no rows stored and no ID index built — adopts
        its batch: the deduplicated ``dict.fromkeys`` becomes the row
        dict as it is, with no filter pass and no second dict (a
        copy-on-write clone is unshared first).
        """
        if self._rows or self._id_indexes:
            fresh = list(
                filterfalse(self._rows.__contains__, dict.fromkeys(rows))
            )
            if fresh:
                if self._cow:
                    self._unshare()
                self._rows.update(zip(fresh, repeat(None)))
                self._added(fresh)
        else:
            batch = dict.fromkeys(rows)
            fresh = list(batch)
            if fresh:
                if self._cow:
                    self._unshare()
                self._rows = batch
        if fresh:
            record_spellings(self._spellings, fresh, decode)
        return fresh

    def discard_rows(self, rows: Iterable[IdRow]) -> list[IdRow]:
        """Bulk-remove ID rows; returns the rows that were actually
        present, each once, in the order given — exactly what one
        :meth:`discard` per row would remove, built indexes and
        spellings included."""
        gone = self.stored(dict.fromkeys(rows))
        if gone:
            if self._cow:
                self._unshare()
            stored = self._rows
            for row in gone:
                del stored[row]
            self._removed(gone)
        return gone

    def _share_rows(self, clone: "RowRelation") -> None:
        clone._rows = self._rows

    def _unshare_rows(self) -> None:
        self._rows = dict(self._rows)


class KeyMapRelation(Relation):
    """A binary relation: ``{first ID: set(second ID)}`` and its size.

    No row tuple is stored: :meth:`id_rows` builds them as it is
    iterated, and a position-0 probe reads the value set itself.

    The rows iterate key by key, each key where it was added while it
    held no value (a key whose last value goes is dropped), and a key's
    values in set order.  So the order follows the relation's history
    of operations, not its contents: two relations holding the same
    rows, one of them built by discarding from more, may list them in
    different orders."""

    __slots__ = ("_keys", "_len")

    def __init__(self, pred: str, arity: int) -> None:
        super().__init__(pred, arity)
        self._keys: dict[int, set[int]] = {}
        self._len = 0

    def _take(self, rows: dict[IdRow, None]) -> None:
        keys: dict[int, set[int]] = {}
        group_pairs(keys, rows)
        self._keys = keys
        self._len = len(rows)

    def __len__(self) -> int:
        return self._len

    def has_row(self, row: IdRow) -> bool:
        """Whether the ID row is stored."""
        if len(row) != 2:
            return False
        values = self._keys.get(row[0])
        return values is not None and row[1] in values

    def stored(self, rows: Iterable[IdRow]) -> list[IdRow]:
        """Those of ``rows`` that are stored, in order: one dict get and
        one set test per row, inline."""
        get = self._keys.get
        empty: frozenset[int] = frozenset()
        return [
            row for row in rows if len(row) == 2 and row[1] in get(row[0], empty)
        ]

    def key_map(self) -> dict[int, set[int]]:
        """The stored ``{first ID: set(second ID)}`` itself, live; the
        caller must not mutate it."""
        return self._keys

    def id_rows(self) -> "KeyMapRows":
        """The set of stored ID rows (a live set-like view)."""
        return KeyMapRows(self)

    def flat_ids(self) -> list[int]:
        """Every stored row's IDs, row after row, in :meth:`id_rows`
        order, as one flat list: no list of row tuples is built."""
        return [
            i
            for first, values in self._keys.items()
            for second in values
            for i in (first, second)
        ]

    def _bucket(self, positions: tuple[int, ...], probe):
        if positions == (0,):
            values = self._keys.get(probe)
            return None if values is None else zip(repeat(probe), values)
        if positions == (0, 1):
            return (probe,) if self.has_row(probe) else None
        return super()._bucket(positions, probe)

    def add_row(self, row: IdRow, args: ArgTuple) -> bool:
        """Insert a tuple whose ID row the caller already holds; ``row``
        must be the encoding of ``args``."""
        if self.has_row(row):
            return False
        self._check_arity(args)
        if self._cow:
            self._unshare()
        first, second = row
        values = self._keys.get(first)
        if values is None:
            self._keys[first] = {second}
        else:
            values.add(second)
        self._len += 1
        self._added((row,), args)
        return True

    def add_rows(
        self,
        rows: Iterable[IdRow],
        decode: Callable[[IdRow], ArgTuple] | None,
    ) -> list[IdRow]:
        """Bulk-insert derived ID rows; returns the rows that were
        actually new, in derivation order (see
        :meth:`RowRelation.add_rows` for ``decode``).

        The batch is deduplicated at C speed first (``dict.fromkeys``);
        only distinct rows are checked against the key map and grouped
        into it.  A first install — nothing stored — takes its batch
        over, grouped once, with no filter pass.
        """
        batch = dict.fromkeys(rows)
        keys = self._keys
        if keys:
            get = keys.get
            fresh = [row for row in batch if row[1] not in get(row[0], ())]
        else:
            fresh = list(batch)
        if fresh:
            if self._cow:
                self._unshare()
            group_pairs(self._keys, fresh)
            self._len += len(fresh)
            self._added(fresh)
            record_spellings(self._spellings, fresh, decode)
        return fresh

    def add_keys(
        self, keys: dict[int, set[int]], carried: int
    ) -> dict[int, set[int]]:
        """Install a key map of candidate pairs: ``{carried value:
        set(other value)}``, with the carried value at position
        ``carried``.  Returns what was new as ``{first: set(second)}``.

        With the carried value first, what is new under a key is the
        candidate set minus the stored one, applied straight to the
        stored set, and a candidate set under a new key is taken over
        as it is; otherwise each candidate pair is tested on its own.
        Nothing is written when nothing is new.  The caller gives up
        ``keys``, and must copy a returned set before mutating it: it
        may be the stored one."""
        stored = self._keys
        get = stored.get
        fresh: dict[int, set[int]] = {}
        if carried == 0:
            for first, candidates in keys.items():
                have = get(first)
                new = candidates if have is None else candidates - have
                if new:
                    fresh[first] = new
        else:
            for second, candidates in keys.items():
                for first in candidates:
                    have = get(first)
                    if have is None or second not in have:
                        new = fresh.get(first)
                        if new is None:
                            fresh[first] = {second}
                        else:
                            new.add(second)
        if not fresh:
            return fresh
        if self._cow:
            self._unshare()
            stored = self._keys
        count = 0
        for first, new in fresh.items():
            have = stored.get(first)
            if have is None:
                stored[first] = new
            else:
                have |= new
            count += len(new)
        self._len += count
        if self._id_indexes:
            self._added(pairs_of(fresh))
        return fresh

    def discard_rows(self, rows: Iterable[IdRow]) -> list[IdRow]:
        """Bulk-remove ID rows; returns the rows that were actually
        present, each once, in the order given — exactly what one
        :meth:`discard` per row would remove, built indexes and
        spellings included."""
        gone = self.stored(dict.fromkeys(rows))
        if gone:
            if self._cow:
                self._unshare()
            stored = self._keys
            for first, second in gone:
                values = stored[first]
                values.discard(second)
                if not values:
                    del stored[first]
            self._len -= len(gone)
            self._removed(gone)
        return gone

    def _share_rows(self, clone: "KeyMapRelation") -> None:
        clone._keys = self._keys
        clone._len = self._len

    def _unshare_rows(self) -> None:
        self._keys = {first: set(values) for first, values in self._keys.items()}


class KeyMapRows(Set):
    """A binary relation's stored ID rows as a live, set-like view:
    iteration builds the rows from the key map's items and value sets
    (:func:`pairs_of`), membership is a dict get and a set test, and
    set operators return plain sets."""

    __slots__ = ("_rel",)

    def __init__(self, rel: KeyMapRelation) -> None:
        self._rel = rel

    def __len__(self) -> int:
        return self._rel._len

    def __iter__(self) -> Iterator[IdRow]:
        return iter(pairs_of(self._rel._keys))

    def __contains__(self, row) -> bool:
        if type(row) is not tuple or len(row) != 2:
            return False
        values = self._rel._keys.get(row[0])
        return values is not None and row[1] in values

    def __sub__(self, other):
        """The rows not in ``other``; against another key map, one set
        difference per key."""
        if not isinstance(other, KeyMapRows):
            return Set.__sub__(self, other)
        theirs = other._rel._keys
        empty: frozenset[int] = frozenset()
        return {
            (first, second)
            for first, values in self._rel._keys.items()
            for second in values - theirs.get(first, empty)
        }

    @classmethod
    def _from_iterable(cls, rows) -> set:
        return set(rows)
