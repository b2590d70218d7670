"""ID-space kernels for the compiled closures, and the delta currency.

Every compiled closure (:mod:`repro.engine.exec.specialize`) inlines
its per-row arithmetic, comparisons and joins; what it calls out to
are memoized scalar kernels over dense row IDs:

* :func:`number_rid` interns a computed number back to its row ID
  through a process-wide memo, so ``C = C1 + C2`` over the interner's
  numeric table (:data:`repro.terms.term._NUM_TABLE`) runs as int adds
  plus one dict get per distinct result;
* the set kernel family (:data:`SET_KERNELS`) runs LDL1's set built-ins
  with ground operands and a fresh output variable on the operands'
  element row-ID sets: :func:`union_rid` (``partition(S, S1, S2)`` with
  both parts bound), :func:`set_union_rid`, :func:`intersection_rid`,
  :func:`difference_rid` and :func:`card_rid`.  The binary ones are
  memoized per operand pair and build their result with the one row-ID
  set constructor :func:`~repro.terms.term.set_rid`; a result of -1 means
  the built-in is false for those operands (Section 2.2 makes set
  built-ins false, not erroneous, on bound non-set arguments).

:class:`RowBatch` is the delta currency of the fixpoint and of
maintenance: ID rows, so a semi-naive round feeds the next round's
override sources without re-encoding, plus the spellings of the few
rows that do not decode to their own arguments.  Argument tuples are
decoded only when the batch is iterated (the reference executor).

Process-wide memos hold dense IDs, so :func:`clear_intern_table`
invalidates them through the term module's clear-listener registry.
"""

from __future__ import annotations

from repro.engine.relation import (
    decode_row,
    pairs_of,
    spelling_of,
    record_spellings,
)
from repro.terms.term import (
    SetVal,
    _ID_TABLE,
    intern_const,
    register_clear_listener,
    row_id,
    set_rid,
)

# -- memoized ID-space scalar kernels ---------------------------------------

#: number → row ID.  Keyed by ``(type, value)`` because equal numbers of
#: different types (``2`` vs ``2.0``, ``True`` vs ``1``) hash alike but
#: intern to distinct constants with distinct row IDs.
_NUM_RIDS: dict = {}

#: set row ID → frozenset of its elements' row IDs, or None for a
#: non-set: what every binary set kernel reads its operands as.
_ELEMENTS: dict = {}

#: Every process-wide memo; each binary set kernel adds its own
#: ``(left rid, right rid) → result rid or -1`` memo.
_MEMOS: list = [_NUM_RIDS, _ELEMENTS]

_MEMO_CAP = 1 << 17


def _clear_memos() -> None:
    for memo in _MEMOS:
        memo.clear()


register_clear_listener(_clear_memos)


def number_rid(value) -> int:
    """The row ID of a computed raw number, interning on first sight.

    The memo makes the arithmetic lane's common case — a result seen
    before — one dict get instead of an intern-table probe.
    """
    key = (value.__class__, value)
    rid = _NUM_RIDS.get(key)
    if rid is None:
        rid = row_id(intern_const(value))
        if len(_NUM_RIDS) < _MEMO_CAP:
            _NUM_RIDS[key] = rid
    return rid


def _elements(rid: int):
    """The element row IDs of the set with row ID ``rid``, or None when
    ``rid`` is not a set."""
    try:
        return _ELEMENTS[rid]
    except KeyError:
        value = _ID_TABLE[rid]
        elements = None
        if isinstance(value, SetVal):
            elements = frozenset([row_id(e) for e in value.elements])
        if len(_ELEMENTS) < _MEMO_CAP:
            _ELEMENTS[rid] = elements
        return elements


def _binary_set_kernel(combine):
    """A memoized kernel over two set row IDs: ``combine`` maps the two
    element row-ID sets to the result's row ID (or -1); a non-set
    operand makes the result -1."""
    memo: dict = {}
    _MEMOS.append(memo)

    def kernel(left: int, right: int) -> int:
        key = (left, right)
        rid = memo.get(key)
        if rid is None:
            a = _elements(left)
            b = _elements(right)
            rid = -1 if a is None or b is None else combine(a, b)
            if len(memo) < _MEMO_CAP:
                memo[key] = rid
        return rid

    return kernel


#: ``partition(Whole, left, right)`` with both parts bound: the row ID
#: of the disjoint union, or -1 for overlapping parts.  The
#: divide-and-conquer workloads re-join the same part pairs once per
#: containing binding.
union_rid = _binary_set_kernel(lambda a, b: -1 if a & b else set_rid(a | b))
#: ``union(S1, S2, S)`` with both operands bound.
set_union_rid = _binary_set_kernel(lambda a, b: set_rid(a | b))
#: ``intersection(S1, S2, S)`` with both operands bound.
intersection_rid = _binary_set_kernel(lambda a, b: set_rid(a & b))
#: ``difference(S1, S2, S)`` with both operands bound.
difference_rid = _binary_set_kernel(lambda a, b: set_rid(a - b))


def card_rid(rid: int) -> int:
    """``card(S, N)`` with ``S`` bound: the row ID of ``|S|``, or -1
    when ``S`` is not a set.  One table read and the number memo: no
    memo of its own, so a long-lived server keeps nothing per set."""
    value = _ID_TABLE[rid]
    return number_rid(len(value.elements)) if isinstance(value, SetVal) else -1


#: built-in → (kernel, operand positions, output position): the shapes
#: the compiled lane runs as one kernel call, when every operand is
#: ground and the output is a fresh variable.  Any other shape of these
#: built-ins keeps the handler path.
SET_KERNELS = {
    "partition": (union_rid, (1, 2), 0),
    "union": (set_union_rid, (0, 1), 2),
    "intersection": (intersection_rid, (0, 1), 2),
    "difference": (difference_rid, (0, 1), 2),
    "card": (card_rid, (0,), 1),
}


# -- the delta currency -----------------------------------------------------


class RowBatch:
    """A batch of facts of one predicate, in ID space.

    ``rows`` holds the ID rows in order (a multiset: duplicates count);
    ``spellings`` maps the rows whose arguments are not their class
    representatives to the argument tuples as given, exactly as
    :class:`~repro.engine.relation.Relation` keeps them.  The compiled
    closures read ``rows`` directly; iterating the batch decodes
    argument tuples on demand.

    A binary batch may instead hold ``keys``, ``{first: set(second)}``
    of distinct canonically spelled pairs: the fresh sets of the
    fixpoint's key-map installs (:meth:`extend_keys`).  A key-map closure
    reads them as they are; ``rows`` builds the row tuples the first
    time something asks for them, and the batch then holds both forms,
    so every closure reading it gets its own.  Appending rows
    (:meth:`add`, :meth:`extend`) drops the keys, which no longer cover
    the batch.
    """

    __slots__ = ("pred", "arity", "_rows", "keys", "spellings")

    def __init__(
        self, pred: str, arity: int, rows=None, spellings=None
    ) -> None:
        self.pred = pred
        self.arity = arity
        # None while a key-form batch has not built its rows
        self._rows: list[tuple[int, ...]] | None = [] if rows is None else rows
        self.keys: dict[int, set[int]] | None = None
        self.spellings: dict[tuple[int, ...], tuple] = (
            {} if spellings is None else spellings
        )

    @property
    def rows(self) -> list[tuple[int, ...]]:
        rows = self._rows
        if rows is None:
            rows = self._rows = pairs_of(self.keys)
        return rows

    def _appendable(self) -> list[tuple[int, ...]]:
        """The rows, to append to: the keys are dropped."""
        rows = self.rows
        self.keys = None
        return rows

    def add(self, row: tuple[int, ...], args: tuple) -> None:
        """Append one fact whose ID row is ``row``."""
        self._appendable().append(row)
        spelled = spelling_of(args)
        if spelled is not None:
            self.spellings[row] = spelled

    def extend(self, rows, decode) -> None:
        """Append derived rows (see :meth:`Relation.add_rows
        <repro.engine.relation.Relation.add_rows>` for ``decode``)."""
        self._appendable().extend(rows)
        record_spellings(self.spellings, rows, decode)

    def extend_keys(self, fresh: dict[int, set[int]]) -> None:
        """Append fresh pairs given as ``{first: set(second)}``, none of
        them already in the batch, to each form the batch holds.  The
        sets are copied: a relation's install returns its stored sets,
        which later installs grow."""
        keys = self.keys
        if keys is None and not self._rows:
            self.keys = {first: set(new) for first, new in fresh.items()}
            self._rows = None
            return
        if keys is not None:
            for first, new in fresh.items():
                have = keys.get(first)
                if have is None:
                    keys[first] = set(new)
                else:
                    have |= new
        if self._rows is not None:
            self._rows.extend(pairs_of(fresh))

    def __len__(self) -> int:
        rows = self._rows
        if rows is None:
            return sum(map(len, self.keys.values()))
        return len(rows)

    def __iter__(self):
        spellings = self.spellings
        if not spellings:
            return map(decode_row, self.rows)
        return (
            decode_row(row) if (args := spellings.get(row)) is None else args
            for row in self.rows
        )

    def __repr__(self) -> str:
        return f"RowBatch({self.pred}/{self.arity}, {len(self)} rows)"
