"""ID-space kernels for the compiled closures, and the delta currency.

Every compiled closure (:mod:`repro.engine.exec.specialize`) inlines
its per-row arithmetic, comparisons and joins; what it calls out to
are two memoized scalar kernels over dense row IDs:

* :func:`number_rid` interns a computed number back to its row ID
  through a process-wide memo, so ``C = C1 + C2`` over the interner's
  numeric table (:data:`repro.terms.term._NUM_TABLE`) runs as int adds
  plus one dict get per distinct result;
* :func:`union_rid` is the ID-space form of LDL1's
  ``partition(S, S1, S2)`` with both parts bound (disjointness check +
  union), memoized per ``(rid, rid)`` pair.

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
    encode_args,
    spelling_of,
    record_spellings,
)
from repro.terms.term import (
    SetVal,
    _ID_TABLE,
    intern_const,
    intern_term,
    register_clear_listener,
    row_id,
)

# -- memoized ID-space scalar kernels ---------------------------------------

#: number → row ID.  Keyed by ``(type, value)`` because equal numbers of
#: different types (``2`` vs ``2.0``, ``True`` vs ``1``) hash alike but
#: intern to distinct constants with distinct row IDs.
_NUM_RIDS: dict = {}

#: (left rid, right rid) → union rid, or -1 when partition/3 is false
#: for that operand pair (overlapping parts, or a non-set operand).
_UNION_RIDS: dict = {}

_MEMO_CAP = 1 << 17


def _clear_memos() -> None:
    _NUM_RIDS.clear()
    _UNION_RIDS.clear()


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


def union_rid(left: int, right: int) -> int:
    """ID-space ``partition(Whole, left, right)`` with both parts bound.

    Returns the row ID of the disjoint union, or -1 when the built-in
    is false for these operands: overlapping parts, or an operand that
    is not a set (Section 2.2 makes set built-ins false, not erroneous,
    on bound non-set arguments).  Memoized per operand pair — the
    divide-and-conquer workloads re-join the same part pairs once per
    containing binding.
    """
    key = (left, right)
    rid = _UNION_RIDS.get(key)
    if rid is None:
        table = _ID_TABLE
        lval = table[left]
        rval = table[right]
        if (
            not isinstance(lval, SetVal)
            or not isinstance(rval, SetVal)
            or (lval.elements & rval.elements)
        ):
            rid = -1
        else:
            rid = row_id(
                intern_term(SetVal.from_ground(lval.elements | rval.elements))
            )
        if len(_UNION_RIDS) < _MEMO_CAP:
            _UNION_RIDS[key] = rid
    return rid


# -- the delta currency -----------------------------------------------------


class RowBatch:
    """A batch of facts of one predicate, in ID space.

    ``rows`` holds the ID rows in order (a multiset: duplicates count);
    ``spellings`` maps the rows whose arguments are not their class
    representatives to the argument tuples as given, exactly as
    :class:`~repro.engine.relation.Relation` keeps them.  The compiled
    closures read ``rows`` directly; iterating the batch decodes
    argument tuples on demand.
    """

    __slots__ = ("pred", "arity", "rows", "spellings")

    def __init__(self, pred: str, arity: int) -> None:
        self.pred = pred
        self.arity = arity
        self.rows: list[tuple[int, ...]] = []
        self.spellings: dict[tuple[int, ...], tuple] = {}

    def add(self, row: tuple[int, ...], args: tuple) -> None:
        """Append one fact whose ID row is ``row``."""
        self.rows.append(row)
        spelled = spelling_of(args)
        if spelled is not None:
            self.spellings[row] = spelled

    def add_fact(self, fact) -> None:
        """Append one ground atom, reusing the ID row it carries."""
        row = getattr(fact, "_row", None)
        if row is None:
            row = encode_args(fact.args)
        self.add(row, fact.args)

    def extend(self, rows, decode) -> None:
        """Append derived rows (see :meth:`Relation.add_rows
        <repro.engine.relation.Relation.add_rows>` for ``decode``)."""
        self.rows.extend(rows)
        record_spellings(self.spellings, rows, decode)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        spellings = self.spellings
        if not spellings:
            return map(decode_row, self.rows)
        return (
            decode_row(row) if (args := spellings.get(row)) is None else args
            for row in self.rows
        )

    def __repr__(self) -> str:
        return f"RowBatch({self.pred}/{self.arity}, {len(self.rows)} rows)"
