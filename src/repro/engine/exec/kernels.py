"""ID-space kernels for the compiled rows mode, and its delta currency.

The rows-mode closures (:mod:`repro.engine.exec.specialize`) inline
their per-row arithmetic, comparisons and joins; what they call out to
are two memoized scalar kernels over dense row IDs:

* :func:`number_rid` interns a computed number back to its row ID
  through a process-wide memo, so ``C = C1 + C2`` over the interner's
  numeric table (:data:`repro.terms.term._NUM_TABLE`) runs as int adds
  plus one dict get per distinct result;
* :func:`union_rid` is the ID-space form of LDL1's
  ``partition(S, S1, S2)`` with both parts bound (disjointness check +
  union), memoized per ``(rid, rid)`` pair.

:class:`RowBatch` is the delta currency of the vectorized fixpoint: ID
rows plus their verbatim argument tuples, so a semi-naive round feeds
the next round's override sources without re-encoding (the reference
executor iterates it as plain argument tuples).

Process-wide memos hold dense IDs, so :func:`clear_intern_table`
invalidates them through the term module's clear-listener registry.
"""

from __future__ import annotations

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


# -- the vectorized delta currency ------------------------------------------


class RowBatch:
    """A derived-fact batch carried in both lanes at once.

    ``rows`` holds the ID rows, ``args`` the parallel verbatim argument
    tuples.  The vectorized fixpoint uses it as the semi-naive delta:
    the compiled closures read ``rows`` directly (no re-encoding on the
    next round's override source), while the reference executor
    iterates it as plain argument tuples.
    """

    __slots__ = ("pred", "arity", "rows", "args")

    def __init__(self, pred: str, arity: int) -> None:
        self.pred = pred
        self.arity = arity
        self.rows: list[tuple[int, ...]] = []
        self.args: list[tuple] = []

    def add(self, row: tuple[int, ...], args: tuple) -> None:
        self.rows.append(row)
        self.args.append(args)

    def extend_pairs(self, pairs) -> None:
        for row, args in pairs:
            self.rows.append(row)
            self.args.append(args)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.args)

    def __repr__(self) -> str:
        return f"RowBatch({self.pred}/{self.arity}, {len(self.rows)} rows)"
