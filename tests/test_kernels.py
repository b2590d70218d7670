"""Tests for the ID-space kernels (repro.engine.exec.kernels).

Unit tests cover the memoized scalar kernels the rows-mode closures
call (``number_rid``, ``union_rid``), the ``RowBatch`` delta currency,
and relation lanes read after a swap-remove discard.  The compiled
lane as a whole is held to the reference executor by the property in
``test_exec.py``.
"""

import pytest

from repro.engine.exec import kernels
from repro.engine.relation import Relation, encode_args
from repro.terms.term import Const, SetVal, intern_term, row_id


def t(*values):
    return tuple(Const(v) for v in values)


def rid(value):
    return row_id(intern_term(Const(value)))


class TestScalarKernels:
    def test_number_rid_matches_interner(self):
        assert kernels.number_rid(7) == rid(7)

    def test_number_rid_distinguishes_int_from_float(self):
        # 2 == 2.0 and they hash alike, but they intern to distinct
        # constants — the memo key must keep them apart.
        assert kernels.number_rid(2) != kernels.number_rid(2.0)
        assert kernels.number_rid(2) == rid(2)
        assert kernels.number_rid(2.0) == rid(2.0)

    def test_union_rid_disjoint_parts(self):
        left = row_id(intern_term(SetVal.from_ground({Const(1), Const(2)})))
        right = row_id(intern_term(SetVal.from_ground({Const(3)})))
        whole = row_id(
            intern_term(SetVal.from_ground({Const(1), Const(2), Const(3)}))
        )
        assert kernels.union_rid(left, right) == whole
        # memoized second call
        assert kernels.union_rid(left, right) == whole

    def test_union_rid_overlap_is_false(self):
        left = row_id(intern_term(SetVal.from_ground({Const(1), Const(2)})))
        right = row_id(intern_term(SetVal.from_ground({Const(2)})))
        assert kernels.union_rid(left, right) == -1

    def test_union_rid_non_set_operand_is_false(self):
        left = row_id(intern_term(SetVal.from_ground({Const(1)})))
        assert kernels.union_rid(left, rid(5)) == -1
        assert kernels.union_rid(rid(5), left) == -1


class TestLaneAfterDiscard:
    def test_lane_reflects_swap_remove(self):
        # discard swap-removes mid-lane: the last row's IDs move into
        # the hole, and a lane read afterwards must see the moved row.
        rel = Relation("p", 2)
        rel.add_all([t(1, 10), t(2, 20), t(3, 30)])
        assert rel.discard(t(2, 20))
        lane0 = list(rel.lane(0))
        lane1 = list(rel.lane(1))
        assert len(lane0) == len(lane1) == 2
        got = {(a, b) for a, b in zip(lane0, lane1)}
        assert got == {encode_args(t(1, 10)), encode_args(t(3, 30))}

    def test_lane_is_zero_copy_view(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        view = rel.lane(0)
        # the relation's buffer is pinned while the view is alive
        with pytest.raises(BufferError):
            rel.add(t(2))
        view.release()
        assert rel.add(t(2))


class TestRowBatch:
    def test_iterates_as_argument_tuples(self):
        batch = kernels.RowBatch("p", 2)
        batch.add(encode_args(t(1, 2)), t(1, 2))
        batch.extend_pairs([(encode_args(t(3, 4)), t(3, 4))])
        assert len(batch) == 2
        assert list(batch) == [t(1, 2), t(3, 4)]
        assert batch.rows == [encode_args(t(1, 2)), encode_args(t(3, 4))]
