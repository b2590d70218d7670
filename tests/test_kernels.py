"""Tests for the ID-space kernels (repro.engine.exec.kernels).

Unit tests cover the memoized scalar kernels the compiled closures
call (``number_rid`` and the set kernel family) and the ``RowBatch``
delta currency.  The compiled
lane as a whole is held to the reference executor by the property in
``test_exec.py``.
"""

from repro.engine.exec import kernels
from repro.engine.relation import encode_args
from repro.terms.pretty import format_term
from repro.terms.term import (
    Const,
    SetVal,
    clear_intern_table,
    intern_term,
    row_id,
)

from tests.test_interning import isolated_intern_table


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

    def test_set_kernels_match_the_set_algebra(self):
        def sid(*values):
            return row_id(SetVal(Const(v) for v in values))

        assert kernels.set_union_rid(sid(1, 2), sid(2, 3)) == sid(1, 2, 3)
        assert kernels.intersection_rid(sid(1, 2), sid(2, 3)) == sid(2)
        assert kernels.intersection_rid(sid(1), sid(2)) == sid()
        assert kernels.difference_rid(sid(1, 2), sid(2, 3)) == sid(1)
        assert kernels.card_rid(sid(1, 2, 3)) == rid(3)
        assert kernels.card_rid(sid()) == rid(0)
        # a non-set operand makes every one of them false
        for kernel in (
            kernels.set_union_rid, kernels.intersection_rid,
            kernels.difference_rid,
        ):
            assert kernel(sid(1), rid(1)) == -1
            assert kernel(rid(1), sid(1)) == -1
        assert kernels.card_rid(rid(1)) == -1

    def test_clear_empties_every_memo(self):
        with isolated_intern_table():
            left = row_id(SetVal([Const(1), Const(2)]))
            right = row_id(SetVal([Const(3)]))
            kernels.number_rid(41)
            kernels.union_rid(left, right)
            kernels.set_union_rid(left, right)
            kernels.intersection_rid(left, right)
            kernels.difference_rid(left, right)
            kernels.card_rid(left)
            assert all(kernels._MEMOS)
            clear_intern_table()
            assert not any(kernels._MEMOS)


class TestRowBatch:
    def test_iterates_as_argument_tuples(self):
        quoted = (Const("a", quoted=True), Const(2))
        batch = kernels.RowBatch("p", 2)
        batch.add(encode_args(t(1, 2)), t(1, 2))
        batch.add(encode_args(quoted), quoted)
        batch.extend([encode_args(t(3, 4))], None)
        assert len(batch) == 3
        assert list(batch) == [t(1, 2), t("a", 2), t(3, 4)]
        assert batch.rows == [
            encode_args(t(1, 2)), encode_args(quoted), encode_args(t(3, 4)),
        ]
        # only the quoted row is kept verbatim, and it iterates verbatim
        assert batch.spellings == {encode_args(quoted): quoted}
        assert [format_term(args[0]) for args in batch] == ["1", "'a'", "3"]
