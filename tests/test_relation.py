"""Tests for indexed relations and the fact database (repro.engine)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.relation import (
    Relation,
    decode_row,
    encode_args,
    spelling_of,
)
from repro.parser import parse_atom
from repro.terms.pretty import format_term
from repro.terms.term import Const, Func, SetVal


def t(*values):
    return tuple(Const(v) for v in values)


class TestRelation:
    def test_add_is_idempotent(self):
        rel = Relation("p", 2)
        assert rel.add(t(1, 2))
        assert not rel.add(t(1, 2))
        assert len(rel) == 1

    def test_arity_enforced(self):
        rel = Relation("p", 2)
        with pytest.raises(ValueError):
            rel.add(t(1))

    def test_lookup_builds_index(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(1, 3), t(2, 4)])
        hits = set(rel.lookup((0,), t(1)))
        assert hits == {t(1, 2), t(1, 3)}

    def test_index_maintained_after_insert(self):
        rel = Relation("p", 2)
        rel.add(t(1, 2))
        assert len(list(rel.lookup((0,), t(1)))) == 1
        rel.add(t(1, 9))  # inserted after the index exists
        assert len(list(rel.lookup((0,), t(1)))) == 2

    def test_lookup_multiple_positions(self):
        rel = Relation("p", 3)
        rel.add_all([t(1, 2, 3), t(1, 2, 4), t(1, 5, 3)])
        assert len(list(rel.lookup((0, 1), t(1, 2)))) == 2

    def test_empty_signature_scans_all(self):
        rel = Relation("p", 1)
        rel.add_all([t(1), t(2)])
        assert len(list(rel.lookup((), ()))) == 2

    def test_miss_returns_empty(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        assert list(rel.lookup((0,), t(9))) == []

    def test_position_past_arity_matches_nothing(self):
        rel = Relation("p", 2)
        rel.add(t(1, 2))
        assert list(rel.lookup((2,), t(1))) == []
        assert list(rel.lookup((0, 2), t(1, 1))) == []

    def test_query_binding_past_arity_has_no_answers(self):
        from repro import LDL

        db = LDL("e(1, 2). p(X) <- e(X, _).")
        assert db.query("? e(X, Y, 1).") == []
        assert db.query("? p(X, 1).") == []

    def test_copy_is_independent(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        clone = rel.copy()
        clone.add(t(2))
        assert len(rel) == 1 and len(clone) == 2

    def test_copy_preserves_built_indexes(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(1, 3), t(2, 4)])
        rel.lookup((0,), t(1))  # build the position-0 index
        clone = rel.copy()
        assert (0,) in clone._id_indexes
        assert set(clone.lookup((0,), t(1))) == {t(1, 2), t(1, 3)}

    def test_copied_indexes_are_independent(self):
        rel = Relation("p", 2)
        rel.add(t(1, 2))
        rel.lookup((0,), t(1))
        clone = rel.copy()
        clone.add(t(1, 9))
        rel.add(t(1, 7))
        assert set(clone.lookup((0,), t(1))) == {t(1, 2), t(1, 9)}
        assert set(rel.lookup((0,), t(1))) == {t(1, 2), t(1, 7)}


class TestColumnarStorage:
    """ID-row layer invariants: ID indexes survive copy and stay
    consistent with the term-level reads across discard."""

    def _encoded(self, *values):
        return encode_args(t(*values))

    def test_id_rows_match_term_view(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(1, 3), t(2, 4)])
        assert {decode_row(row) for row in rel.id_rows()} == set(rel)
        assert len(rel.id_rows()) == 3

    def test_copy_preserves_id_indexes(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(1, 3), t(2, 4)])
        rel.lookup((0,), t(1))  # builds the position-0 ID index
        clone = rel.copy()
        assert (0,) in clone._id_indexes
        key = self._encoded(1)[0]  # bare int key for 1-position sigs
        assert clone.id_index((0,))[key] == {
            self._encoded(1, 2), self._encoded(1, 3)
        }

    def test_copied_id_indexes_are_independent(self):
        rel = Relation("p", 2)
        rel.add(t(1, 2))
        rel.id_index((0,))
        clone = rel.copy()
        clone.add(t(1, 9))
        rel.add(t(1, 7))
        key = self._encoded(1)[0]
        assert clone.id_index((0,))[key] == {
            self._encoded(1, 2), self._encoded(1, 9)
        }
        assert rel.id_index((0,))[key] == {
            self._encoded(1, 2), self._encoded(1, 7)
        }

    def test_discard_maintains_both_index_families(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(1, 3), t(2, 4)])
        rel.id_index((0,))
        rel.lookup((0,), t(1))
        assert rel.discard(t(1, 2))
        key = self._encoded(1)[0]
        assert rel.id_index((0,))[key] == {self._encoded(1, 3)}
        assert set(rel.lookup((0,), t(1))) == {t(1, 3)}
        assert {decode_row(row) for row in rel.id_rows()} == set(rel)

    def test_discard_after_copy_leaves_original_intact(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(1, 3)])
        rel.id_index((0,))
        rel.lookup((0,), t(1))
        clone = rel.copy()
        assert clone.discard(t(1, 2))
        assert not clone.discard(t(9, 9))
        assert set(clone) == {t(1, 3)}
        assert set(rel) == {t(1, 2), t(1, 3)}
        key = self._encoded(1)[0]
        assert rel.id_index((0,))[key] == {
            self._encoded(1, 2), self._encoded(1, 3)
        }
        assert set(rel.lookup((0,), t(1))) == {t(1, 2), t(1, 3)}

    def test_empty_bucket_dropped_on_discard(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(2, 4)])
        rel.id_index((0,))
        rel.discard(t(2, 4))
        assert self._encoded(2)[0] not in rel.id_index((0,))


class TestDatabase:
    def test_add_and_contains(self):
        db = Database()
        atom = parse_atom("p(1, 2)")
        assert db.add(atom)
        assert atom in db
        assert not db.add(atom)

    def test_rejects_non_ground(self):
        db = Database()
        with pytest.raises(ValueError):
            db.add(parse_atom("p(X)"))

    def test_count(self):
        db = Database([parse_atom("p(1)"), parse_atom("p(2)"), parse_atom("q(1)")])
        assert db.count("p") == 2
        assert db.count("missing") == 0
        assert db.count() == 3

    def test_atoms_roundtrip(self):
        facts = {parse_atom("p(1)"), parse_atom("q(2, 3)")}
        db = Database(facts)
        assert set(db.atoms()) == facts

    def test_sorted_atoms_deterministic(self):
        db = Database([parse_atom("p(2)"), parse_atom("p(1)")])
        assert [a.args[0].value for a in db.sorted_atoms("p")] == [1, 2]

    def test_copy_independent(self):
        db = Database([parse_atom("p(1)")])
        clone = db.copy()
        clone.add(parse_atom("p(2)"))
        assert db.count() == 1 and clone.count() == 2

    def test_equality_by_content(self):
        a = Database([parse_atom("p(1)")])
        b = Database([parse_atom("p(1)")])
        assert a == b
        b.add(parse_atom("p(2)"))
        assert a != b

    def test_tuples_of_unknown_pred_empty(self):
        assert list(Database().tuples("nope")) == []

    def test_same_pred_same_arity_enforced(self):
        db = Database([parse_atom("p(1)")])
        with pytest.raises(ValueError):
            db.add(parse_atom("p(1, 2)"))


class TestCopyOnWrite:
    def test_copy_shares_lanes_until_write(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(3, 4)])
        clone = rel.copy()
        # O(1) copy: both sides reference the same containers
        assert clone._rows is rel._rows
        assert clone._spellings is rel._spellings

    def test_write_to_clone_unshares(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        clone = rel.copy()
        clone.add(t(2))
        assert clone._rows is not rel._rows
        assert len(rel) == 1 and len(clone) == 2
        assert t(2) in clone and t(2) not in rel

    def test_write_to_original_unshares(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        clone = rel.copy()
        rel.add(t(2))
        assert len(rel) == 2 and len(clone) == 1

    def test_discard_unshares(self):
        rel = Relation("p", 1)
        rel.add_all([t(1), t(2)])
        clone = rel.copy()
        assert clone.discard(t(1))
        assert t(1) in rel and t(1) not in clone

    def test_noop_mutations_keep_sharing(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        clone = rel.copy()
        assert not clone.add(t(1))        # duplicate: no write
        assert not clone.discard(t(9))    # absent: no write
        assert clone._rows is rel._rows

    def test_bulk_add_rows_unshares(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        clone = rel.copy()
        assert clone.add_rows([encode_args(t(2))], None) == [encode_args(t(2))]
        assert len(rel) == 1 and len(clone) == 2

    def test_add_rows_dedupes_and_skips_stored(self):
        rel = Relation("p", 1)
        rel.add(t(1))
        rows = [
            encode_args(t(1)),  # already stored
            encode_args(t(2)),
            encode_args(t(2)),  # duplicate in the batch
            encode_args(t(3)),
        ]
        fresh = rel.add_rows(rows, decode_row)
        assert fresh == [encode_args(t(2)), encode_args(t(3))]
        assert len(rel) == 3 and set(rel) == {t(1), t(2), t(3)}

    def test_add_rows_maintains_existing_indexes(self):
        rel = Relation("p", 2)
        rel.add(t(1, 2))
        rel.id_index((0,))
        rel.add_rows([encode_args(t(1, 3)), encode_args(t(4, 5))], decode_row)
        assert set(rel.lookup((0,), t(1))) == {t(1, 2), t(1, 3)}
        assert len(rel.id_index((0,))[encode_args(t(1, 2))[0]]) == 2


# -- spellings: nothing is stored verbatim but what decoding would lose -----

_letters = st.sampled_from(["a", "b"])
_leaves = st.one_of(
    _letters.map(Const),
    _letters.map(lambda name: Const(name, quoted=True)),
    st.sampled_from([1, 2]).map(Const),
)
# a small domain, so rows collide across spellings
spelled_terms = st.recursive(
    _leaves,
    lambda kids: st.builds(lambda arg: Func("f", (arg,)), kids)
    | st.lists(kids, max_size=2).map(SetVal),
    max_leaves=3,
)
_arg_pairs = st.lists(
    st.tuples(spelled_terms, spelled_terms), min_size=1, max_size=3
)
_operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "add_row", "add_rows", "add_rows_slot", "discard", "copy"]
        ),
        _arg_pairs,
    ),
    max_size=10,
)


def _spelled(args):
    return tuple(format_term(term) for term in args)


def _check_against_model(rel, model):
    """Iteration and every lookup read back exactly what the verbatim
    model holds, and only non-representative rows carry a spelling."""
    assert len(rel) == len(model)
    assert Counter(map(_spelled, rel)) == Counter(map(_spelled, model.values()))
    for positions in ((0,), (1,), (0, 1)):
        for probe in model.values():
            key = tuple(probe[i] for i in positions)
            expected = Counter(
                _spelled(args)
                for args in model.values()
                if all(args[i] == part for i, part in zip(positions, key))
            )
            assert Counter(map(_spelled, rel.lookup(positions, key))) == expected
    assert rel._spellings.keys() <= rel.id_rows()
    assert all(spelling_of(args) is not None for args in rel._spellings.values())


@given(_operations)
@settings(max_examples=100, deadline=None)
def test_reads_match_a_verbatim_model(operations):
    """A relation keeps ID rows and a spelling for only the rows that
    decode differently, yet reads back every tuple spelled as added —
    the first spelling of a row wins — across bulk inserts with and
    without a slot decoder, discards, and copy-on-write copies."""
    rel, model = Relation("p", 2), {}
    copies = []

    def add_row(rel, model, args):
        row = encode_args(args)
        assert rel.add_row(row, args) == (row not in model)
        model.setdefault(row, args)

    for op, pairs in operations:
        if op == "add":
            for args in pairs:
                assert rel.add(args) == (encode_args(args) not in model)
                model.setdefault(encode_args(args), args)
        elif op == "add_row":
            for args in pairs:
                add_row(rel, model, args)
        elif op == "add_rows":
            rows = [encode_args(args) for args in pairs]
            fresh = rel.add_rows(rows, decode_row)
            assert fresh == [r for r in dict.fromkeys(rows) if r not in model]
            for row in fresh:
                model[row] = decode_row(row)
        elif op == "add_rows_slot":
            # a rule head ``p(c, X)``: the constant keeps its spelling
            const = pairs[0][0]

            def decode(row, const=const):
                return (const, decode_row(row)[1])

            rows = [encode_args((const, args[1])) for args in pairs]
            for row in rel.add_rows(rows, decode):
                model[row] = decode(row)
        elif op == "discard":
            for args in pairs:
                row = encode_args(args)
                assert rel.discard(args) == (row in model)
                model.pop(row, None)
        else:
            # the first write to either side must not reach the other
            clone, clone_model = rel.copy(), dict(model)
            args = pairs[0]
            if encode_args(args) in clone_model:
                clone.discard(args)
                del clone_model[encode_args(args)]
            else:
                add_row(clone, clone_model, args)
            copies.append((clone, clone_model))
        _check_against_model(rel, model)
    for clone, clone_model in copies:
        _check_against_model(clone, clone_model)


def _state(rel):
    """Everything a relation stores, as plain values."""
    return (
        list(rel.id_rows()),
        {
            positions: {key: set(bucket) for key, bucket in index.items()}
            for positions, index in rel._id_indexes.items()
        },
        dict(rel.spellings()),
    )


@given(_arg_pairs, _arg_pairs, st.booleans())
@settings(max_examples=100, deadline=None)
def test_discard_rows_matches_per_row_discard(stored, doomed, through_db):
    """``discard_rows`` (on a relation or through its database) leaves
    exactly what one ``discard`` per row leaves, and what building the
    survivors afresh gives — rows, every built index and spellings —
    returns the rows those calls removed, and never touches a
    copy-on-write clone taken before it."""

    def build(kept=lambda args: True):
        db = Database()
        for args in stored:
            if kept(args):
                db.add_tuple("p", args)
        rel = db.relation("p", 2)
        rel.id_index((0,))
        rel.id_index((0, 1))
        return db, rel

    (db, bulk), (_, single) = build(), build()
    clone = bulk.copy()
    before = _state(clone)
    rows = [encode_args(args) for args in doomed]
    if through_db:
        gone = db.discard_rows("p", rows)
    else:
        gone = bulk.discard_rows(rows)
    assert gone == [row for row, args in zip(rows, doomed) if single.discard(args)]
    assert _state(bulk) == _state(single)
    doomed_rows = set(rows)
    _, rebuilt = build(lambda args: encode_args(args) not in doomed_rows)
    assert _state(bulk) == _state(rebuilt)
    assert _state(clone) == before
    assert Database().discard_rows("p", rows) == []
