"""Tests for indexed relations and the fact database (repro.engine)."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.relation import (
    Relation,
    decode_row,
    encode_args,
    spelling_of,
)
from repro.parser import parse_atom
from repro.storage.snapshot import load_snapshot, write_snapshot
from repro.terms.pretty import format_atom, format_term
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
        rel.add_all([t(1, 2), t(3, 2), t(2, 4)])
        rel.lookup((1,), t(2))  # build the position-1 index
        clone = rel.copy()
        assert (1,) in clone._id_indexes
        assert set(clone.lookup((1,), t(2))) == {t(1, 2), t(3, 2)}

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
        rel.add_all([t(1, 2), t(3, 2), t(2, 4)])
        rel.lookup((1,), t(2))  # builds the position-1 ID index
        clone = rel.copy()
        assert (1,) in clone._id_indexes
        key = self._encoded(2)[0]  # bare int key for 1-position sigs
        assert clone.id_index((1,))[key] == {
            self._encoded(1, 2), self._encoded(3, 2)
        }

    def test_binary_position_0_index_only_on_request(self):
        rel = Relation("p", 2)
        rel.add_all([t(1, 2), t(1, 3), t(2, 4)])
        assert set(rel.lookup((0,), t(1))) == {t(1, 2), t(1, 3)}
        assert rel._id_indexes == {}  # the lookup read the key map
        index = rel.id_index((0,))
        assert rel.id_index((0,)) is index  # built once, then kept
        rel.add(t(1, 5))
        assert index[self._encoded(1)[0]] == {
            self._encoded(1, 2), self._encoded(1, 3), self._encoded(1, 5)
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
        assert clone._keys is rel._keys
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


class TestFirstInstall:
    """``add_rows`` into a relation with no rows and no built ID index
    adopts its deduplicated batch as the row dict."""

    def test_returns_rows_deduplicated_in_first_seen_order(self):
        rel = Relation("p", 2)
        quoted = parse_atom("p('u1', 1)").args
        rows = [
            encode_args(t(3, 4)),
            encode_args(quoted),
            encode_args(t(3, 4)),  # a duplicate in the batch
            encode_args(t(1, 2)),
        ]
        fresh = rel.add_rows(
            rows, lambda row: quoted if row == rows[1] else decode_row(row)
        )
        assert fresh == [rows[0], rows[1], rows[3]]
        assert list(rel.id_rows()) == fresh
        assert [format_term(a) for a in rel.args_of(rows[1])] == ["'u1'", "1"]
        assert dict(rel.spellings()) == {rows[1]: quoted}
        assert rel.add_rows(rows, None) == []  # the second install filters
        assert rel.add_rows([], None) == [] and len(rel) == 3

    def test_clone_of_an_empty_relation_stays_apart(self):
        for target in ("original", "clone"):
            rel = Relation("p", 1)
            clone = rel.copy()
            sides = {"original": rel, "clone": clone}
            written = sides[target]
            other = clone if written is rel else rel
            assert written.add_rows([encode_args(t(1)), encode_args(t(2))], None)
            assert len(written) == 2 and len(other) == 0
            assert other.id_index((0,)) == {}
            assert set(written.lookup((0,), t(1))) == {t(1)}
            assert other.add_rows([encode_args(t(3))], None)
            assert set(written) == {t(1), t(2)} and set(other) == {t(3)}

    def test_built_index_takes_the_general_path(self):
        rel = Relation("p", 2)
        index = rel.id_index((1,))
        assert index == {}
        rows = [encode_args(t(2, 1)), encode_args(t(3, 1)), encode_args(t(2, 1))]
        assert rel.add_rows(rows, None) == rows[:2]
        assert rel.id_index((1,)) is index
        assert index == {encode_args(t(1))[0]: set(rows[:2])}

    def test_later_reads_and_writes(self, tmp_path):
        rel = Relation("p", 2)
        rows = [encode_args(t(1, 2)), encode_args(t(1, 3)), encode_args(t(4, 5))]
        rel.add_rows(rows, None)
        assert set(rel.lookup((0,), t(1))) == {t(1, 2), t(1, 3)}
        assert rel.id_index((1,))[encode_args(t(5))[0]] == {rows[2]}
        assert rel.discard_rows([rows[0], rows[0]]) == [rows[0]]
        assert set(rel.lookup((0,), t(1))) == {t(1, 3)}
        assert rel.add_rows(rows, None) == [rows[0]]
        db = Database()
        db.add_rows("p", 2, rows + rows, None)
        path = tmp_path / "snapshot.jsonl"
        write_snapshot(path, "fp", db, db)
        loaded = load_snapshot(path)
        assert sorted(map(format_atom, loaded.model.atoms())) == sorted(
            map(format_atom, db.atoms())
        )


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


def _unordered(state):
    """A :func:`_state` with its rows as a set: a key map's row order
    follows its history of operations (see ``KeyMapRelation``)."""
    rows, indexes, spellings = state
    return set(rows), indexes, spellings


@given(_arg_pairs, _arg_pairs, st.booleans())
@example(
    stored=[
        (Func("f", (Const("b"),)), Func("f", (Const("b"),))),
        (Const("a"), SetVal([])),
        (Func("f", (Const("b"),)), SetVal([])),
    ],
    doomed=[(Func("f", (Const("b"),)), Func("f", (Const("b"),)))],
    through_db=False,
)
@settings(max_examples=100, deadline=None)
def test_discard_rows_matches_per_row_discard(stored, doomed, through_db):
    """``discard_rows`` (on a relation or through its database) leaves
    exactly what one ``discard`` per row leaves, rows in the same
    order, and what building the survivors afresh gives, as a set of
    rows — every built index and spellings included — returns the rows
    those calls removed, and never touches a copy-on-write clone taken
    before it."""

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
    assert _unordered(_state(bulk)) == _unordered(_state(rebuilt))
    assert _state(clone) == before
    assert Database().discard_rows("p", rows) == []


# -- a binary relation against a plain reference ----------------------------

#: ``u1`` beside ``'u1'`` and ``1`` beside ``1.0``: equal classes
#: spelled two ways, and distinct classes that print alike.
_pair_terms = st.sampled_from(
    [
        Const("u1"),
        Const("u1", quoted=True),
        Const("u2"),
        Const(1),
        Const(1.0),
        Func("f", (Const("u1", quoted=True),)),
    ]
)
_pairs = st.lists(st.tuples(_pair_terms, _pair_terms), max_size=6)
_binary_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _pairs),
        st.tuples(st.just("add_rows"), _pairs, st.booleans()),
        st.tuples(st.just("add_keys"), _pairs, st.sampled_from([0, 1])),
        st.tuples(st.just("discard_rows"), _pairs),
        st.tuples(st.just("copy"), _pairs, st.sampled_from(["clone", "original"])),
        st.tuples(st.just("adopt")),
    ),
    max_size=12,
)


def _check_binary(rel, ref):
    """``rel`` holds exactly the reference ``{row: args as first
    added}``: size, membership, decoded and spelled contents, recorded
    spellings and position-0/1 lookups."""
    assert len(rel) == len(ref)
    rows = list(rel.id_rows())
    assert len(rows) == len(ref) and set(rows) == set(ref)
    for row, args in ref.items():
        assert row in rel.id_rows() and args in rel
    assert Counter(map(_spelled, rel)) == Counter(map(_spelled, ref.values()))
    spellings = {
        row: _spelled(args)
        for row, args in ref.items()
        if spelling_of(args) is not None
    }
    assert {row: _spelled(args) for row, args in rel.spellings()} == spellings
    for pos in (0, 1):
        for probe in ref.values():
            expected = Counter(
                _spelled(args)
                for row, args in ref.items()
                if row[pos] == encode_args(probe)[pos]
            )
            got = Counter(map(_spelled, rel.lookup((pos,), (probe[pos],))))
            assert got == expected


def _write(rel, ref, pairs):
    """One bulk write of ``pairs`` through ``add_rows``, checked."""
    rows = [encode_args(args) for args in pairs]
    fresh = rel.add_rows(rows, None)
    assert fresh == [row for row in dict.fromkeys(rows) if row not in ref]
    for row in fresh:
        ref[row] = decode_row(row)


@given(_binary_operations)
@settings(max_examples=150, deadline=None)
def test_binary_relation_matches_a_plain_reference(operations):
    """A binary relation — a key map — behaves as a set of ID rows plus
    a spellings dict under any interleaving of its writes, copies and
    adoptions, and every write returns what it changed."""
    rel, ref = Relation("p", 2), {}
    sides = []
    for op, *args in operations:
        if op == "add":
            for pair in args[0]:
                row = encode_args(pair)
                assert rel.add(pair) == (row not in ref)
                ref.setdefault(row, pair)
        elif op == "add_rows":
            pairs, spelled = args
            rows = [encode_args(pair) for pair in pairs]
            first = {}
            for row, pair in zip(rows, pairs):
                first.setdefault(row, pair)
            fresh = rel.add_rows(rows, first.__getitem__ if spelled else None)
            assert fresh == [row for row in dict.fromkeys(rows) if row not in ref]
            for row in fresh:
                ref[row] = first[row] if spelled else decode_row(row)
        elif op == "add_keys":
            pairs, carried = args
            keys = {}
            for pair in pairs:
                row = encode_args(pair)
                keys.setdefault(row[carried], set()).add(row[1 - carried])
            new = {encode_args(pair) for pair in pairs} - ref.keys()
            fresh = rel.add_keys(keys, carried)
            assert {(a, b) for a, values in fresh.items() for b in values} == new
            assert all(fresh.values())
            for row in new:
                ref[row] = decode_row(row)
        elif op == "discard_rows":
            rows = [encode_args(pair) for pair in args[0]]
            gone = rel.discard_rows(rows)
            assert gone == [row for row in dict.fromkeys(rows) if row in ref]
            for row in gone:
                del ref[row]
        elif op == "copy":
            # the first write to either side must not reach the other
            pairs, side = args
            clone, clone_ref = rel.copy(), dict(ref)
            if side == "clone":
                _write(clone, clone_ref, pairs)
            else:
                _write(rel, ref, pairs)
            # set difference between two key maps, key by key
            assert rel.id_rows() - clone.id_rows() == ref.keys() - clone_ref.keys()
            assert clone.id_rows() - rel.id_rows() == clone_ref.keys() - ref.keys()
            sides.append((clone, clone_ref))
        else:
            spellings = {
                row: spelling_of(args)
                for row, args in ref.items()
                if spelling_of(args) is not None
            }
            rel = Relation.adopt("p", 2, dict.fromkeys(ref), spellings)
        _check_binary(rel, ref)
    for clone, clone_ref in sides:
        _check_binary(clone, clone_ref)
