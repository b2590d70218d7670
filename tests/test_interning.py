"""Invariants of the ground-term intern table.

Interning is an identity fast path layered over structural equality:
every canonicalization entry point (ground evaluation, the storage
codec, and therefore the wire protocol, which reuses the codec) must
hand back the one canonical representative, and nothing about a term's
cached state may leak through serialization boundaries.  Interning is
faithful to spelling (quoted strings, and compounds holding one, stay
distinct entries) while row IDs follow equality.  The dense-ID table is
topological (subterms and a term's plain twin first), including after
:func:`clear_intern_table` and after the row-ID set constructor
:func:`set_rid` appends sets directly.
"""

import pickle
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parser import parse_term
from repro.storage.codec import decode_atom, decode_term, encode_atom, encode_term
from repro.terms import term as term_module
from repro.terms.term import (
    Const,
    Func,
    SetPattern,
    SetVal,
    clear_intern_table,
    evaluate_ground,
    id_table_size,
    intern_const,
    intern_term,
    row_id,
    set_rid,
    term_id,
    term_of_id,
)

from tests.strategies import quoted_ground_terms
from tests.test_transform_head import run_compiled


@contextmanager
def isolated_intern_table():
    """Let a block intern or clear freely, then restore the process-wide
    intern table as it was.

    Relations and memos built by other tests hold dense IDs of the
    current table, so it must come back with every entry's cached IDs,
    and the terms the block interned must go.
    """
    lists = term_module.ID_TABLES
    saved_lists = [list(table) for table in lists]
    saved_intern = dict(term_module._INTERN_TABLE)
    entries = [(t, t._interned, t._tid, t._rid) for t in term_module._ID_TABLE]
    try:
        yield
    finally:
        for t in term_module._ID_TABLE:
            t._interned, t._tid, t._rid = False, None, None
        # mutate in place: other modules hold these very objects
        for table, saved in zip(lists, saved_lists):
            table[:] = saved
        term_module._INTERN_TABLE.clear()
        term_module._INTERN_TABLE.update(saved_intern)
        for t, interned, tid, rid in entries:
            t._interned, t._tid, t._rid = interned, tid, rid
        for listener in term_module._CLEAR_LISTENERS:
            listener()


def assert_topological(start: int = 0) -> None:
    """Every ID-table entry from ``start`` has lower-ID subterms, and its
    class representative — itself, or a plain twin with a lower ID — is
    equal to it and is its own representative.  Checking registers
    nothing new (each subterm is already in the table)."""
    size = id_table_size()
    for tid in range(start, size):
        entry = term_of_id(tid)
        assert entry._tid == tid
        if isinstance(entry, Func):
            children = entry.args
        elif isinstance(entry, SetVal):
            children = tuple(entry)
        else:
            children = ()
        for child in children:
            assert term_id(child) < tid, (entry, child)
        rep = term_of_id(row_id(entry))
        assert rep._tid <= tid and rep._rid == rep._tid and rep == entry, entry
        if isinstance(entry, Const) and isinstance(entry.value, str) and entry.quoted:
            assert rep._tid < tid and not rep.quoted, entry
    assert id_table_size() == size


def test_evaluate_ground_returns_interned_representative():
    first = evaluate_ground(Func("f", (Const(1), Const("a"))))
    second = evaluate_ground(Func("f", (Const(1), Const("a"))))
    assert first is second
    assert first._interned


def test_evaluate_ground_is_identity_on_canonical_terms():
    term = evaluate_ground(SetPattern((Const(1), Const(2))))
    assert isinstance(term, SetVal)
    assert evaluate_ground(term) is term


def test_arithmetic_folds_to_interned_constant():
    folded = evaluate_ground(Func("+", (Const(2), Const(3))))
    assert folded is intern_const(5)
    assert folded is evaluate_ground(Func("+", (Const(4), Const(1))))


def test_only_universe_elements_enter_the_table():
    """A non-canonical ground term stored directly is canonicalized on
    its way into the table, never interned as itself; a term outside U
    is rejected exactly as ``canonical_atom`` rejects it."""
    from repro.engine.database import Database
    from repro.errors import NotInUniverseError
    from repro.program.rule import Atom
    from repro.terms.pretty import format_atom

    with isolated_intern_table():
        unfolded = Func("+", (Const(1), Const(1)))
        db = Database([Atom("p", (unfolded,))])
        assert [format_atom(a) for a in db.atoms("p")] == ["p(2)"]
        assert Atom("p", (Const(2),)) in db
        assert evaluate_ground(unfolded) == Const(2)
        assert not unfolded._interned
        assert_topological()
        spelled = Func("f", (Const("a", quoted=True), unfolded))
        db.add(Atom("q", (spelled,)))
        assert [format_atom(a) for a in db.atoms("q")] == ["q(f('a', 2))"]
        with pytest.raises(NotInUniverseError):
            Database([Atom("p", (Func("scons", (Const(1), Const(2))),))])


def test_set_of_uncanonical_elements_is_evaluated_first():
    """A SetVal holding ``1 + 1`` evaluates to ``{2}``; it must not
    become the intern table's entry for ``{2}``, which every later
    ``{2}`` would then decode to."""
    from repro.terms.pretty import format_term

    with isolated_intern_table():
        unfolded = SetVal([Func("+", (Const(1), Const(1)))])
        assert format_term(evaluate_ground(unfolded)) == "{2}"
        assert row_id(unfolded) == row_id(SetVal([Const(2)]))
        assert format_term(term_of_id(row_id(SetVal([Const(2)])))) == "{2}"
        assert_topological()


def test_codec_decode_reinterns():
    original = evaluate_ground(Func("g", (Const("x"), SetVal((Const(1),)))))
    decoded = decode_term(encode_term(original))
    assert decoded is original


def test_codec_decode_reinterns_atom_args():
    from repro.program.rule import Atom, canonical_atom

    atom = canonical_atom(Atom("p", (Const(1), SetVal((Const("a"),)))))
    decoded = decode_atom(encode_atom(atom))
    assert decoded == atom
    for arg, original in zip(decoded.args, atom.args):
        assert arg is original


def test_hash_survives_pickle_round_trip():
    original = evaluate_ground(Func("f", (Const(1), SetVal((Const(2),)))))
    hash(original)  # populate the cache
    clone = pickle.loads(pickle.dumps(original))
    assert clone == original
    assert hash(clone) == hash(original)
    # cached state must not travel: the clone is a fresh object that
    # re-interns to the canonical representative rather than claiming
    # to already be one.
    assert clone is not original
    assert not clone._interned
    assert intern_term(clone) is original


def test_hash_survives_codec_round_trip():
    original = evaluate_ground(SetPattern((Const(1), Const("a"))))
    hash(original)
    decoded = decode_term(encode_term(original))
    assert hash(decoded) == hash(original)


def test_interning_preserves_quoted_const_distinction():
    plain = intern_term(Const("sym"))
    quoted = intern_term(Const("sym", quoted=True))
    # Const.__eq__ ignores quoting (it only affects printing), but the
    # codec tags the variants differently, so interning must keep them
    # as separate representatives.
    assert plain == quoted
    assert plain is not quoted
    assert intern_term(Const("sym")) is plain
    assert intern_term(Const("sym", quoted=True)) is quoted


def test_intern_const_matches_intern_term():
    assert intern_const(7) is intern_term(Const(7))
    assert intern_const("a", quoted=True) is intern_term(
        Const("a", quoted=True)
    )


def test_term_id_is_stable_and_reversible():
    term = Func("f", (Const(1), SetVal((Const("a"),))))
    tid = term_id(term)
    assert term_id(term) == tid  # idempotent
    assert term_id(intern_term(term)) == tid  # same equality class
    assert term_of_id(tid) is intern_term(term)
    assert 0 <= tid < id_table_size()


def test_term_id_distinguishes_quoted_but_row_id_collapses():
    plain = intern_term(Const("qdense"))
    quoted = intern_term(Const("qdense", quoted=True))
    # faithful IDs keep the codec-visible distinction apart ...
    assert term_id(plain) != term_id(quoted)
    # ... while equality-class IDs agree exactly when the terms do
    assert row_id(plain) == row_id(quoted)
    assert term_of_id(row_id(quoted)) == quoted


def test_class_representative_is_unquoted_regardless_of_order():
    # intern the QUOTED spelling first: the class representative (what
    # ID rows decode to) must still be the unquoted variant, so output
    # spelling never depends on process-wide intern order.
    quoted = intern_term(Const("rep_order_probe", quoted=True))
    rep = term_of_id(row_id(quoted))
    assert rep == quoted and not rep.quoted
    assert rep is intern_term(Const("rep_order_probe"))


def test_compound_spelling_does_not_depend_on_intern_order():
    # f(1, 'a') == f(1, a), yet interning the quoted variant first must
    # not make a grouped f(1, a) print quoted: compounds intern by
    # spelling and share one row ID whose representative is plain.
    with isolated_intern_table():
        clear_intern_table()
        quoted = intern_term(Func("f", (Const(1), Const("a", quoted=True))))
        assert run_compiled(
            "e(1, a). e(2, b). out(<f(X, Y)>) <- e(X, Y).", "out"
        ) == {"out({f(1, a), f(2, b)})"}
        plain = intern_term(Func("f", (Const(1), Const("a"))))
        assert plain == quoted and plain is not quoted
        assert term_id(plain) < term_id(quoted)
        assert row_id(quoted) == row_id(plain) == term_id(plain)
        nested = intern_term(SetVal((Func("g", (quoted,)),)))
        assert term_of_id(row_id(nested)) == nested
        assert term_of_id(row_id(nested)) is intern_term(
            SetVal((Func("g", (plain,)),))
        )
        assert_topological()


def test_row_id_equality_coincides_with_term_equality():
    a = Func("g", (Const(1), Const(2)))
    b = Func("g", (Const(1), Const(2)))
    c = Func("g", (Const(1), Const(3)))
    assert row_id(a) == row_id(b)
    assert row_id(a) != row_id(c)


def test_id_table_grows_monotonically():
    before = id_table_size()
    term_id(Func("dense_id_growth_probe", (Const(1),)))
    after = id_table_size()
    assert after > before
    # re-interning the same term allocates nothing new
    term_id(Func("dense_id_growth_probe", (Const(1),)))
    assert id_table_size() == after


def test_id_assignment_covers_subterms():
    nested = intern_term(Func("outer", (SetVal((Const(11), Const(12))),)))
    # every subterm gets an ID reversible to its canonical
    # representative (the composite keeps its original children, so
    # identity is with the interned twin, not the embedded object)
    assert term_of_id(term_id(nested.args[0])) is intern_term(nested.args[0])
    for element in nested.args[0]:
        assert term_of_id(term_id(element)) is intern_term(element)
        assert term_of_id(term_id(element)) == element


def test_clear_drops_dense_ids_of_surviving_terms():
    # a term interned before a clear must not keep an ID that the
    # refilled table hands to a different term
    with isolated_intern_table():
        clear_intern_table()
        b = intern_term(Const("b"))
        g = intern_term(Func("g", (b,)))
        clear_intern_table()
        intern_term(Const("y"))
        intern_term(Const("z"))
        assert not b._interned and b._tid is None
        assert term_of_id(term_id(b)) is b
        assert term_of_id(row_id(b)) is b
        assert intern_term(g) is g
        assert term_of_id(term_id(g)) is g


def test_id_table_is_topological():
    assert_topological()


@given(st.lists(quoted_ground_terms, min_size=1, max_size=6))
@settings(max_examples=50)
def test_id_table_stays_topological_for_new_terms(terms):
    with isolated_intern_table():
        start = id_table_size()
        for term in terms:
            term_id(term)
        assert_topological(start)


@given(st.lists(quoted_ground_terms, min_size=1, max_size=6))
@settings(max_examples=25)
def test_id_table_stays_topological_after_clear(terms):
    with isolated_intern_table():
        survivors = [intern_term(term) for term in terms]
        clear_intern_table()
        for term in survivors:
            assert term_of_id(term_id(term)) == term
        assert_topological()


@given(st.lists(quoted_ground_terms, max_size=5))
@settings(max_examples=100)
def test_set_rid_equals_the_interner(elements):
    # nested sets, functors, quoted strings, 1 vs 1.0 and the empty set:
    # built from its elements' row IDs, a set gets exactly the row ID
    # the interner gives the set term — even when set_rid is the first
    # to see it (a miss), which must leave the table topological
    with isolated_intern_table():
        start = id_table_size()
        rid = set_rid([row_id(e) for e in elements])
        assert rid == row_id(SetVal(elements))
        assert term_of_id(rid) == SetVal(elements)
        assert set_rid(row_id(e) for e in reversed(elements)) == rid
        if not elements:
            assert rid == row_id(parse_term("{}"))
        assert_topological(start)
