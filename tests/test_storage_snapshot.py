"""Snapshot version 2: round trips in ID space, corruption, and v1 reads.

A v2 snapshot is a term table plus ID rows, so a reopen in a process
whose dense IDs differ must still rebuild the same model, the same base
facts and the same printed spellings (``'a'`` vs ``a``, ``2`` vs
``2.0``, nested sets).  Every malformed body must raise
:class:`StorageError` rather than load something else, and a version-1
store must still open from its snapshot and be rewritten as version 2
at its next checkpoint.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import evaluate
from repro.engine.compiled import compile_program
from repro.engine.database import Database
from repro.errors import StorageError
from repro.parser import parse_atom, parse_rules
from repro.program.rule import Atom
from repro.storage import codec
from repro.storage.snapshot import load_snapshot, write_snapshot
from repro.storage.store import DurableStore
from repro.terms.pretty import format_atom
from repro.terms.term import Const, Func, clear_intern_table, intern_term

from tests.strategies import quoted_ground_terms
from tests.test_interning import isolated_intern_table

#: Base predicates of arity 0-3, a grouping rule (nested sets from set
#: arguments), and a program fact of the derived predicate ``d``.
PROGRAM = parse_rules(
    """
    d(X) <- p1(X).
    d(z).
    both <- p0, d(z).
    pair(X, Y) <- p2(X, Y).
    grp(X, <Y>) <- p2(X, Y).
    tri(X, Y, Z) <- p3(X, Y, Z).
    """
)

SPELLED = [
    "p0",
    "p1(2)",
    "p1(2.0)",
    "p1('a')",
    "p1(b)",
    "p2(f(1, 'a'), {{'a'}, {1}})",
    "p2(f(1, 'a'), 'b')",
    "p2(x, 'a')",
    "p3('Q', {'a', b}, g(2.0, {}))",
]


def printed(atoms) -> list[str]:
    return sorted(map(format_atom, atoms))


def checkpointed(tmp_path, edb):
    """A store over ``edb``, checkpointed and closed; returns what a
    reopen must reproduce: the model atoms and both printed lists."""
    with DurableStore(PROGRAM, tmp_path) as store:
        store.add_facts(edb)
        store.checkpoint()
        model = store.database
        return model.as_set(), printed(model.atoms()), printed(store.edb_facts)


def reopen_shifted(tmp_path):
    """Reopen after clearing the intern table and interning unrelated
    terms first, so every dense ID differs from the writer's."""
    clear_intern_table()
    for i in range(7):
        intern_term(Func("unrelated", [Const(i), Const(f"u{i}", quoted=True)]))
    with DurableStore(PROGRAM, tmp_path) as store:
        assert store.stats.restore_mode == "snapshot"
        model = store.database
        return model.as_set(), printed(model.atoms()), printed(store.edb_facts)


def test_round_trip_keeps_spellings(tmp_path):
    expected = checkpointed(tmp_path, [parse_atom(s) for s in SPELLED])
    assert "p1('a')" in expected[2] and "p1(2.0)" in expected[2]
    assert "p3('Q', {'a', b}, g(2.0, {}))" in expected[1]
    with isolated_intern_table():
        assert reopen_shifted(tmp_path) == expected


terms = quoted_ground_terms
facts_st = st.tuples(
    st.booleans(),
    st.lists(terms, max_size=4),
    st.lists(st.tuples(terms, terms), max_size=4),
    st.lists(st.tuples(terms, terms, terms), max_size=3),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(facts_st)
def test_round_trip_property(tmp_path, facts):
    flag, ones, twos, threes = facts
    edb = [Atom("p0", ())] if flag else []
    edb += [Atom("p1", (t,)) for t in ones]
    edb += [Atom("p2", args) for args in twos]
    edb += [Atom("p3", args) for args in threes]
    for name in os.listdir(tmp_path):
        os.remove(tmp_path / name)
    expected = checkpointed(tmp_path, edb)
    with isolated_intern_table():
        assert reopen_shifted(tmp_path) == expected


# -- corruption ----------------------------------------------------------


def valid_lines(tmp_path):
    """A valid v2 snapshot's lines, parsed: header, terms, relations,
    trailer.  The model holds a compound, a set and a spelled row."""
    path = tmp_path / "snapshot.jsonl"
    edb = [parse_atom(s) for s in ("p2(f(1, 'a'), {b})", "p2(c, d)", "p1(e)")]
    write_snapshot(path, "fp", edb, edb)
    return path, [json.loads(line) for line in path.read_text().splitlines()]


def relation_line(lines, section, pred):
    return next(
        line for line in lines if isinstance(line, list) and line[:2] == [section, pred]
    )


def rewrite(path, lines):
    path.write_text("".join(codec.dumps(line) + "\n" for line in lines))


def test_valid_body_loads(tmp_path):
    path, lines = valid_lines(tmp_path)
    header = lines[0]
    assert header["version"] == 2
    assert (header["edb"], header["model"], header["relations"]) == (3, 3, 4)
    assert lines[-1] == {"end": 6}
    snapshot = load_snapshot(path)
    assert snapshot.version == 2
    assert printed(snapshot.edb_facts) == printed(snapshot.model.atoms())
    assert "p2(f(1, 'a'), {b})" in printed(snapshot.model.atoms())


def corrupt_missing_trailer(lines):
    del lines[-1]


def corrupt_term_count(lines):
    lines[0]["terms"] += 1


def corrupt_relation_count(lines):
    lines[0]["relations"] -= 1


def corrupt_model_count(lines):
    lines[0]["model"] += 1


def corrupt_end_count(lines):
    lines[-1]["end"] -= 1


def compound_line(lines):
    return next(
        i for i, line in enumerate(lines) if isinstance(line, list) and line[0] == "f"
    )


def corrupt_later_reference(lines):
    i = compound_line(lines)
    lines[i][2][0] = i - 1  # line i of the file is term line i - 1: itself


def corrupt_out_of_range_reference(lines):
    lines[compound_line(lines)][2][0] = 10**6


def corrupt_negative_reference(lines):
    lines[compound_line(lines)][2][0] = -1


def corrupt_non_int_row(lines):
    relation_line(lines, "m", "p2")[3][0] = "x"


def corrupt_bool_row(lines):
    relation_line(lines, "m", "p2")[3][0] = True


def corrupt_out_of_range_row(lines):
    relation_line(lines, "m", "p2")[3][0] = lines[0]["terms"]


def corrupt_negative_row(lines):
    relation_line(lines, "m", "p2")[3][0] = -1


def corrupt_row_length(lines):
    relation_line(lines, "m", "p2")[3].append(0)


def corrupt_duplicate_row(lines):
    flat = relation_line(lines, "m", "p2")[3]
    flat.extend(flat[:2])
    lines[0]["model"] += 1
    lines[-1]["end"] += 1


def corrupt_unheld_spelling(lines):
    line = relation_line(lines, "m", "p2")
    c = line[3][2]  # rows: (f(1, a), {b}), then (c, d)
    line[4].append([[c, c], [c, c]])


def corrupt_mismatched_spelling(lines):
    line = relation_line(lines, "m", "p2")
    row, args = line[4][0]
    flat = line[3]
    other = next(
        flat[i:i + 2] for i in range(0, len(flat), 2) if flat[i:i + 2] != row
    )
    line[4].append([other, args])


def corrupt_version(lines):
    lines[0]["version"] = 3


def corrupt_codec(lines):
    lines[0]["codec"] = codec.CODEC_VERSION + 1


def corrupt_section(lines):
    relation_line(lines, "m", "p1")[0] = "x"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (corrupt_missing_trailer, "missing end trailer"),
        (corrupt_term_count, "header count mismatch"),
        (corrupt_relation_count, "header count mismatch"),
        (corrupt_model_count, "header count mismatch"),
        (corrupt_end_count, "row count mismatch"),
        (corrupt_later_reference, "names no term line"),
        (corrupt_out_of_range_reference, "names no term line"),
        (corrupt_negative_reference, "names no term line"),
        (corrupt_non_int_row, "missing term line"),
        (corrupt_bool_row, "missing term line"),
        (corrupt_out_of_range_row, "missing term line"),
        (corrupt_negative_row, "missing term line"),
        (corrupt_row_length, "row ints for arity 2"),
        (corrupt_duplicate_row, "duplicate row"),
        (corrupt_unheld_spelling, "does not hold"),
        (corrupt_mismatched_spelling, "does not hold"),
        (corrupt_version, "unsupported snapshot version 3"),
        (corrupt_codec, "newer than supported"),
        (corrupt_section, "malformed relation line"),
    ],
)
def test_corrupt_body_raises(tmp_path, corrupt, message):
    path, lines = valid_lines(tmp_path)
    corrupt(lines)
    rewrite(path, lines)
    with pytest.raises(StorageError, match=message):
        load_snapshot(path)


def test_line_with_two_values_raises(tmp_path):
    path, lines = valid_lines(tmp_path)
    text = [codec.dumps(line) for line in lines]
    extra = ["m", "q", 1, relation_line(lines, "m", "p1")[3], []]
    text[-2] += "," + codec.dumps(extra)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(StorageError, match="more than one value"):
        load_snapshot(path)


def test_arity_zero_relation_round_trips(tmp_path):
    path = tmp_path / "snapshot.jsonl"
    write_snapshot(path, "fp", [], [Atom("flag", ())])
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert relation_line(lines, "m", "flag") == ["m", "flag", 0, [], []]
    assert load_snapshot(path).model.as_set() == {Atom("flag", ())}


def test_write_takes_databases_or_atoms(tmp_path):
    facts = [parse_atom(s) for s in ("p2(f(1, 'a'), {b})", "p1(e)")]
    by_atoms, by_database = tmp_path / "a.jsonl", tmp_path / "d.jsonl"
    write_snapshot(by_atoms, "fp", facts, facts)
    write_snapshot(by_database, "fp", Database(facts), Database(facts))
    assert by_atoms.read_bytes() == by_database.read_bytes()


# -- version 1 ------------------------------------------------------------


def test_v1_snapshot_opens_and_is_rewritten_as_v2(tmp_path):
    edb = [parse_atom(s) for s in ("p1('a')", "p2(f(1, 'a'), 2.0)", "p2(x, y)", "p0")]
    model = evaluate(PROGRAM, edb=edb).database
    fact_edb = sorted(edb, key=lambda a: a.sort_key())
    fingerprint = compile_program(PROGRAM).fingerprint
    header = {
        "format": "ldl1-snapshot",
        "version": 1,
        "codec": codec.CODEC_VERSION,
        "fingerprint": fingerprint,
        "edb": len(fact_edb),
        "model": len(model),
    }
    lines = [codec.dumps(header)]
    lines += ['["e",' + codec.dumps_atom(a) + "]" for a in fact_edb]
    lines += ['["m",' + codec.dumps_atom(a) + "]" for a in model.sorted_atoms()]
    lines.append(codec.dumps({"end": len(fact_edb) + len(model)}))
    (tmp_path / "snapshot.jsonl").write_text("\n".join(lines) + "\n")
    expected = printed(model.atoms())

    assert load_snapshot(tmp_path / "snapshot.jsonl").version == 1
    with DurableStore(PROGRAM, tmp_path) as store:
        assert store.stats.restore_mode == "snapshot"
        assert store.database.as_set() == model.as_set()
        assert printed(store.database.atoms()) == expected
        store.checkpoint()
    header = json.loads((tmp_path / "snapshot.jsonl").read_text().splitlines()[0])
    assert header["version"] == 2
    with DurableStore(PROGRAM, tmp_path) as store:
        assert store.stats.restore_mode == "snapshot"
        assert printed(store.database.atoms()) == expected
