"""A model iterates, and its checkpoint is written, in an order set by
the operation history alone, never by the interpreter's string hashing;
and a binary relation's quoted spellings survive a checkpoint and a
reopen whose dense IDs differ.

Binary relations are key maps (``{first ID: set(second ID)}``), so
their iteration order is that of int dicts and int sets: these tests
hold it to the hash-seed independence rows in insertion order had.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.engine.relation import KeyMapRelation
from repro.parser import parse_atom, parse_query, parse_rules
from repro.storage.store import DurableStore
from repro.terms.pretty import format_atom, format_term
from repro.terms.term import Const, Func, clear_intern_table, intern_term

from tests.test_interning import isolated_intern_table

SRC = Path(__file__).resolve().parents[1] / "src"

#: Evaluate the social program in a durable session, print every model
#: relation's tuples in iteration order, and checkpoint.
SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    from repro.api import LDL
    from repro.terms.pretty import format_term
    from repro.workloads.social import SOCIAL_PROGRAM, social_network

    session = LDL(SOCIAL_PROGRAM, path=sys.argv[1])
    session.add_atoms(social_network(30, seed=2))
    db = session.model().database
    order = {
        pred: [[format_term(term) for term in args] for args in db.relation(pred)]
        for pred in db.predicates()
    }
    session.checkpoint()
    session.close()
    print(json.dumps(order))
    """
)


def run_script(hash_seed: str, path: Path) -> tuple[dict, bytes]:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), (path / "snapshot.jsonl").read_bytes()


def test_model_order_and_snapshot_bytes_ignore_the_hash_seed(tmp_path):
    order, snapshot = run_script("1", tmp_path / "one")
    assert order["influences"] and order["recommend"]
    assert (order, snapshot) == run_script("2", tmp_path / "two")


PROGRAM = parse_rules(
    """
    knows(A, B) <- met(A, B).
    knows(A, B) <- knows(A, C), met(C, B).
    """
)

#: ``'u1'`` and ``u1``, ``1`` and ``1.0``: one key of the key map holds
#: rows spelled both ways.
SPELLED = [
    "met('u1', u2)",
    "met(u1, 1)",
    "met(u1, 1.0)",
    "met(u2, 'u1')",
    "met(1, f('a'))",
]


def _reads(store) -> tuple[list[str], list[str], list[str]]:
    db = store.database
    probe = parse_query("? met(u1, X).").atom.args[0]
    return (
        sorted(map(format_atom, db.atoms())),
        sorted(map(format_atom, store.edb_facts)),
        sorted(
            ", ".join(map(format_term, args))
            for args in db.lookup("met", (0,), (probe,))
        ),
    )


def test_binary_spellings_survive_checkpoint_and_reopen(tmp_path):
    with DurableStore(PROGRAM, tmp_path) as store:
        store.add_facts([parse_atom(text) for text in SPELLED])
        store.checkpoint()
        assert isinstance(store.database.relation("met"), KeyMapRelation)
        expected = _reads(store)
    assert "met('u1', u2)" in expected[0] and "met(u1, 1.0)" in expected[0]
    assert "met(u2, 'u1')" in expected[1]
    assert expected[2] == ["'u1', u2", "u1, 1", "u1, 1.0"]
    with isolated_intern_table():
        # every dense ID of the reopen differs from the writer's
        clear_intern_table()
        for i in range(5):
            intern_term(Func("shift", [Const(i), Const(f"v{i}", quoted=True)]))
        with DurableStore(PROGRAM, tmp_path) as store:
            assert store.stats.restore_mode == "snapshot"
            assert _reads(store) == expected
