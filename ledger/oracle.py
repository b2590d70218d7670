"""Expected answers, from a from-scratch evaluation in this process.

The oracle evaluates the same generated EDB bottom-up with a fresh
in-memory session.  It shares no state with the process under test and
none of the paths the ``serve_*`` workloads exercise (answer cache,
on-demand magic, differential maintenance, WAL, snapshot restore).  It
is built outside ``setup_s``.
"""

from __future__ import annotations

from repro.api import LDL
from repro.program.rule import Atom
from repro.terms.term import Const

import gen


def atoms_of(rows) -> list[Atom]:
    return [Atom(pred, tuple(Const(a) for a in args)) for pred, args in rows]


class Oracle:
    """Per-user expected answers of the three profile-page queries."""

    def __init__(self, program_text: str, rows) -> None:
        session = LDL(program_text)
        session.add_atoms(atoms_of(rows))
        self.database = session.database()
        self.preds = self.database.predicates()
        self.model_facts = len(self.database)
        self.influences = self._sets("influences")
        self.recommend = self._sets("recommend")
        self.audience = {
            atom.args[0].value: atom.args[1].value
            for atom in self._atoms("audience")
        }

    def _atoms(self, pred: str):
        return self.database.atoms(pred) if pred in self.preds else ()

    def _sets(self, pred: str) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {}
        for atom in self._atoms(pred):
            out.setdefault(atom.args[0].value, set()).add(atom.args[1].value)
        return {key: frozenset(values) for key, values in out.items()}

    # -- expected values, optionally "while a follows b" -------------------

    def expect_influences(self, u: int, extra_edge=None) -> frozenset[str]:
        """Everyone who transitively follows ``u``.

        With the extra edge ``a follows b``: ``b`` now also reaches
        ``a`` and everyone ``a`` already reached.
        """
        base = self.influences.get(gen.user(u), frozenset())
        if extra_edge is not None and extra_edge[1] == u:
            a = gen.user(extra_edge[0])
            base = base | {a} | self.influences.get(a, frozenset())
        return base

    def expect_audience(self, u: int, extra_edge=None) -> frozenset[int]:
        """``u``'s follower count, as the (0- or 1-element) answer set."""
        count = self.audience.get(gen.user(u), 0)
        if extra_edge is not None and extra_edge[1] == u:
            count += 1
        return frozenset({count} if count else ())

    def expect_recommend(self, u: int) -> frozenset[str]:
        return self.recommend.get(gen.user(u), frozenset())


def answer_values(reply: dict, var: str) -> frozenset:
    """The values one variable takes in a wire-format query reply.

    Constants travel as ``["s", name]`` / ``["n", number]``.
    """
    return frozenset(answer[var][1] for answer in reply["answers"])
