"""A database of U-facts: one :class:`Relation` per predicate.

The database is the ``M`` of the paper's ``R(M)`` operator — a set of
U-facts — organized per predicate for indexed access.  Predicates are
keyed by name only; the first fact fixes the arity and later arity
mismatches raise.

``Database(facts)`` is the bulk loader every base-fact path uses (the
EDB plus program facts of :func:`~repro.engine.compiled.base_database`,
a snapshot's model, a recompute's rebuilt base): it canonicalizes each
argument once, straight into its equality-class ID, groups the ID rows
per predicate and hands each predicate's batch to its relation
uncopied (:meth:`Relation.adopt`).  No :class:`Atom` is built on the
way, a load never holds two copies of its rows, and the result is
exactly what one :meth:`add` per fact would give — the first spelling
of a fact wins, and the errors are the same.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.engine.relation import ArgTuple, IdRow, Relation
from repro.errors import EvaluationError, NonGroundFactError
from repro.program.rule import Atom
from repro.terms.term import (
    Const,
    _INTERN_TABLE,
    evaluate_ground,
    intern_term,
    row_id,
)


def _non_ground(atom: Atom) -> NonGroundFactError:
    return NonGroundFactError(f"cannot store non-ground atom {atom!r}")


def fact_batches(
    facts: Iterable[Atom],
) -> dict[str, tuple[int, dict[IdRow, None], dict[IdRow, ArgTuple]]]:
    """``facts`` as one ID-row batch per predicate, in first-seen order:
    ``pred -> (arity, rows, spellings)``.

    ``rows`` holds each distinct ID row once, in first-seen order, and
    ``spellings`` the arguments (as U-elements) of the rows first added
    with a spelling other than their class representatives' — a quoted
    string, or a compound holding one.  A plain constant, the common
    case, is canonicalized by one probe of the intern table.  Raises
    :class:`~repro.errors.NonGroundFactError` for a non-ground fact,
    :class:`ValueError` when a predicate's arity changes, and whatever
    :func:`~repro.terms.term.evaluate_ground` raises for an argument
    outside U.
    """
    batches: dict = {}
    table = _INTERN_TABLE
    for atom in facts:
        args = atom.args
        row = []
        spelled = False
        try:
            for term in args:
                if not term._interned:
                    if type(term) is Const:
                        value = term.value
                        found = table.get(
                            (Const, value.__class__, value, term.quoted)
                        )
                        term = intern_term(term) if found is None else found
                    else:
                        term = evaluate_ground(term)
                rid = term._rid
                if rid is None:  # raced the ``_interned`` flag
                    rid = row_id(term)
                if rid != term._tid:
                    spelled = True
                row.append(rid)
        except EvaluationError:
            if atom.is_ground():
                raise
            raise _non_ground(atom) from None
        row = tuple(row)
        batch = batches.get(atom.pred)
        if batch is None:
            batch = batches[atom.pred] = (len(args), {}, {})
        arity, rows, spellings = batch
        if row in rows:
            continue
        if len(args) != arity:
            raise ValueError(
                f"{atom.pred}: arity {arity} but got {len(args)} args"
            )
        rows[row] = None
        if spelled:
            spellings[row] = tuple([evaluate_ground(term) for term in args])
    return batches


class Database:
    """Mutable set of ground atoms with per-predicate indexed storage."""

    # weak-referenceable so a test can see a dropped model's database
    # freed by reference counting alone (no collector pass).
    __slots__ = ("_relations", "__weakref__")

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._relations: dict[str, Relation] = {
            pred: Relation.adopt(pred, arity, rows, spellings)
            for pred, (arity, rows, spellings) in fact_batches(facts).items()
        }

    @classmethod
    def from_relations(cls, relations: Iterable[Relation]) -> "Database":
        """A database over ``relations`` (distinct predicates), taken
        over uncopied."""
        db = cls()
        db._relations = {rel.pred: rel for rel in relations}
        return db

    def relation(self, pred: str, arity: int | None = None) -> Relation:
        """The relation for ``pred``, creating it when ``arity`` given."""
        rel = self._relations.get(pred)
        if rel is None:
            if arity is None:
                raise EvaluationError(f"unknown predicate {pred!r}")
            rel = Relation(pred, arity)
            self._relations[pred] = rel
        return rel

    def has_relation(self, pred: str) -> bool:
        return pred in self._relations

    def get_relation(self, pred: str) -> Relation | None:
        """The relation for ``pred``, or None when unknown (no create)."""
        return self._relations.get(pred)

    def add(self, atom: Atom) -> bool:
        """Insert a ground atom; returns True when new."""
        if not atom.is_ground():
            raise _non_ground(atom)
        args = atom.args
        rel = self._relations.get(atom.pred)
        if rel is None:
            rel = self.relation(atom.pred, len(args))
        row = getattr(atom, "_row", None)
        if row is not None:
            # the specialized executor derived this fact in ID space
            # and attached the row: skip re-encoding the arguments
            return rel.add_row(row, args)
        return rel.add(args)

    def add_tuple(self, pred: str, args: ArgTuple) -> bool:
        return self.relation(pred, len(args)).add(args)

    def add_rows(self, pred: str, arity: int, rows, decode):
        """Bulk-insert derived ID rows for one predicate; returns the
        rows that were new.  See :meth:`Relation.add_rows` — this is
        the fixpoint's scatter entry point."""
        rel = self._relations.get(pred)
        if rel is None:
            rel = self.relation(pred, arity)
        elif rel.arity != arity:
            raise ValueError(f"{pred}: arity {rel.arity} but got {arity} args")
        return rel.add_rows(rows, decode)

    def add_keys(self, pred: str, keys: dict, carried: int) -> dict:
        """Install a key map of candidate pairs into a binary predicate;
        returns the fresh pairs as ``{first: set(second)}``.  See
        :meth:`KeyMapRelation.add_keys
        <repro.engine.relation.KeyMapRelation.add_keys>`."""
        rel = self.relation(pred, 2)
        if rel.arity != 2:
            raise ValueError(f"{pred}: arity {rel.arity} but got 2 args")
        return rel.add_keys(keys, carried)

    def discard(self, atom: Atom) -> bool:
        """Remove a ground atom; returns True when it was present.

        The symmetric counterpart of :meth:`add` — WAL replay and other
        update paths rely on add/discard round-tripping exactly.
        """
        rel = self._relations.get(atom.pred)
        return rel is not None and rel.discard(atom.args)

    def discard_rows(self, pred: str, rows) -> list[IdRow]:
        """Bulk-remove ID rows of one predicate; returns the rows that
        were present.  See :meth:`Relation.discard_rows` — the bulk
        counterpart of :meth:`discard`."""
        rel = self._relations.get(pred)
        return [] if rel is None else rel.discard_rows(rows)

    def remove(self, atom: Atom) -> None:
        """Remove a ground atom that must be present.

        Raises :class:`~repro.errors.EvaluationError` when the fact is
        not stored; use :meth:`discard` for remove-if-present.
        """
        if not self.discard(atom):
            raise EvaluationError(f"fact not in database: {atom!r}")

    def __contains__(self, atom: Atom) -> bool:
        rel = self._relations.get(atom.pred)
        return rel is not None and atom.args in rel

    def contains_tuple(self, pred: str, args: ArgTuple) -> bool:
        """Membership test by raw argument tuple, without building an
        :class:`Atom`."""
        rel = self._relations.get(pred)
        return rel is not None and args in rel

    def tuples(self, pred: str) -> Iterable[ArgTuple]:
        rel = self._relations.get(pred)
        return iter(rel) if rel is not None else ()

    def lookup(
        self, pred: str, positions: tuple[int, ...], key: ArgTuple
    ) -> Iterable[ArgTuple]:
        rel = self._relations.get(pred)
        if rel is None:
            return ()
        return rel.lookup(positions, key)

    def id_rows(self, pred: str):
        """The predicate's stored ID rows (a set-like view), or None for
        an unknown predicate.  See :meth:`Relation.id_rows`."""
        rel = self._relations.get(pred)
        return None if rel is None else rel.id_rows()

    def key_map(self, pred: str) -> dict | None:
        """A binary predicate's stored ``{first ID: set(second ID)}``
        (live, read only), or None for an unknown predicate or one of
        another arity.  See :meth:`KeyMapRelation.key_map
        <repro.engine.relation.KeyMapRelation.key_map>`."""
        rel = self._relations.get(pred)
        if rel is None or rel.arity != 2:
            return None
        return rel.key_map()

    def id_index(self, pred: str, positions: tuple[int, ...]):
        """The predicate's ID-space hash index for ``positions`` (built
        on first use), or None for an unknown predicate.  The
        specialized executors probe this dict directly.  See
        :meth:`Relation.id_index`."""
        rel = self._relations.get(pred)
        return None if rel is None else rel.id_index(positions)

    def count(self, pred: str | None = None) -> int:
        """Number of facts for one predicate, or in total."""
        if pred is not None:
            rel = self._relations.get(pred)
            return len(rel) if rel is not None else 0
        return sum(len(rel) for rel in self._relations.values())

    def predicates(self) -> tuple[str, ...]:
        return tuple(sorted(self._relations))

    def arities(self) -> Iterator[tuple[str, int]]:
        """Each stored predicate with its relation's arity."""
        return ((pred, rel.arity) for pred, rel in self._relations.items())

    def atoms(self, pred: str | None = None) -> Iterator[Atom]:
        """Iterate stored facts as atoms, optionally for one predicate."""
        preds = (pred,) if pred is not None else self.predicates()
        for name in preds:
            rel = self._relations.get(name)
            if rel is None:
                continue
            for args in rel:
                yield Atom(name, args)

    def sorted_atoms(self, pred: str | None = None) -> list[Atom]:
        """Deterministically ordered facts (for printing and tests)."""
        return sorted(self.atoms(pred), key=lambda a: a.sort_key())

    def copy(self) -> "Database":
        return Database.from_relations(
            rel.copy() for rel in self._relations.values()
        )

    def overlay(
        self, private: Iterable[tuple[str, int]], hidden=frozenset()
    ) -> "Database":
        """A database over this one's own :class:`Relation` objects.

        Every relation except the ``hidden`` predicates is *shared*, not
        copied — the overlay's readers probe (and lazily index) the very
        relations this database holds, and no copy-on-write flag is set
        on them.  ``private`` names the (predicate, arity) pairs the
        caller will write: each gets a fresh empty relation that shadows
        any shared one of the same name.  Writing any *other* predicate
        through the overlay would mutate this database.
        """
        view = Database()
        relations = view._relations
        for pred, rel in self._relations.items():
            if pred not in hidden:
                relations[pred] = rel
        for pred, arity in private:
            relations[pred] = Relation(pred, arity)
        return view

    def as_set(self) -> frozenset[Atom]:
        return frozenset(self.atoms())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Database) and self.as_set() == other.as_set()

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{pred}:{len(rel)}" for pred, rel in sorted(self._relations.items())
        )
        return f"Database({parts})"
