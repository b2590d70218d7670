"""Atoms, literals, rules, queries, and programs (paper Section 2.1).

A *rule* is ``head <- body`` where the head is a positive predicate and
the body a sequence of literals; a rule with an empty body is a *fact*.
A rule whose head contains ``<X>`` is a *grouping rule*.  A *program* is
a finite set of well-formed rules.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.names import is_builtin_predicate
from repro.terms.pretty import format_atom, format_literal, format_rule
from repro.terms.term import (
    GroupTerm,
    Term,
    contains_group_term,
    evaluate_ground,
)


class Atom:
    """A predicate applied to terms: ``p(t1, ..., tn)``.

    ``pred`` is the predicate symbol; zero-ary atoms are allowed
    (propositional facts).  Immutable and hashable, so ground atoms
    serve directly as U-facts.
    """

    __slots__ = ("pred", "args", "_hash", "_ground", "_row")

    def __init__(self, pred: str, args: Iterable[Term] = ()) -> None:
        self.pred = pred
        self.args = tuple(args)
        self._hash = None
        self._ground = None
        # ``_row`` is deliberately left unset: the specialized executor
        # attaches the argument tuple's dense-ID row so storage can
        # skip re-encoding (see Database.add); everyone else never
        # pays for the extra store.

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        g = self._ground
        if g is None:
            g = all(a.is_ground() for a in self.args)
            self._ground = g
        return g

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.variables()
        return out

    def substitute(self, binding: Mapping[str, Term]) -> "Atom":
        return Atom(self.pred, [a.substitute(binding) for a in self.args])

    def has_group_term(self) -> bool:
        """True when ``<...>`` occurs anywhere among the arguments."""
        return any(contains_group_term(a) for a in self.args)

    def group_positions(self) -> tuple[int, ...]:
        """Argument positions that are *directly* grouping terms."""
        return tuple(
            i for i, a in enumerate(self.args) if isinstance(a, GroupTerm)
        )

    def is_builtin(self) -> bool:
        return is_builtin_predicate(self.pred)

    def sort_key(self):
        return (self.pred, len(self.args), tuple(a.sort_key() for a in self.args))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Atom)
            and self.pred == other.pred
            and self.args == other.args
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((Atom, self.pred, self.args))
            self._hash = h
        return h

    def __reduce__(self):
        return (Atom, (self.pred, self.args))

    def __repr__(self) -> str:
        return f"Atom({format_atom(self)})"


class Literal:
    """A positive or negative occurrence of an atom in a rule body."""

    __slots__ = ("atom", "positive")

    def __init__(self, atom: Atom, positive: bool = True) -> None:
        self.atom = atom
        self.positive = positive

    @property
    def negative(self) -> bool:
        return not self.positive

    def variables(self) -> frozenset[str]:
        return self.atom.variables()

    def substitute(self, binding: Mapping[str, Term]) -> "Literal":
        return Literal(self.atom.substitute(binding), self.positive)

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.positive == other.positive
            and self.atom == other.atom
        )

    def __hash__(self) -> int:
        return hash((Literal, self.atom, self.positive))

    def __repr__(self) -> str:
        return f"Literal({format_literal(self)})"


class Rule:
    """``head <- body``; a fact when the body is empty."""

    __slots__ = ("head", "body")

    def __init__(self, head: Atom, body: Iterable[Literal] = ()) -> None:
        self.head = head
        self.body = tuple(body)

    def is_fact(self) -> bool:
        return not self.body

    def is_grouping(self) -> bool:
        """True for grouping rules (``<X>`` in the head, Section 2.1)."""
        return self.head.has_group_term()

    def is_simple(self) -> bool:
        """No grouping in the head and no negative body literal (3.2)."""
        return not self.is_grouping() and all(lit.positive for lit in self.body)

    def variables(self) -> frozenset[str]:
        out = self.head.variables()
        for lit in self.body:
            out |= lit.variables()
        return out

    def positive_body(self) -> tuple[Literal, ...]:
        return tuple(lit for lit in self.body if lit.positive)

    def negative_body(self) -> tuple[Literal, ...]:
        return tuple(lit for lit in self.body if lit.negative)

    def substitute(self, binding: Mapping[str, Term]) -> "Rule":
        return Rule(
            self.head.substitute(binding),
            (lit.substitute(binding) for lit in self.body),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return hash((Rule, self.head, self.body))

    def __repr__(self) -> str:
        return f"Rule({format_rule(self)})"


class Query:
    """A query ``? p(t1, ..., tn)`` — constants mark bound arguments."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom) -> None:
        self.atom = atom

    def adornment(self) -> str:
        """The b/f adornment string induced by the query's arguments."""
        return "".join("b" if a.is_ground() else "f" for a in self.atom.args)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Query) and self.atom == other.atom

    def __hash__(self) -> int:
        return hash((Query, self.atom))

    def __repr__(self) -> str:
        return f"Query(? {format_atom(self.atom)})"


class Program:
    """An ordered collection of rules with convenience accessors.

    Rule order never affects semantics (LDL is assertional, Section 1)
    but is preserved for printing and deterministic iteration.  A
    program is immutable; ``_compiled`` memoizes its
    :func:`~repro.engine.compiled.compile_program` result, which refers
    back to the program only weakly.
    """

    __slots__ = ("rules", "_compiled", "__weakref__")

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self.rules = tuple(rules)
        self._compiled = None

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __add__(self, other: "Program") -> "Program":
        return Program(self.rules + tuple(other.rules))

    def facts(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_fact())

    def proper_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.is_fact())

    def predicates(self) -> frozenset[str]:
        """All predicate symbols occurring anywhere in the program."""
        out: set[str] = set()
        for rule in self.rules:
            out.add(rule.head.pred)
            for lit in rule.body:
                out.add(lit.atom.pred)
        return frozenset(out)

    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by at least one non-fact rule head."""
        return frozenset(
            r.head.pred for r in self.rules if not r.is_fact()
        )

    def edb_predicates(self) -> frozenset[str]:
        """Predicates that occur only in facts or only in bodies."""
        return frozenset(
            p
            for p in self.predicates()
            if p not in self.idb_predicates() and not is_builtin_predicate(p)
        )

    def rules_for(self, pred: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.head.pred == pred)

    def is_positive(self) -> bool:
        """No negative body literal anywhere (Section 2.1)."""
        return all(
            lit.positive for rule in self.rules for lit in rule.body
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and set(self.rules) == set(other.rules)

    def __hash__(self) -> int:
        return hash((Program, frozenset(self.rules)))

    def __reduce__(self):
        return (Program, (self.rules,))

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules)"


def fact(pred: str, *args: Term) -> Rule:
    """Build a ground fact rule ``pred(args).``"""
    return Rule(Atom(pred, args))


def canonical_atom(atom: Atom) -> Atom:
    """The atom with every argument evaluated to its U-element.

    Every path that stores base facts — in-memory evaluation, the
    incremental model, the durable store — must normalize through this
    one function, or the same session can compute different models
    depending on where its facts happen to live.  Raises
    :class:`~repro.errors.EvaluationError` on non-ground arguments.
    """
    return Atom(atom.pred, tuple(evaluate_ground(a) for a in atom.args))
