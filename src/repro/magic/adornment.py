"""Adorned programs (paper Section 6, following [BR87]).

An *adornment* for an n-ary predicate is a string over ``{b, f}``
marking which argument positions arrive bound.  Starting from the query
predicate's adornment, a *sip* (sideways information passing strategy)
decides how bindings flow through each rule body; the default here is
the paper's left-to-right strategy with the two LDL1-specific
restrictions spelled out in Section 6:

* a head argument of the form ``<X>`` never contributes bound
  variables (footnote 6: restricting the grouped variable would change
  the grouped set's meaning);
* negative literals receive bindings but produce none.

Derived (IDB) predicates are specialized per adornment by renaming
``p`` to ``p__<adornment>``; EDB predicates and built-ins keep their
names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MagicRewriteError
from repro.magic.sips import SipStrategy, left_to_right_sip
from repro.names import is_builtin_predicate
from repro.program.modes import modes_for
from repro.program.rule import Atom, Literal, Program, Query, Rule
from repro.terms.term import GroupTerm


def adorned_name(pred: str, adornment: str) -> str:
    return f"{pred}__{adornment}"


def unadorned_name(name: str) -> str:
    """The original predicate of an adorned name (inverse of
    :func:`adorned_name`; adornments never contain ``__``)."""
    return name.rpartition("__")[0]


def atom_adornment(atom: Atom, bound_vars: set[str]) -> str:
    """b/f string for ``atom`` given the currently bound variables.

    An argument is bound when every variable in it is bound (ground
    arguments are vacuously bound); a grouping-term argument is free.
    """
    out = []
    for arg in atom.args:
        if isinstance(arg, GroupTerm):
            out.append("f")
        elif arg.variables() <= bound_vars:
            out.append("b")
        else:
            out.append("f")
    return "".join(out)


def _bound_head_vars(head: Atom, adornment: str) -> set[str]:
    bound: set[str] = set()
    for marker, arg in zip(adornment, head.args):
        if marker == "b" and not isinstance(arg, GroupTerm):
            bound |= arg.variables()
    return bound


def _builtin_produces(lit: Literal, bound: set[str]) -> set[str]:
    """Variables a built-in literal can bind given ``bound``."""
    atom = lit.atom
    for mode in modes_for(atom.pred):
        required: set[str] = set()
        for pos in mode.requires:
            if pos < len(atom.args):
                required |= atom.args[pos].variables()
        if required <= bound:
            produced: set[str] = set()
            for pos in mode.produces:
                if pos < len(atom.args):
                    produced |= atom.args[pos].variables()
            return produced
    return set()


def _grouped_positions(program: Program) -> dict[str, set[int]]:
    """Per predicate, the positions that are grouped (``<X>``) in some
    rule head.  They can never be bound: a binding there would restrict
    the grouped set (footnote 6)."""
    grouped: dict[str, set[int]] = {}
    for rule in program.rules:
        positions = rule.head.group_positions()
        if positions:
            grouped.setdefault(rule.head.pred, set()).update(positions)
    return grouped


def _force_free(adornment: str, forced: set[int] | None) -> str:
    if not forced:
        return adornment
    return "".join(
        "f" if i in forced else marker for i, marker in enumerate(adornment)
    )


def effective_adornment(program: Program, query: Query) -> str:
    """The query's adornment with grouped head positions forced free.

    Together with the predicate this is all of a query the magic
    rewrite depends on — the constants enter only through the seed.
    """
    forced: set[int] = set()
    for rule in program.rules_for(query.atom.pred):
        forced.update(rule.head.group_positions())
    return _force_free(query.adornment(), forced)


@dataclass
class AdornedRule:
    """One adorned rule plus sip bookkeeping.

    ``rule`` has the adorned head/body predicate names already applied;
    ``prefix_bound`` records, per body position, the variables bound
    *before* that literal (used by the magic rewrite), and ``derived``
    flags body positions referring to IDB predicates.
    """

    rule: Rule
    head_adornment: str
    body_adornments: tuple[str, ...]
    prefix_bound: tuple[frozenset[str], ...]
    derived: tuple[bool, ...]
    #: body occurrence indices in sip-processing order; binding flow and
    #: magic-rule prefixes follow this order, not the written one.
    sip_order: tuple[int, ...] = ()


@dataclass
class AdornedProgram:
    """The adorned version of (program, query)."""

    rules: tuple[AdornedRule, ...]
    query: Query
    query_pred: str  # adorned name of the query predicate
    query_adornment: str  # effective adornment (grouped positions free)
    idb_predicates: frozenset[str]

    def program(self) -> Program:
        return Program(ar.rule for ar in self.rules)


def adorn(
    program: Program,
    query: Query,
    sip_strategy: SipStrategy = left_to_right_sip,
) -> AdornedProgram:
    """Build the adorned program ``P^ad`` for ``query``.

    Only rules reachable from the query predicate are kept (the
    unreachable ones cannot contribute to the answer).  ``sip_strategy``
    chooses how bindings flow through rule bodies (default: the paper's
    left-to-right sip).
    """
    idb = program.idb_predicates()
    if is_builtin_predicate(query.atom.pred):
        raise MagicRewriteError("cannot rewrite a query on a built-in")
    for pred in idb:
        if "__" in pred or pred.startswith("m_"):
            raise MagicRewriteError(
                f"predicate name {pred!r} clashes with adorned naming"
            )

    grouped_positions = _grouped_positions(program)

    def effective(pred: str, adornment: str) -> str:
        return _force_free(adornment, grouped_positions.get(pred))

    query_adornment = effective(query.atom.pred, query.adornment())
    out: list[AdornedRule] = []
    seen: set[tuple[str, str]] = set()
    worklist: list[tuple[str, str]] = []

    def demand(pred: str, adornment: str) -> str:
        """Record a (pred, effective adornment) pair; return the
        adorned name."""
        if pred not in idb:
            return pred
        key = (pred, adornment)
        if key not in seen:
            seen.add(key)
            worklist.append(key)
        return adorned_name(pred, adornment)

    if query.atom.pred in idb:
        query_pred = demand(query.atom.pred, query_adornment)
    else:
        query_pred = query.atom.pred

    while worklist:
        pred, adornment = worklist.pop(0)
        for rule in program.rules_for(pred):
            sip = sip_strategy(rule, adornment)
            bound = _bound_head_vars(rule.head, adornment)
            size = len(rule.body)
            body_adornments: list[str] = [""] * size
            prefix_bound: list[frozenset[str]] = [frozenset()] * size
            derived_flags: list[bool] = [False] * size
            new_body: list[Literal | None] = [None] * size
            for index in sip.order:
                lit = rule.body[index]
                prefix_bound[index] = frozenset(bound)
                # the recorded adornment is the effective one, so the
                # magic rule for this occurrence passes exactly the
                # arguments the demanded predicate's guard expects
                lit_adornment = effective(
                    lit.atom.pred, atom_adornment(lit.atom, bound)
                )
                body_adornments[index] = lit_adornment
                derived_flags[index] = lit.atom.pred in idb
                new_pred = demand(lit.atom.pred, lit_adornment)
                new_body[index] = Literal(
                    Atom(new_pred, lit.atom.args), lit.positive
                )
                if lit.negative:
                    continue  # negative literals produce no bindings
                if is_builtin_predicate(lit.atom.pred):
                    bound |= _builtin_produces(lit, bound)
                else:
                    bound |= lit.atom.variables()
            new_head = Atom(adorned_name(pred, adornment), rule.head.args)
            out.append(
                AdornedRule(
                    Rule(new_head, new_body),
                    adornment,
                    tuple(body_adornments),
                    tuple(prefix_bound),
                    tuple(derived_flags),
                    sip.order,
                )
            )
    return AdornedProgram(
        rules=tuple(out),
        query=query,
        query_pred=query_pred,
        query_adornment=query_adornment,
        idb_predicates=idb,
    )
