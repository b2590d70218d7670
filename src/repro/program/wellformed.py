"""Well-formedness and safety checks (paper Sections 2.1 and 7).

A rule containing ``<X>`` in the head is a *grouping rule*; it is
well-formed only when (W1) the body has no ``<X>`` occurrence, (W2) the
head has at most one ``<X>`` occurrence and it is a *direct* argument of
the head predicate, and (W3) every body literal is positive.

Section 7 additionally proposes the *safety* (range-restriction)
condition: every head variable, and every variable of a negative
literal, must be derivable from positive body literals — which also
guarantees grouped sets stay inside the (finite portion of the)
universe.  We implement the mode-aware version: built-ins may bind
variables once their required arguments are bound.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import SafetyError, WellFormednessError
from repro.names import is_builtin_predicate
from repro.program.modes import modes_for
from repro.program.rule import Atom, Program, Rule
from repro.terms.pretty import format_rule
from repro.terms.term import GroupTerm, contains_group_term


def check_rule_wellformed(
    rule: Rule, allow_ldl15: bool = False, strict_w3: bool = False
) -> None:
    """Raise :class:`WellFormednessError` if ``rule`` breaks W1–W3.

    With ``allow_ldl15=True`` the LDL1.5 relaxations of Section 4 are
    accepted (``<t>`` in bodies, nested or multiple head groupings);
    those constructs must then be compiled away by
    :mod:`repro.transform` before evaluation.

    ``strict_w3`` enforces the Section 2.1 wording that grouping-rule
    bodies are all-positive.  The paper's own Section 6 running example
    (rule 5: ``young(X, <Y>) <- ~a(X, Z), sg(X, Y)``) breaks that
    restriction, and layering makes negation in grouping bodies
    unproblematic (every body predicate is strictly lower), so the
    default accepts it.
    """
    if allow_ldl15:
        return
    head_groups = [t for a in rule.head.args for t in a.walk() if isinstance(t, GroupTerm)]
    if head_groups:
        direct = rule.head.group_positions()
        if len(head_groups) > 1:
            raise WellFormednessError(
                f"more than one grouping term in head: {format_rule(rule)}"
            )
        if len(direct) != 1:
            raise WellFormednessError(
                "grouping term must be a direct head argument: "
                + format_rule(rule)
            )
        from repro.terms.term import Var

        if not isinstance(rule.head.args[direct[0]].inner, Var):
            raise WellFormednessError(
                "base LDL1 grouping must be over a single variable "
                f"(LDL1.5 form needs compilation): {format_rule(rule)}"
            )
        if strict_w3:
            for lit in rule.body:
                if lit.negative:
                    raise WellFormednessError(
                        "grouping rule with negative body literal (W3): "
                        + format_rule(rule)
                    )
    for lit in rule.body:
        if any(contains_group_term(a) for a in lit.atom.args):
            raise WellFormednessError(
                f"grouping term in rule body (LDL1.5 only): {format_rule(rule)}"
            )


def derivable_variables(rule: Rule) -> frozenset[str]:
    """Variables bindable by evaluating the body left-to-right in *some*
    order, honoring built-in modes.

    Runs the standard fixpoint: a positive non-built-in literal binds
    all of its variables; a built-in literal binds the variables of its
    ``produces`` positions once all variables of some mode's
    ``requires`` positions are bound.
    """
    bound: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lit in rule.body:
            if lit.negative:
                continue
            if not is_builtin_predicate(lit.atom.pred):
                new = lit.atom.variables() - bound
                if new:
                    bound |= new
                    changed = True
                continue
            for mode in modes_for(lit.atom.pred):
                required_vars: set[str] = set()
                for pos in mode.requires:
                    if pos < len(lit.atom.args):
                        required_vars |= lit.atom.args[pos].variables()
                if required_vars <= bound:
                    produced: set[str] = set()
                    for pos in mode.produces:
                        if pos < len(lit.atom.args):
                            produced |= lit.atom.args[pos].variables()
                    new = produced - bound
                    if new:
                        bound |= new
                        changed = True
    return frozenset(bound)


def check_rule_safe(rule: Rule, strict: bool = False) -> None:
    """Raise :class:`SafetyError` when the rule is not range-restricted.

    ``strict=True`` applies the paper's literal Section 7 wording
    (every head variable / negative-literal variable occurs in a
    positive body literal); the default also credits variables bound
    through built-in modes.
    """
    if strict:
        bound: frozenset[str] = frozenset().union(
            *(
                lit.atom.variables()
                for lit in rule.body
                if lit.positive and not is_builtin_predicate(lit.atom.pred)
            )
        ) if rule.body else frozenset()
    else:
        bound = derivable_variables(rule)

    head_vars = rule.head.variables()
    unsafe_head = head_vars - bound
    if unsafe_head:
        raise SafetyError(
            f"head variables {sorted(unsafe_head)} not bound by the body: "
            + format_rule(rule)
        )
    for lit in rule.negative_body():
        loose = lit.atom.variables() - bound
        if loose:
            raise SafetyError(
                f"variables {sorted(loose)} of negated literal not bound: "
                + format_rule(rule)
            )


def check_program(
    program: Program,
    allow_ldl15: bool = False,
    strict_safety: bool = False,
    strict_w3: bool = False,
) -> None:
    """Check every rule of ``program`` for well-formedness and safety."""
    for rule in program.rules:
        check_rule_wellformed(rule, allow_ldl15=allow_ldl15, strict_w3=strict_w3)
        check_rule_safe(rule, strict=strict_safety)
    _check_builtin_heads(program)
    _check_arities(program)


def _check_builtin_heads(program: Program) -> None:
    """Built-in predicates have fixed interpretations and cannot be
    redefined by user rules (Section 2.2)."""
    for rule in program.rules:
        if is_builtin_predicate(rule.head.pred):
            raise WellFormednessError(
                f"cannot define built-in predicate {rule.head.pred!r}: "
                + format_rule(rule)
            )


def predicate_arities(program: Program) -> dict[str, tuple[int, Rule]]:
    """The arity of every non-builtin predicate ``program`` uses, with
    the first rule that uses it."""
    arities: dict[str, tuple[int, Rule]] = {}
    for rule in program.rules:
        for atom in (rule.head, *(lit.atom for lit in rule.body)):
            if not is_builtin_predicate(atom.pred):
                arities.setdefault(atom.pred, (atom.arity, rule))
    return arities


def _check_arities(program: Program) -> None:
    """A predicate has one arity: every fact, head and body literal of
    it has the same number of arguments.  A literal of another arity
    would read columns its facts do not have."""
    arities = predicate_arities(program)
    for rule in program.rules:
        for atom in (rule.head, *(lit.atom for lit in rule.body)):
            seen = arities.get(atom.pred)
            if seen is not None and seen[0] != atom.arity:
                raise WellFormednessError(
                    f"{atom.pred} has arity {seen[0]} in {format_rule(seen[1])} "
                    f"but {atom.arity} in {format_rule(rule)}"
                )


def check_fact_arities(
    arities: dict[str, tuple[int, Rule]], atoms: Sequence[Atom]
) -> set[str]:
    """Raise :class:`WellFormednessError` for a fact of a predicate
    that the program (its :func:`predicate_arities`) uses with another
    arity: no literal of the program could read it.  Returns the
    predicates of ``atoms``.  When the program uses those it knows with
    one arity and every fact has that arity, two cheap passes over the
    facts decide; otherwise each fact's predicate and arity are checked
    as a pair."""
    preds = {atom.pred for atom in atoms}
    wanted = {arities[pred][0] for pred in preds if pred in arities}
    if not wanted or (
        len(wanted) == 1 and {len(atom.args) for atom in atoms} == wanted
    ):
        return preds
    check_arity_pairs(arities, {(atom.pred, len(atom.args)) for atom in atoms})
    return preds


def check_arity_pairs(
    arities: dict[str, tuple[int, Rule]], pairs: Iterable[tuple[str, int]]
) -> None:
    """Raise :class:`WellFormednessError` for a ``(predicate, arity)``
    pair of stored facts whose predicate the program (its
    :func:`predicate_arities`) uses with another arity."""
    for pred, arity in pairs:
        seen = arities.get(pred)
        if seen is not None and seen[0] != arity:
            raise WellFormednessError(
                f"a fact of {pred} has {arity} arguments, but {pred} has "
                f"arity {seen[0]} in {format_rule(seen[1])}"
            )


def head_group_variable(rule: Rule) -> str | None:
    """The grouped variable name of a base-LDL1 grouping rule, or None."""
    positions = rule.head.group_positions()
    if not positions:
        return None
    inner = rule.head.args[positions[0]].inner
    from repro.terms.term import Var

    if isinstance(inner, Var):
        return inner.name
    return None
