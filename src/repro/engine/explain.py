"""Provenance: explain why a fact is in the computed model.

Reconstructs a derivation tree for a fact of the standard model by
matching it against rule heads and re-solving rule bodies, recursively.
Well-foundedness of the bottom-up fixpoint guarantees an acyclic
derivation exists for every derived fact; the search skips candidate
derivations that would use a fact to justify itself.

Negative premises are recorded as absences (they have no sub-tree —
their justification is the completed lower layer), grouping rules list
one premise per contributing body solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.compiled import compile_program
from repro.engine.context import EvalContext
from repro.engine.database import Database
from repro.engine.exec import enumerate_bindings
from repro.engine.grouping import apply_grouping_rule
from repro.engine.match import Binding, ground_atom, match_atom
from repro.names import is_builtin_predicate
from repro.program.rule import Atom, Program, Rule
from repro.terms.pretty import format_atom, format_rule


@dataclass
class Derivation:
    """One node of a derivation tree."""

    fact: Atom
    rule: Rule | None = None  # None: base (EDB) fact
    premises: tuple["Derivation", ...] = ()
    absences: tuple[Atom, ...] = ()  # satisfied negative literals

    def is_base(self) -> bool:
        return self.rule is None

    def depth(self) -> int:
        # iterative: derivations can be as deep as the model is large
        best = 0
        stack: list[tuple[Derivation, int]] = [(self, 1)]
        while stack:
            node, level = stack.pop()
            best = max(best, level)
            stack.extend((p, level + 1) for p in node.premises)
        return best

    def size(self) -> int:
        total = 0
        stack: list[Derivation] = [self]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.premises)
        return total

    def format(self, indent: int = 0) -> str:
        lines: list[str] = []
        stack: list[tuple[Derivation, int]] = [(self, indent)]
        while stack:
            node, level = stack.pop()
            pad = "  " * level
            line = f"{pad}{format_atom(node.fact)}"
            if node.rule is not None:
                line += f"   [{format_rule(node.rule)}]"
            lines.append(line)
            for absent in node.absences:
                lines.append(f"{pad}  ~{format_atom(absent)} (absent)")
            stack.extend(
                (premise, level + 1) for premise in reversed(node.premises)
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Derivation({format_atom(self.fact)}, depth={self.depth()})"


def explain(
    program: Program,
    db: Database,
    fact: Atom,
    context: EvalContext | None = None,
) -> Derivation | None:
    """Build a derivation tree for ``fact`` over the computed model
    ``db``; returns None when the fact is not in the model.

    Rule bodies re-solve with the compiled program's plans — the very
    plans evaluation used — unless ``context`` supplies another run's.
    Derivation depth is bounded by the model size, so the recursion
    limit is raised proportionally for the duration of the search.
    """
    from repro.util import deep_recursion

    ctx = context or EvalContext(db, compile_program(program).plans)
    with deep_recursion(60 * len(db) + 10_000):
        return _explain(program, db, fact, frozenset(), ctx)


def _explain(
    program: Program,
    db: Database,
    fact: Atom,
    forbidden: frozenset[Atom],
    ctx: EvalContext,
) -> Derivation | None:
    if fact not in db or fact in forbidden:
        return None
    if any(
        r.is_fact() and ground_atom(r.head, {}) == fact
        for r in program.rules_for(fact.pred)
    ):
        return Derivation(fact)  # a program ground fact
    rules = [r for r in program.rules_for(fact.pred) if not r.is_fact()]
    if not rules:
        return Derivation(fact)  # pure EDB fact

    blocked = forbidden | {fact}
    for rule in rules:
        if rule.is_grouping():
            derivation = _explain_grouping(
                program, db, fact, rule, blocked, ctx
            )
        else:
            derivation = _explain_plain(program, db, fact, rule, blocked, ctx)
        if derivation is not None:
            return derivation
    # present in the model but not derivable by any rule: an EDB-loaded
    # fact under a predicate that also has rules.  (A *derived* fact
    # always has a rank-minimal, cycle-free derivation, so the rule
    # search above cannot miss it.)
    return Derivation(fact)


def _justify_premises(
    program: Program,
    db: Database,
    rule: Rule,
    binding: Binding,
    blocked: frozenset[Atom],
    ctx: EvalContext,
) -> tuple[tuple[Derivation, ...], tuple[Atom, ...]] | None:
    premises: list[Derivation] = []
    absences: list[Atom] = []
    for lit in rule.body:
        if is_builtin_predicate(lit.atom.pred):
            continue
        ground = ground_atom(lit.atom, binding)
        if ground is None:
            return None
        if lit.negative:
            absences.append(ground)
            continue
        sub = _explain(program, db, ground, blocked, ctx)
        if sub is None:
            return None
        premises.append(sub)
    return tuple(premises), tuple(absences)


def _explain_plain(
    program: Program,
    db: Database,
    fact: Atom,
    rule: Rule,
    blocked: frozenset[Atom],
    ctx: EvalContext,
) -> Derivation | None:
    for head_binding in match_atom(rule.head, fact.args, {}):
        plan = ctx.plan_for(
            rule, initially_bound=frozenset(head_binding)
        )
        for binding in enumerate_bindings(db, plan, binding=head_binding):
            derived = ground_atom(rule.head, binding)
            if derived != fact:
                continue
            justified = _justify_premises(
                program, db, rule, binding, blocked, ctx
            )
            if justified is None:
                continue
            premises, absences = justified
            return Derivation(fact, rule, premises, absences)
    return None


def _explain_grouping(
    program: Program,
    db: Database,
    fact: Atom,
    rule: Rule,
    blocked: frozenset[Atom],
    ctx: EvalContext,
) -> Derivation | None:
    # recompute the rule's groups and locate the class producing `fact`
    if fact not in set(apply_grouping_rule(rule, db, context=ctx)):
        return None
    premises: list[Derivation] = []
    absences: list[Atom] = []
    seen_premises: set[Atom] = set()
    group_position = rule.head.group_positions()[0]
    for binding in enumerate_bindings(db, ctx.plan_for(rule)):
        derived_key = ground_atom(
            Atom(
                rule.head.pred,
                tuple(
                    arg
                    for i, arg in enumerate(rule.head.args)
                    if i != group_position
                ),
            ),
            binding,
        )
        fact_key = Atom(
            fact.pred,
            tuple(
                arg for i, arg in enumerate(fact.args) if i != group_position
            ),
        )
        if derived_key != fact_key:
            continue
        justified = _justify_premises(
            program, db, rule, binding, blocked, ctx
        )
        if justified is None:
            return None
        for premise in justified[0]:
            if premise.fact not in seen_premises:
                seen_premises.add(premise.fact)
                premises.append(premise)
        for absent in justified[1]:
            if absent not in absences:
                absences.append(absent)
    return Derivation(fact, rule, tuple(premises), tuple(absences))
