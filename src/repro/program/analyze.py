"""Static program analysis report.

Summarizes what a program *is* before running it: predicate roles
(EDB/IDB/built-in usage), rule shapes (facts, recursive, grouping,
negated), the layering, and the strongly connected recursion
components.  Backs the CLI's ``--check`` output and is handy in tests
and notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.names import is_builtin_predicate
from repro.program.dependency import (
    condense_program,
    dependency_graph,
    strongly_connected,
)
from repro.program.rule import Program
from repro.program.stratify import Layering, stratify


@dataclass
class PredicateInfo:
    """Role and usage of one predicate."""

    name: str
    arity: int
    kind: str  # "edb" | "idb"
    layer: int
    rule_count: int = 0
    fact_count: int = 0
    negated_uses: int = 0
    grouped_over: bool = False


@dataclass
class ProgramReport:
    """The full analysis result."""

    rule_count: int
    fact_count: int
    layering: Layering
    predicates: dict[str, PredicateInfo] = field(default_factory=dict)
    recursive_components: list[frozenset[str]] = field(default_factory=list)
    grouping_rules: int = 0
    negated_literals: int = 0
    builtin_literals: int = 0

    def format(self) -> str:
        lines = [
            f"{self.rule_count} rules ({self.fact_count} facts), "
            f"{len(self.layering)} layers, "
            f"{self.grouping_rules} grouping rules, "
            f"{self.negated_literals} negated literals, "
            f"{self.builtin_literals} built-in literals",
        ]
        for i, layer in enumerate(self.layering):
            members = ", ".join(
                f"{p}/{self.predicates[p].arity}" for p in sorted(layer)
            )
            lines.append(f"layer {i}: {members or '(empty)'}")
        if self.recursive_components:
            joined = "; ".join(
                "{" + ", ".join(sorted(c)) + "}"
                for c in self.recursive_components
            )
            lines.append(f"recursive components: {joined}")
        return "\n".join(lines)


def analyze(program: Program) -> ProgramReport:
    """Compute a :class:`ProgramReport` for an admissible program."""
    graph = dependency_graph(program)
    components = strongly_connected(graph)
    layering = stratify(program, graph, components)
    idb = program.idb_predicates()

    report = ProgramReport(
        rule_count=len(program),
        fact_count=len(program.facts()),
        layering=layering,
    )

    arities: dict[str, int] = {}
    for rule in program.rules:
        arities.setdefault(rule.head.pred, rule.head.arity)
        for lit in rule.body:
            if not is_builtin_predicate(lit.atom.pred):
                arities.setdefault(lit.atom.pred, lit.atom.arity)

    for pred, arity in arities.items():
        report.predicates[pred] = PredicateInfo(
            name=pred,
            arity=arity,
            kind="idb" if pred in idb else "edb",
            layer=layering.index(pred),
        )

    for rule in program.rules:
        info = report.predicates[rule.head.pred]
        if rule.is_fact():
            info.fact_count += 1
        else:
            info.rule_count += 1
        if rule.is_grouping():
            report.grouping_rules += 1
            for lit in rule.body:
                if not is_builtin_predicate(lit.atom.pred):
                    report.predicates[lit.atom.pred].grouped_over = True
        for lit in rule.body:
            if is_builtin_predicate(lit.atom.pred):
                report.builtin_literals += 1
                continue
            if lit.negative:
                report.negated_literals += 1
                report.predicates[lit.atom.pred].negated_uses += 1

    report.recursive_components = sorted(
        (c.preds for c in condense_program(program, graph, components) if c.recursive),
        key=sorted,
    )
    return report
