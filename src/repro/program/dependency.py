"""Predicate dependency graph with the paper's ``>=`` / ``>`` relations.

Section 3.1 defines, for a program P:

1. ``p >= q`` — some rule has head symbol ``p`` with no ``<X>`` in the
   head and ``q`` occurs non-negated in the body;
2. ``p > q`` — some rule has head ``p`` *with* ``<X>`` in the head and
   ``q`` occurs (in any polarity) in the body;
3. ``p > q`` — ``q`` occurs negated in the body of a rule with head
   ``p``.

``P`` is *admissible* iff there is no cycle through a strict (``>``)
edge.  Built-in predicates have fixed interpretations and take no part
in the relation.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import networkx as nx

from repro.names import is_builtin_predicate
from repro.program.rule import Program, Rule


class DependencyEdge(NamedTuple):
    """An edge ``head -> body-predicate`` with its strictness."""

    head: str
    body: str
    strict: bool
    rule: Rule


def rule_edges(rule: Rule) -> Iterator[DependencyEdge]:
    """Yield the dependency edges contributed by one rule."""
    grouping = rule.is_grouping()
    for lit in rule.body:
        if is_builtin_predicate(lit.atom.pred):
            continue
        strict = grouping or lit.negative
        yield DependencyEdge(rule.head.pred, lit.atom.pred, strict, rule)


def dependency_graph(program: Program) -> nx.DiGraph:
    """Directed graph: node per predicate, edge head -> body predicate.

    Edge attribute ``strict`` is True when *any* rule forces ``>``
    between the pair.  All predicates of the program appear as nodes,
    including EDB predicates (no outgoing edges) — built-ins excluded.
    """
    graph = nx.DiGraph()
    for pred in program.predicates():
        if not is_builtin_predicate(pred):
            graph.add_node(pred)
    for rule in program.rules:
        for edge in rule_edges(rule):
            if graph.has_edge(edge.head, edge.body):
                graph[edge.head][edge.body]["strict"] |= edge.strict
            else:
                graph.add_edge(edge.head, edge.body, strict=edge.strict)
    return graph


def strict_cycle(graph: nx.DiGraph) -> tuple[str, ...] | None:
    """Return a predicate cycle through a strict edge, or None.

    A strict edge inside a strongly connected component witnesses
    inadmissibility; the returned tuple is the offending SCC ordered
    deterministically, for error messages.
    """
    for component in nx.strongly_connected_components(graph):
        for u in component:
            for v in graph.successors(u):
                if v in component and graph[u][v]["strict"]:
                    return tuple(sorted(component))
    return None


def is_admissible(program: Program) -> bool:
    """True iff the program can be layered (Lemma 3.1)."""
    return strict_cycle(dependency_graph(program)) is None


def depends_on(program: Program, pred: str) -> frozenset[str]:
    """All predicates ``pred`` transitively depends on (excl. built-ins)."""
    graph = dependency_graph(program)
    if pred not in graph:
        return frozenset()
    return frozenset(nx.descendants(graph, pred))


class SCCComponent(NamedTuple):
    """One strongly connected component of the dependency graph.

    ``recursive`` is True when the component's rules can feed
    themselves — more than one predicate, or a self-loop.  ``rules``
    holds the program's non-fact rules whose head lies in ``preds``
    (empty for pure EDB components).
    """

    preds: frozenset[str]
    recursive: bool
    rules: tuple[Rule, ...]


def condense_program(
    program: Program, graph: nx.DiGraph | None = None
) -> list[SCCComponent]:
    """SCCs of the dependency graph in bottom-up evaluation order.

    The returned list is topologically ordered so that every predicate a
    component depends on lives in an *earlier* component (dependency
    edges run head → body, so the condensation's topological order is
    reversed).  Theorem 2 licenses the move: the minimal model does not
    depend on the layering, so each SCC may be evaluated as its own —
    much smaller — fixpoint, and non-recursive SCCs need only a single
    rule application each.
    """
    if graph is None:
        graph = dependency_graph(program)
    rules_by_head: dict[str, list[Rule]] = {}
    for rule in program.rules:
        if not rule.is_fact():
            rules_by_head.setdefault(rule.head.pred, []).append(rule)
    condensation = nx.condensation(graph)
    components: list[SCCComponent] = []
    for node in reversed(list(nx.topological_sort(condensation))):
        members = frozenset(condensation.nodes[node]["members"])
        recursive = len(members) > 1 or any(
            graph.has_edge(p, p) for p in members
        )
        rules = tuple(
            r
            for pred in sorted(members)
            for r in rules_by_head.get(pred, ())
        )
        components.append(SCCComponent(members, recursive, rules))
    return components


def scc_schedule(
    program: Program, layering, graph: nx.DiGraph | None = None
) -> list[list[SCCComponent]]:
    """Per-layer evaluation schedule: SCCs in dependency order.

    An SCC never spans layers (mutually dependent predicates satisfy
    ``p >= q`` and ``q >= p``, forcing equal layer indexes under any
    valid layering), so each component of :func:`condense_program` is
    assigned to the layer of its predicates; within a layer the
    components keep their topological order.  Components without rules
    (EDB-only predicates) are dropped — there is nothing to run.
    """
    schedule: list[list[SCCComponent]] = [[] for _ in range(len(layering))]
    for component in condense_program(program, graph):
        if not component.rules:
            continue
        layer = layering.index(next(iter(component.preds)))
        schedule[layer].append(component)
    return schedule
