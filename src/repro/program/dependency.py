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

from typing import Iterable, Iterator, Mapping, NamedTuple

from repro.names import is_builtin_predicate
from repro.program.rule import Program, Rule

#: ``{head: {body: strict}}``: an edge per head -> body predicate pair.
Graph = dict[str, dict[str, bool]]
#: strongly connected components, bottom-up (:func:`strongly_connected`).
SCCs = list[frozenset[str]]


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


def dependency_graph(program: Program) -> Graph:
    """``{head: {body: strict}}``, one key per predicate of the program.

    ``strict`` is True when *any* rule forces ``>`` between the pair.
    Every predicate is a key, in order of first occurrence, including
    EDB predicates (an empty dict) — built-ins excluded.
    """
    graph: Graph = {}
    for rule in program.rules:
        if not is_builtin_predicate(rule.head.pred):
            graph.setdefault(rule.head.pred, {})
        for edge in rule_edges(rule):
            graph.setdefault(edge.body, {})
            bodies = graph.setdefault(edge.head, {})
            bodies[edge.body] = bodies.get(edge.body, False) or edge.strict
    return graph


def strongly_connected(graph: Graph) -> SCCs:
    """The SCCs of ``graph`` in bottom-up order, by iterative Tarjan.

    Tarjan emits a component only after every component it reaches, so
    with head -> body edges this deterministic list is the evaluation
    order.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}  # holds exactly the nodes on the stack
    stack: list[str] = []
    components: SCCs = []
    # depth first, one frame per open node; the bottom frame walks the
    # roots, and the stack is empty whenever it is on top.
    work: list[tuple[str | None, Iterator[str]]] = [(None, iter(graph))]
    while work:
        node, bodies = work[-1]
        for body in bodies:
            if body not in index:
                index[body] = low[body] = len(index)
                stack.append(body)
                work.append((body, iter(graph[body])))
                break
            if body in low:
                low[node] = min(low[node], index[body])
        else:
            work.pop()
            if node is None:
                break
            if low[node] < index[node]:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
                continue
            members = set()
            while node not in members:
                members.add(stack.pop())
            for member in members:
                del low[member]
            components.append(frozenset(members))
    return components


def strict_cycle(
    graph: Graph, components: SCCs | None = None
) -> tuple[str, ...] | None:
    """Return a predicate cycle through a strict edge, or None.

    A strict edge inside a strongly connected component witnesses
    inadmissibility; the returned tuple is the offending SCC ordered
    deterministically, for error messages.  ``components`` reuses an
    already computed :func:`strongly_connected`.
    """
    if components is None:
        components = strongly_connected(graph)
    for component in components:
        for u in component:
            for v, strict in graph[u].items():
                if strict and v in component:
                    return tuple(sorted(component))
    return None


def is_admissible(program: Program) -> bool:
    """True iff the program can be layered (Lemma 3.1)."""
    return strict_cycle(dependency_graph(program)) is None


def reachable(graph: Mapping[str, Iterable[str]], preds: Iterable[str]) -> set[str]:
    """``preds`` plus every predicate reachable from them along ``graph``."""
    seen = set(preds)
    todo = list(seen)
    while todo:
        for succ in graph.get(todo.pop(), ()):
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return seen


def reversed_graph(graph: Graph) -> Graph:
    """``graph`` with every edge turned round: ``{body: {head: strict}}``."""
    out: Graph = {node: {} for node in graph}
    for head, bodies in graph.items():
        for body, strict in bodies.items():
            out[body][head] = strict
    return out


def depends_on(program: Program, pred: str) -> frozenset[str]:
    """All predicates ``pred`` transitively depends on (excl. built-ins)."""
    graph = dependency_graph(program)
    if pred not in graph:
        return frozenset()
    return frozenset(reachable(graph, (pred,)) - {pred})


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
    program: Program, graph: Graph | None = None, components: SCCs | None = None
) -> list[SCCComponent]:
    """SCCs of the dependency graph in bottom-up evaluation order.

    Every predicate a component depends on lives in an *earlier*
    component (:func:`strongly_connected`; ``graph`` and ``components``
    reuse already computed ones).  Theorem 2 licenses the move: the
    minimal model does not depend on the layering, so each SCC may be
    evaluated as its own — much smaller — fixpoint, and non-recursive
    SCCs need only a single rule application each.
    """
    if graph is None:
        graph = dependency_graph(program)
    if components is None:
        components = strongly_connected(graph)
    rules_by_head: dict[str, list[Rule]] = {}
    for rule in program.rules:
        if not rule.is_fact():
            rules_by_head.setdefault(rule.head.pred, []).append(rule)
    return [
        SCCComponent(
            members,
            len(members) > 1 or any(p in graph[p] for p in members),
            tuple(
                r
                for pred in sorted(members)
                for r in rules_by_head.get(pred, ())
            ),
        )
        for members in components
    ]


def scc_schedule(
    program: Program,
    layering,
    graph: Graph | None = None,
    components: SCCs | None = None,
) -> list[list[SCCComponent]]:
    """Per-layer evaluation schedule: SCCs in dependency order.

    An SCC never spans layers (mutually dependent predicates satisfy
    ``p >= q`` and ``q >= p``, forcing equal layer indexes under any
    valid layering), so each component of :func:`condense_program` is
    assigned to the layer of its predicates; within a layer the
    components keep their bottom-up order.  Components without rules
    (EDB-only predicates) are dropped — there is nothing to run.
    """
    schedule: list[list[SCCComponent]] = [[] for _ in range(len(layering))]
    for component in condense_program(program, graph, components):
        if not component.rules:
            continue
        layer = layering.index(next(iter(component.preds)))
        schedule[layer].append(component)
    return schedule
