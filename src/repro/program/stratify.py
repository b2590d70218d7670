"""Admissibility and layering (stratification) — paper Section 3.1.

A *layering* of program P is a partition ``L0, ..., Lm`` of its
predicate symbols such that ``p >= q`` implies ``layer(p) >= layer(q)``
and ``p > q`` implies ``layer(p) > layer(q)``.  Lemma 3.1: P is
admissible iff a layering exists.  The canonical layering computed here
assigns each predicate the least layer index consistent with the
constraints; Theorem 2 guarantees any layering yields the same model,
and :func:`linear_layerings` produces alternatives for testing exactly
that.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from repro.errors import NotAdmissibleError
from repro.names import is_builtin_predicate
from repro.program.dependency import (
    Graph,
    SCCs,
    dependency_graph,
    rule_edges,
    strict_cycle,
    strongly_connected,
)
from repro.program.rule import Program, Rule


class Layering:
    """A validated layering: tuple of predicate layers, lowest first."""

    __slots__ = ("layers", "_index")

    def __init__(self, layers: Iterable[frozenset[str]]) -> None:
        self.layers = tuple(frozenset(layer) for layer in layers)
        self._index: dict[str, int] = {}
        for i, layer in enumerate(self.layers):
            for pred in layer:
                if pred in self._index:
                    raise ValueError(f"predicate {pred!r} in two layers")
                self._index[pred] = i

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.layers)

    def index(self, pred: str) -> int:
        """Layer index of ``pred``; unknown predicates sit in layer 0."""
        return self._index.get(pred, 0)

    def rules_in_layer(self, program: Program, i: int) -> tuple[Rule, ...]:
        """Rules whose head predicate lies in layer ``i``."""
        return tuple(
            r for r in program.rules if self.index(r.head.pred) == i
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Layering) and self.layers == other.layers

    def __repr__(self) -> str:
        parts = "; ".join(
            "{" + ", ".join(sorted(layer)) + "}" for layer in self.layers
        )
        return f"Layering([{parts}])"


def stratify(
    program: Program, graph: Graph | None = None, components: SCCs | None = None
) -> Layering:
    """Compute the canonical (least-index) layering of ``program``.

    ``graph`` and ``components`` reuse an already built
    :func:`dependency_graph` and its :func:`strongly_connected`.  Raises
    :class:`NotAdmissibleError` when no layering exists, naming the
    offending predicate cycle.
    """
    if graph is None:
        graph = dependency_graph(program)
    if components is None:
        components = strongly_connected(graph)
    cycle = strict_cycle(graph, components)
    if cycle is not None:
        raise NotAdmissibleError(
            "program is not admissible: strict dependency cycle through "
            + ", ".join(cycle),
            cycle=cycle,
        )
    # bottom-up, each component sits one above its highest strict
    # dependency and level with its highest other one.
    level: dict[str, int] = {}
    for component in components:
        best = 0
        for u in component:
            for v, strict in graph[u].items():
                if v not in component:
                    best = max(best, level[v] + strict)
        level.update(dict.fromkeys(component, best))
    if not level:
        return Layering([frozenset()])
    height = max(level.values())
    layers = [
        frozenset(p for p, l in level.items() if l == i)
        for i in range(height + 1)
    ]
    return Layering(layers)


def validate_layering(program: Program, layering: Layering) -> bool:
    """Check a user-supplied layering against the Section 3.1 conditions."""
    for rule in program.rules:
        for edge in rule_edges(rule):
            head_layer = layering.index(edge.head)
            body_layer = layering.index(edge.body)
            if edge.strict:
                if not head_layer > body_layer:
                    return False
            elif not head_layer >= body_layer:
                return False
    covered = set().union(*layering.layers) if layering.layers else set()
    wanted = {
        p for p in program.predicates() if not is_builtin_predicate(p)
    }
    return wanted <= covered


def linear_layerings(program: Program, limit: int = 10) -> list[Layering]:
    """Alternative valid layerings: one SCC per layer, per topological
    order of the condensation (used to exercise Theorem 2).

    Backtracks over the components whose dependencies are all placed,
    lowest index first, and stops at ``limit`` layerings.
    """
    graph = dependency_graph(program)
    components = strongly_connected(graph)
    if strict_cycle(graph, components) is not None:
        raise NotAdmissibleError("program is not admissible")
    owner = {p: i for i, c in enumerate(components) for p in c}
    needs = [
        {owner[v] for u in c for v in graph[u]} - {i}
        for i, c in enumerate(components)
    ]
    return [
        Layering(components[i] for i in order)
        for order in islice(_orders([], frozenset(), needs), limit)
    ]


def _orders(
    order: list[int], placed: frozenset[int], needs: list[set[int]]
) -> Iterator[list[int]]:
    """Every completion of ``order`` that places each index after the
    indexes it ``needs``."""
    if len(order) == len(needs):
        yield order
    for i in range(len(needs)):
        if i not in placed and needs[i] <= placed:
            yield from _orders(order + [i], placed | {i}, needs)
