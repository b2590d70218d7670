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
from typing import Iterable, Iterator, Mapping

import networkx as nx

from repro.errors import NotAdmissibleError
from repro.names import is_builtin_predicate
from repro.program.dependency import dependency_graph, rule_edges, strict_cycle
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

    def as_mapping(self) -> Mapping[str, int]:
        return dict(self._index)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Layering) and self.layers == other.layers

    def __repr__(self) -> str:
        parts = "; ".join(
            "{" + ", ".join(sorted(layer)) + "}" for layer in self.layers
        )
        return f"Layering([{parts}])"


def stratify(program: Program, graph: nx.DiGraph | None = None) -> Layering:
    """Compute the canonical (least-index) layering of ``program``.

    ``graph`` reuses an already built :func:`dependency_graph`.  Raises
    :class:`NotAdmissibleError` when no layering exists, naming the
    offending predicate cycle.
    """
    if graph is None:
        graph = dependency_graph(program)
    cycle = strict_cycle(graph)
    if cycle is not None:
        raise NotAdmissibleError(
            "program is not admissible: strict dependency cycle through "
            + ", ".join(cycle),
            cycle=cycle,
        )
    condensation = nx.condensation(graph)
    level: dict[int, int] = {}
    for node in reversed(list(nx.topological_sort(condensation))):
        best = 0
        members = condensation.nodes[node]["members"]
        for succ in condensation.successors(node):
            bump = _any_strict_between(
                graph, members, condensation.nodes[succ]["members"]
            )
            best = max(best, level[succ] + (1 if bump else 0))
        level[node] = best
    pred_level: dict[str, int] = {}
    for node, lvl in level.items():
        for pred in condensation.nodes[node]["members"]:
            pred_level[pred] = lvl
    if not pred_level:
        return Layering([frozenset()])
    height = max(pred_level.values())
    layers = [
        frozenset(p for p, l in pred_level.items() if l == i)
        for i in range(height + 1)
    ]
    return Layering(layers)


def _any_strict_between(
    graph: nx.DiGraph, sources: Iterable[str], targets: Iterable[str]
) -> bool:
    target_set = set(targets)
    for u in sources:
        for v in graph.successors(u):
            if v in target_set and graph[u][v]["strict"]:
                return True
    return False


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

    Returns at most ``limit`` layerings, always including at least one.
    """
    graph = dependency_graph(program)
    if strict_cycle(graph) is not None:
        raise NotAdmissibleError("program is not admissible")
    condensation = nx.condensation(graph)
    reversed_condensation = condensation.reverse(copy=True)
    layerings: list[Layering] = []
    for order in islice(nx.all_topological_sorts(reversed_condensation), limit):
        layers = [
            frozenset(condensation.nodes[node]["members"]) for node in order
        ]
        candidate = Layering(layers)
        if validate_layering(program, candidate):
            layerings.append(candidate)
    return layerings
