"""Property-based tests for the dependency graph layer (paper §3.1).

The SCCs, the bottom-up order, the canonical levels, admissibility and
the enumerated layerings are checked against oracles read off a
brute-force transitive closure, which shares no code with
``repro.program.dependency`` or ``repro.program.stratify``.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotAdmissibleError
from repro.parser import parse_rules
from repro.program.dependency import (
    dependency_graph,
    reachable,
    strict_cycle,
    strongly_connected,
)
from repro.program.stratify import linear_layerings, stratify, validate_layering


@st.composite
def digraphs(draw, max_nodes=30):
    """``(nodes, edges)``: edges ``(u, v, strict)`` over ``nodes``, with
    self-loops and isolated nodes allowed."""
    n = draw(st.integers(1, max_nodes))
    nodes = [f"p{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
            unique=True,
        )
    )
    strict = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return nodes, [(nodes[u], nodes[v], s) for (u, v), s in zip(pairs, strict)]


def program_of(nodes, edges):
    """A program whose dependency graph is ``edges``: a positive body
    for ``>=``, a negated one for ``>``, and a fact per node."""
    rules = [f"{p}(1)." for p in nodes]
    for u, v, strict in edges:
        rules.append(f"{u}(X) <- {v}(X), ~{v}(X)." if strict else f"{u}(X) <- {v}(X).")
    return parse_rules("\n".join(rules))


def closure(nodes, edges):
    """``reach[u]``: every node reachable from ``u`` by one or more edges."""
    reach = {u: {v for a, v, _ in edges if a == u} for u in nodes}
    changed = True
    while changed:
        changed = False
        for u in nodes:
            more = set().union(*(reach[v] for v in reach[u])) - reach[u]
            if more:
                reach[u] |= more
                changed = True
    return reach


def strict_edges(edges):
    """Collapsed edges: strict when any parallel edge is."""
    out = {}
    for u, v, strict in edges:
        out[u, v] = out.get((u, v), False) or strict
    return out


def closure_sccs(nodes, reach):
    return {
        u: frozenset({u} | {v for v in reach[u] if u in reach[v]}) for u in nodes
    }


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_sccs_and_bottom_up_order_match_the_closure(graph_spec):
    nodes, edges = graph_spec
    graph = dependency_graph(program_of(nodes, edges))
    assert set(graph) == set(nodes)
    assert {(u, v): s for u in graph for v, s in graph[u].items()} == strict_edges(
        edges
    )
    reach = closure(nodes, edges)
    components = strongly_connected(graph)
    assert strongly_connected(graph) == components  # deterministic
    members = [p for c in components for p in c]
    assert sorted(members) == sorted(nodes)  # a partition
    expected = closure_sccs(nodes, reach)
    position = {}
    for i, component in enumerate(components):
        for p in component:
            assert expected[p] == component
            position[p] = i
    for u, v, _ in edges:
        assert position[v] <= position[u]  # dependencies come first
    for u in nodes:
        assert reachable(graph, [u]) == reach[u] | {u}


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_levels_are_longest_strict_paths(graph_spec):
    nodes, edges = graph_spec
    program = program_of(nodes, edges)
    reach = closure(nodes, edges)
    collapsed = strict_edges(edges)
    on_cycle = [(u, v) for (u, v), s in collapsed.items() if s and u in reach[v]]
    if on_cycle:
        cycle = strict_cycle(dependency_graph(program))
        sccs = closure_sccs(nodes, reach)
        assert cycle is not None
        assert frozenset(cycle) == sccs[cycle[0]]
        assert any(frozenset(cycle) == sccs[u] for u, _ in on_cycle)
        with pytest.raises(NotAdmissibleError):
            stratify(program)
        return
    # no strict edge on a cycle: Bellman-Ford style relaxation reaches
    # the longest strict-edge count along any path.
    level = dict.fromkeys(nodes, 0)
    for _ in range(len(nodes) + 1):
        for (u, v), s in collapsed.items():
            level[u] = max(level[u], level[v] + s)
    layering = stratify(program)
    assert {p: layering.index(p) for p in nodes} == level
    assert len(layering) == max(level.values()) + 1


def _topological_orders(sccs, edges):
    """Every order of ``sccs`` that puts each dependency first."""
    count = 0
    for order in permutations(sccs):
        at = {p: i for i, c in enumerate(order) for p in c}
        if all(at[v] <= at[u] for u, v, _ in edges):
            count += 1
    return count


@given(digraphs(max_nodes=8), st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_linear_layerings_are_valid_distinct_and_bounded(graph_spec, limit):
    nodes, edges = graph_spec
    program = program_of(nodes, edges)
    reach = closure(nodes, edges)
    if any(s and u in reach[v] for (u, v), s in strict_edges(edges).items()):
        with pytest.raises(NotAdmissibleError):
            linear_layerings(program, limit)
        return
    layerings = linear_layerings(program, limit)
    assert len(layerings) <= limit
    assert len({layering.layers for layering in layerings}) == len(layerings)
    for layering in layerings:
        assert validate_layering(program, layering)
    sccs = set(closure_sccs(nodes, reach).values())
    if len(sccs) <= 6:
        assert len(layerings) == min(limit, _topological_orders(sccs, edges))
