"""Tests for dependency analysis and layering (paper §3.1)."""

import pytest

from repro.errors import NotAdmissibleError
from repro.parser import parse_rules
from repro.program.dependency import (
    dependency_graph,
    depends_on,
    is_admissible,
    strict_cycle,
)
from repro.program.stratify import (
    Layering,
    linear_layerings,
    stratify,
    validate_layering,
)


class TestDependencyGraph:
    def test_positive_body_gives_ge_edge(self):
        program = parse_rules("p(X) <- q(X).")
        graph = dependency_graph(program)
        assert "q" in graph["p"]
        assert not graph["p"]["q"]

    def test_negation_gives_strict_edge(self):
        program = parse_rules("p(X) <- q(X), ~r(X).")
        graph = dependency_graph(program)
        assert graph["p"]["r"]
        assert not graph["p"]["q"]

    def test_grouping_head_makes_all_edges_strict(self):
        program = parse_rules("p(X, <Y>) <- q(X, Y), r(X).")
        graph = dependency_graph(program)
        assert graph["p"]["q"]
        assert graph["p"]["r"]

    def test_builtins_excluded(self):
        program = parse_rules("p(X) <- q(X), member(X, {1}).")
        graph = dependency_graph(program)
        assert "member" not in graph

    def test_strict_wins_on_collapsed_edges(self):
        program = parse_rules("p(X) <- q(X). p(X) <- r(X), ~q(X).")
        graph = dependency_graph(program)
        assert graph["p"]["q"]

    def test_depends_on_transitive(self):
        program = parse_rules("a(X) <- b(X). b(X) <- c(X). c(1).")
        assert depends_on(program, "a") == {"b", "c"}


class TestAdmissibility:
    def test_recursion_without_negation_admissible(self):
        program = parse_rules(
            "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."
        )
        assert is_admissible(program)

    def test_paper_even_program_inadmissible(self):
        # even must lie strictly below itself: impossible (paper §1).
        program = parse_rules(
            """
            int(0).
            int(s(X)) <- int(X).
            even(0).
            even(s(X)) <- int(X), ~even(X).
            """
        )
        assert not is_admissible(program)
        cycle = strict_cycle(dependency_graph(program))
        assert cycle == ("even",)

    def test_grouping_self_recursion_inadmissible(self):
        # the paper's Russell-style program p(<X>) <- p(X).
        program = parse_rules("p(<X>) <- p(X).")
        assert not is_admissible(program)

    def test_mutual_negation_inadmissible(self):
        program = parse_rules("p(X) <- b(X), ~q(X). q(X) <- b(X), ~p(X).")
        assert not is_admissible(program)

    def test_negation_of_lower_predicate_admissible(self):
        program = parse_rules(
            """
            anc(X, Y) <- par(X, Y).
            anc(X, Y) <- par(X, Z), anc(Z, Y).
            excl(X, Y, Z) <- anc(X, Y), person(Z), ~anc(X, Z).
            """
        )
        assert is_admissible(program)


class TestStratify:
    def test_two_layer_paper_example(self):
        program = parse_rules(
            """
            ancestor(X, Y) <- parent(X, Y).
            ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
            excl(X, Y, Z) <- ancestor(X, Y), person(Z), ~ancestor(X, Z).
            """
        )
        layering = stratify(program)
        assert layering.index("parent") == 0
        assert layering.index("ancestor") == 0
        assert layering.index("excl") == 1

    def test_grouping_forces_new_layer(self):
        program = parse_rules("part(P, <S>) <- p(P, S).")
        layering = stratify(program)
        assert layering.index("part") == layering.index("p") + 1

    def test_chained_strict_layers(self):
        program = parse_rules(
            """
            g1(X, <Y>) <- base(X, Y).
            g2(X, <Y>) <- g1(X, Y).
            top(X) <- g2(X, S), ~g1(X, S).
            """
        )
        layering = stratify(program)
        assert layering.index("base") == 0
        assert layering.index("g1") == 1
        assert layering.index("g2") == 2
        # top >= g2 and top > g1: the least consistent layer is 2,
        # sharing a layer with g2.
        assert layering.index("top") == 2

    def test_inadmissible_raises(self):
        program = parse_rules("p(<X>) <- p(X).")
        with pytest.raises(NotAdmissibleError):
            stratify(program)

    def test_rules_in_layer(self):
        program = parse_rules("p(1). q(X) <- p(X), ~r(X). r(2).")
        layering = stratify(program)
        heads = {
            r.head.pred
            for r in layering.rules_in_layer(program, layering.index("q"))
        }
        assert "q" in heads

    def test_canonical_layering_validates(self):
        program = parse_rules(
            "a(X) <- b(X). b(X) <- c(X), ~d(X). c(1). d(2)."
        )
        assert validate_layering(program, stratify(program))

    def test_invalid_layering_detected(self):
        program = parse_rules("p(X) <- q(X), ~r(X). q(1). r(1).")
        bad = Layering([frozenset({"p"}), frozenset({"q", "r"})])
        assert not validate_layering(program, bad)

    def test_predicate_in_two_layers_rejected(self):
        with pytest.raises(ValueError):
            Layering([frozenset({"p"}), frozenset({"p"})])


class TestAlternativeLayerings:
    def test_linear_layerings_all_valid(self):
        program = parse_rules(
            """
            anc(X, Y) <- par(X, Y).
            anc(X, Y) <- par(X, Z), anc(Z, Y).
            lonely(X) <- person(X), ~anc(X, X).
            grouped(X, <Y>) <- anc(X, Y).
            """
        )
        layerings = linear_layerings(program, limit=6)
        assert layerings
        for layering in layerings:
            assert validate_layering(program, layering)

    def test_multiple_distinct_layerings_exist(self):
        # Two independent strata can be linearized in either order.
        program = parse_rules(
            "a(X) <- b(X), ~c(X). d(X) <- e(X), ~f(X). b(1). c(1). e(1). f(1)."
        )
        layerings = linear_layerings(program, limit=10)
        assert len(layerings) > 1
