"""Shared hypothesis strategies for LDL1 terms and workloads."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.program.rule import Atom, Program, Rule
from repro.terms.term import Const, Func, SetVal, Var
from repro.workloads.generator import (
    GeneratedProgram,
    GeneratorConfig,
    random_program,
)

#: Symbols drawn from a small pool so collisions (and therefore
#: interesting set overlaps) are common.
symbols = st.sampled_from(["a", "b", "c", "d", "foo", "bar"])

scalar_constants = st.one_of(
    st.integers(min_value=-20, max_value=20).map(Const),
    symbols.map(Const),
    st.sampled_from([0.5, 2.5, -1.25]).map(Const),
)


def _extend_ground(children: st.SearchStrategy) -> st.SearchStrategy:
    functors = st.sampled_from(["f", "g", "pair"])
    funcs = st.builds(
        lambda name, args: Func(name, args),
        functors,
        st.lists(children, min_size=1, max_size=3),
    )
    sets = st.builds(lambda items: SetVal(items), st.lists(children, max_size=4))
    return funcs | sets


#: Arbitrary canonical ground terms (members of the LDL1 universe).
ground_terms = st.recursive(scalar_constants, _extend_ground, max_leaves=12)

#: Ground terms whose leaves may also be quoted strings (equal to the
#: bare symbol, interned as a distinct representative).
quoted_ground_terms = st.recursive(
    scalar_constants | symbols.map(lambda name: Const(name, quoted=True)),
    _extend_ground,
    max_leaves=12,
)

#: Ground sets only.
ground_sets = st.builds(
    lambda items: SetVal(items), st.lists(ground_terms, max_size=5)
)

variables = st.sampled_from(["X", "Y", "Z", "W"]).map(Var)


def _extend_pattern(children: st.SearchStrategy) -> st.SearchStrategy:
    functors = st.sampled_from(["f", "g"])
    return st.builds(
        lambda name, args: Func(name, args),
        functors,
        st.lists(children, min_size=1, max_size=3),
    )


#: Terms that may contain variables (no set patterns: those are covered
#: by dedicated tests since their matching is nondeterministic).
pattern_terms = st.recursive(
    scalar_constants | variables, _extend_pattern, max_leaves=8
)

#: Plain Python scalars accepted by :func:`repro.api.to_term`.  Floats
#: come from a fixed exactly-representable pool so equality round-trips.
python_scalars = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.sampled_from(["a", "b", "c", "foo", "bar"]),
    st.sampled_from([0.5, 2.5, -1.25]),
)


def _extend_python(children: st.SearchStrategy) -> st.SearchStrategy:
    # 1-tuples included on purpose: they must stay tuples through the
    # to_term/from_term round trip, not collapse to their element.
    tuples = st.lists(children, min_size=1, max_size=3).map(tuple)
    sets = st.lists(children, max_size=3).map(frozenset)
    return tuples | sets


#: Arbitrary Python values convertible by :func:`repro.api.to_term`:
#: scalars, non-empty tuples, and frozensets, nested freely.
python_values = st.recursive(python_scalars, _extend_python, max_leaves=10)


def generated_program(seed: int) -> GeneratedProgram:
    """The program :data:`generated_programs` draws for ``seed`` (for
    pinning a found example with ``@example``)."""
    return random_program(
        seed,
        GeneratorConfig(negation_probability=0.4, grouping_probability=0.35),
    )


#: Random admissible programs (with their base facts), negation and
#: grouping turned up so stratified features are exercised often.
#: Backed by the seeded workload generator, so shrinking reduces to
#: smaller seeds rather than structurally smaller programs — acceptable
#: for differential tests whose failures are rerun by seed.
generated_programs = st.builds(
    generated_program, st.integers(min_value=0, max_value=100_000)
)


def dense_recursive_program(seed: int) -> GeneratedProgram:
    """A generated program whose recursive predicates are non-empty and
    dense.  The generator's recursive rule ``p(X, Z) <- b(X, Y), ...,
    p(Y, Z)`` is the only rule for ``p``, so its least fixpoint is
    empty; an exit rule ``p(X, Y) <- b(X, Y)`` on the same binder gives
    it a base case, and a small constant pool with many base facts
    makes the closures dense enough for one deletion to condemn a large
    share of them."""
    generated = random_program(
        seed,
        GeneratorConfig(
            negation_probability=0.4, grouping_probability=0.35,
            recursion_probability=0.9, constants=5, edb_facts=30,
        ),
    )
    rules = list(generated.program.rules)
    for rule in generated.program.rules:
        if rule.body[-1].atom.pred == rule.head.pred:
            binder = rule.body[0].atom
            rules.append(
                Rule(Atom(rule.head.pred, binder.args), [rule.body[0]])
            )
    return GeneratedProgram(Program(rules), generated.edb)


@st.composite
def update_scripts(draw, max_ops: int = 6, dense: bool = False):
    """A generated program plus an interleaved insert/delete script.

    Returns ``(generated, initial, ops)`` where ``initial`` is the
    subset of the generated EDB the model starts from and ``ops`` is a
    list of ``("add" | "remove", [atoms...])`` steps drawn from the
    same fact pool.  Removals are drawn twice as often as insertions so
    deletion paths (overdelete/rederive, negation flips, group
    shrinkage) dominate; atoms repeat across steps on purpose, so
    no-op inserts and deletes of absent facts occur too.  ``dense``
    draws :func:`dense_recursive_program` programs instead, starts from
    the whole fact pool and runs at least two steps, so deletions
    inside recursive components are frequent and large.
    """
    if dense:
        generated = draw(st.builds(
            dense_recursive_program, st.integers(min_value=0, max_value=100_000)
        ))
        pool = initial = list(dict.fromkeys(generated.edb))
    else:
        generated = draw(generated_programs)
        pool = list(dict.fromkeys(generated.edb))
        initial = pool[: draw(st.integers(min_value=0, max_value=len(pool)))]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "remove"]),
                st.lists(
                    st.sampled_from(pool),
                    min_size=1,
                    max_size=4,
                    unique=True,
                ),
            ),
            min_size=2 if dense else 0,
            max_size=max_ops,
        )
    )
    return generated, initial, ops
