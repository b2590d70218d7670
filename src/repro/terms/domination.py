"""Domination orders on U-elements and U-facts (paper Section 2.4).

The paper replaces set-inclusion minimality with a *domination* order:

* **basic fact domination** — ``p(s1..sn) <= p(s1'..sn')`` iff for each
  argument position, set arguments are related by subset and non-set
  arguments are equal;
* **elaborate element domination** (the Remark) — recursive: equal
  terms, functor terms dominated argument-wise, and sets dominated by
  pointwise coverage (every element of the smaller set is dominated by
  some element of the larger);
* **set-of-facts domination** ``A <= B`` — derived from the submodel
  definition: there must be a *preserving* function ``rho`` and a subset
  ``B'' of B`` with ``rho(B'') = A``; since ``rho`` is a function this
  is exactly an injective matching of A into B along fact domination.

The injective matching is found by augmenting paths (Kuhn's algorithm):
the fact sets compared are small, so the simple search is enough.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.terms.term import Func, SetVal, Term


def element_dominated(a: Term, b: Term) -> bool:
    """Elaborate domination ``a <= b`` on U-elements (Section 2.4 Remark)."""
    if a == b:
        return True
    if isinstance(a, Func) and isinstance(b, Func):
        return (
            a.functor == b.functor
            and len(a.args) == len(b.args)
            and all(element_dominated(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, SetVal) and isinstance(b, SetVal):
        return all(
            any(element_dominated(x, y) for y in b.elements) for x in a.elements
        )
    return False


def _args_of(fact) -> Sequence[Term]:
    return fact.args


def fact_dominated(a, b, elaborate: bool = False) -> bool:
    """Fact domination ``a <= b`` on U-facts.

    With ``elaborate=False`` (the paper's primary definition) a set
    argument must be a subset of the corresponding argument and any
    other argument must be equal.  With ``elaborate=True`` every
    argument is compared with :func:`element_dominated`.
    """
    if a.pred != b.pred or len(_args_of(a)) != len(_args_of(b)):
        return False
    for x, y in zip(_args_of(a), _args_of(b)):
        if elaborate:
            if not element_dominated(x, y):
                return False
        elif isinstance(x, SetVal) and isinstance(y, SetVal):
            if not x.elements <= y.elements:
                return False
        elif x != y:
            return False
    return True


def factset_dominated(
    a_facts: Iterable,
    b_facts: Iterable,
    elaborate: bool = False,
    dominates: Callable | None = None,
) -> bool:
    """Set-of-facts domination ``A <= B`` via injective matching.

    True iff there is an injection ``phi: A -> B`` with
    ``fact_dominated(a, phi(a))`` for every ``a``.  This realizes the
    paper's "preserving function rho with rho(B'') = A" condition.  A
    custom ``dominates(a, b)`` predicate may replace fact domination.
    """
    a_list = list(a_facts)
    b_list = list(b_facts)
    if not a_list:
        return True
    if len(a_list) > len(b_list):
        return False
    if dominates is None:
        def dominates(x, y, _elab=elaborate):
            return fact_dominated(x, y, elaborate=_elab)

    candidates = [
        [j for j, fb in enumerate(b_list) if dominates(fa, fb)] for fa in a_list
    ]
    owner: dict[int, int] = {}  # matched b index -> a index
    # an a that finds no augmenting path now never will: stop there.
    return all(
        _augment(i, candidates, owner, set()) for i in range(len(a_list))
    )


def _augment(
    i: int, candidates: list[list[int]], owner: dict[int, int], seen: set[int]
) -> bool:
    """Match ``i``, re-matching along an augmenting path if need be."""
    for j in candidates[i]:
        if j not in seen:
            seen.add(j)
            if j not in owner or _augment(owner[j], candidates, owner, seen):
                owner[j] = i
                return True
    return False


def is_partial_order_sample(terms: Sequence[Term]) -> bool:
    """Check reflexivity/antisymmetry/transitivity of elaborate
    domination on a finite sample of U-elements.

    Used by property-based tests; returns False on the first violated
    axiom.  Antisymmetry holds on canonical U-elements because mutual
    set coverage of finite sets forces equality only in the basic order;
    for the elaborate order mutual domination may relate distinct terms
    (e.g. nested sets), so antisymmetry is only asserted for set-free
    terms.
    """
    for x in terms:
        if not element_dominated(x, x):
            return False
    for x in terms:
        for y in terms:
            for z in terms:
                if (
                    element_dominated(x, y)
                    and element_dominated(y, z)
                    and not element_dominated(x, z)
                ):
                    return False
    for x in terms:
        for y in terms:
            if (
                element_dominated(x, y)
                and element_dominated(y, x)
                and x != y
                and _set_free(x)
                and _set_free(y)
            ):
                return False
    return True


def _set_free(term: Term) -> bool:
    return not any(isinstance(t, SetVal) for t in term.walk())
