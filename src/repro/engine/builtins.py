"""Built-in predicate evaluation (paper Sections 2.1–2.2).

Each built-in is evaluated against a binding, yielding zero or more
extended bindings.  Set-valued built-ins follow the Section 2.2
restrictions: they are true only when their arguments are sets in U.
Generative modes (``partition`` of a bound set, decomposition of a
bound ``union``, subset enumeration) are exponential in the set size by
nature; a safety cap guards against runaway enumeration.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Mapping

from repro.engine.binding import as_chain, extended
from repro.engine.match import Binding, match_term_chain
from repro.errors import EvaluationError, NotInUniverseError
from repro.terms.term import (
    Const,
    SetVal,
    Term,
    Var,
    _ID_TABLE,
    evaluate_ground,
    row_id,
    set_rid,
)


def _match(pattern: Term, value: Term, binding: Mapping[str, Term]):
    """Chain-based match: no dict copy per extension (see match.py)."""
    return match_term_chain(pattern, value, as_chain(binding))

#: Largest set for which exponential generative modes are allowed.
MAX_ENUMERATED_SET = 20


def _try_ground(term: Term, binding: Mapping[str, Term]) -> Term | None:
    """Evaluate ``term`` under ``binding`` to a U-element, or None.

    The dominant shapes — a variable bound to an already-canonical
    value, or a canonical constant — skip substitution entirely: values
    flowing out of the database are interned, so one ``_interned``
    check replaces substitute + groundness walk + re-evaluation.
    """
    if type(term) is Var:
        substituted = binding.get(term.name)
        if substituted is None:
            return None
    else:
        substituted = term
    if substituted._interned:
        return substituted
    if substituted is term and not term.is_ground():
        # only substitute when there is something to substitute: the
        # plan runner already pre-substitutes builtin arguments, so a
        # non-variable term here is usually ground.
        substituted = term.substitute(binding)
    if not substituted.is_ground():
        return None
    try:
        return evaluate_ground(substituted)
    except (NotInUniverseError, EvaluationError):
        return None


#: Sentinel: the argument is bound/ground but does not denote a set.
#: Section 2.2 makes set built-ins *false* (not erroneous) in that case.
_NOT_A_SET = object()


def _set_status(term: Term, binding: Mapping[str, Term]):
    """SetVal, None (still unbound), or ``_NOT_A_SET`` (bound, non-set).

    Same fast paths as :func:`_try_ground`: an interned value answers
    with one flag check and an ``isinstance``.
    """
    if type(term) is Var:
        substituted = binding.get(term.name)
        if substituted is None:
            return None
    else:
        substituted = term
    if substituted._interned:
        return substituted if isinstance(substituted, SetVal) else _NOT_A_SET
    if substituted is term and not term.is_ground():
        substituted = term.substitute(binding)
    if not substituted.is_ground():
        return None
    try:
        value = evaluate_ground(substituted)
    except (NotInUniverseError, EvaluationError):
        return _NOT_A_SET
    return value if isinstance(value, SetVal) else _NOT_A_SET


def _require_set(value: Term | None) -> SetVal | None:
    return value if isinstance(value, SetVal) else None


def _subsets(elements: frozenset[Term]) -> Iterator[frozenset[Term]]:
    if len(elements) > MAX_ENUMERATED_SET:
        raise EvaluationError(
            f"refusing to enumerate subsets of a {len(elements)}-element set "
            f"(cap {MAX_ENUMERATED_SET})"
        )
    ordered = sorted(elements, key=lambda t: t.sort_key())
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            yield frozenset(combo)


def solve_builtin(pred: str, args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    """Evaluate one built-in literal; yields extended bindings.

    Raises :class:`EvaluationError` when no supported mode applies
    (e.g. all arguments unbound) — the rule planner should have ordered
    literals so this cannot happen for safe rules.
    """
    handler = _HANDLERS.get(pred)
    if handler is None:
        raise EvaluationError(f"unknown built-in predicate {pred!r}")
    yield from handler(args, binding)


def _solve_member(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    element_pattern, set_term = args
    value = _try_ground(set_term, binding)
    if value is None:
        raise EvaluationError("member/2 needs its second argument bound")
    if not isinstance(value, SetVal):
        return  # Section 2.2: member is false when S is not a set.
    for element in value:
        yield from _match(element_pattern, element, binding)


def _solve_union(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    statuses = [_set_status(a, binding) for a in args]
    if any(s is _NOT_A_SET for s in statuses):
        return  # Section 2.2: union is false unless all three are sets
    s1_val, s2_val, s3_val = statuses
    if s1_val is not None and s2_val is not None:
        result = SetVal.from_ground(s1_val.elements | s2_val.elements)
        yield from _match(args[2], result, binding)
        return
    if s3_val is not None:
        if s1_val is not None:
            if not s1_val.elements <= s3_val.elements:
                return
            mandatory = s3_val.elements - s1_val.elements
            for extra in _subsets(s1_val.elements):
                candidate = SetVal.from_ground(mandatory | extra)
                yield from _match(args[1], candidate, binding)
            return
        if s2_val is not None:
            if not s2_val.elements <= s3_val.elements:
                return
            mandatory = s3_val.elements - s2_val.elements
            for extra in _subsets(s2_val.elements):
                candidate = SetVal.from_ground(mandatory | extra)
                yield from _match(args[0], candidate, binding)
            return
        for left in _subsets(s3_val.elements):
            mandatory = s3_val.elements - left
            for extra in _subsets(left):
                for ext in _match(args[0], SetVal.from_ground(left), binding):
                    yield from _match(
                        args[1], SetVal.from_ground(mandatory | extra), ext
                    )
        return
    raise EvaluationError("union/3 needs two operands or the union bound")


#: Memoized (part, complement) splits per whole set.  Partition-driven
#: divide-and-conquer (e.g. the parts-explosion TC program) re-splits
#: the same subassembly set once per containing binding; enumerating
#: subsets is O(2^n · n log n), so the splits are worth keeping.  The
#: pair SetVals come from the row-ID set constructor, so downstream
#: matches and head instantiation share one object per distinct split.
_PARTITION_CACHE: dict[frozenset, tuple] = {}
_PARTITION_CACHE_MAX = 4096


def _partition_pairs(elements: frozenset) -> tuple:
    pairs = _PARTITION_CACHE.get(elements)
    if pairs is None:
        pairs = tuple(
            (
                _ID_TABLE[set_rid(map(row_id, part))],
                _ID_TABLE[set_rid(map(row_id, elements - part))],
            )
            for part in _subsets(elements)
        )
        if len(_PARTITION_CACHE) < _PARTITION_CACHE_MAX:
            _PARTITION_CACHE[elements] = pairs
    return pairs


def _solve_partition(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    statuses = [_set_status(a, binding) for a in args]
    if any(s is _NOT_A_SET for s in statuses):
        return  # false unless all three are sets
    whole, left, right = statuses
    if whole is not None:
        for part, complement in _partition_pairs(whole.elements):
            for ext in _match(args[1], part, binding):
                yield from _match(args[2], complement, ext)
        return
    if left is not None and right is not None:
        if left.elements & right.elements:
            return
        union = SetVal.from_ground(left.elements | right.elements)
        yield from _match(args[0], union, binding)
        return
    raise EvaluationError("partition/3 needs the whole set or both parts bound")


def _solve_subset(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    sub = _set_status(args[0], binding)
    super_ = _set_status(args[1], binding)
    if sub is _NOT_A_SET or super_ is _NOT_A_SET:
        return  # false unless both are sets
    if super_ is None:
        raise EvaluationError("subset/2 needs its second argument bound")
    if sub is not None:
        if sub.elements <= super_.elements:
            yield extended(binding)
        return
    for candidate in _subsets(super_.elements):
        yield from _match(args[0], SetVal.from_ground(candidate), binding)


def _solve_card(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    the_set = _set_status(args[0], binding)
    if the_set is _NOT_A_SET:
        return  # false when the argument is not a set
    if the_set is None:
        raise EvaluationError("card/2 needs its first argument bound")
    yield from _match(args[1], Const(len(the_set)), binding)


def _solve_eq(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    left = _try_ground(args[0], binding)
    right = _try_ground(args[1], binding)
    if left is not None and right is not None:
        if left == right:
            yield extended(binding)
        return
    if left is not None:
        yield from _match(args[1], left, binding)
        return
    if right is not None:
        yield from _match(args[0], right, binding)
        return
    raise EvaluationError("=/2 needs at least one side bound")


def _solve_ne(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    left = _try_ground(args[0], binding)
    right = _try_ground(args[1], binding)
    if left is None or right is None:
        raise EvaluationError("!=/2 needs both sides bound")
    if left != right:
        yield extended(binding)


def _comparable(value: Term):
    if isinstance(value, Const):
        return value.value
    raise EvaluationError(f"cannot order non-scalar term {value!r}")


def _make_comparison(op):
    def handler(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
        left = _try_ground(args[0], binding)
        right = _try_ground(args[1], binding)
        if left is None or right is None:
            raise EvaluationError("comparison needs both sides bound")
        left_value = _comparable(left)
        right_value = _comparable(right)
        if isinstance(left_value, str) != isinstance(right_value, str):
            raise EvaluationError(
                f"cannot compare {left_value!r} with {right_value!r}"
            )
        if op(left_value, right_value):
            yield extended(binding)

    return handler


def _solve_intersection(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    s1 = _set_status(args[0], binding)
    s2 = _set_status(args[1], binding)
    if s1 is _NOT_A_SET or s2 is _NOT_A_SET or _set_status(args[2], binding) is _NOT_A_SET:
        return
    if s1 is None or s2 is None:
        raise EvaluationError("intersection/3 needs both operands bound")
    result = SetVal.from_ground(s1.elements & s2.elements)
    yield from _match(args[2], result, binding)


def _solve_difference(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
    s1 = _set_status(args[0], binding)
    s2 = _set_status(args[1], binding)
    if s1 is _NOT_A_SET or s2 is _NOT_A_SET or _set_status(args[2], binding) is _NOT_A_SET:
        return
    if s1 is None or s2 is None:
        raise EvaluationError("difference/3 needs both operands bound")
    result = SetVal.from_ground(s1.elements - s2.elements)
    yield from _match(args[2], result, binding)


def _numeric_elements(the_set: SetVal) -> list:
    values = []
    for element in the_set:
        if not isinstance(element, Const) or isinstance(element.value, str):
            raise EvaluationError(
                f"aggregate over a non-numeric element: {element!r}"
            )
        values.append(element.value)
    return values


def _make_aggregate(name: str, fold, empty_ok: bool):
    def handler(args: tuple[Term, ...], binding: Binding) -> Iterator[Binding]:
        the_set = _set_status(args[0], binding)
        if the_set is _NOT_A_SET:
            return
        if the_set is None:
            raise EvaluationError(f"{name}/2 needs its first argument bound")
        values = _numeric_elements(the_set)
        if not values and not empty_ok:
            return  # min/max of the empty set are undefined
        yield from _match(args[1], Const(fold(values)), binding)

    return handler


_HANDLERS = {
    "member": _solve_member,
    "union": _solve_union,
    "intersection": _solve_intersection,
    "difference": _solve_difference,
    "sum": _make_aggregate("sum", sum, empty_ok=True),
    "min_of": _make_aggregate("min_of", min, empty_ok=False),
    "max_of": _make_aggregate("max_of", max, empty_ok=False),
    "partition": _solve_partition,
    "subset": _solve_subset,
    "card": _solve_card,
    "=": _solve_eq,
    "!=": _solve_ne,
    "<": _make_comparison(lambda a, b: a < b),
    "<=": _make_comparison(lambda a, b: a <= b),
    ">": _make_comparison(lambda a, b: a > b),
    ">=": _make_comparison(lambda a, b: a >= b),
}


def handler_for(pred: str):
    """The handler generator for a built-in predicate, or None.

    The plan compiler binds handlers to steps once, so the runner can
    call them directly instead of routing every candidate binding
    through :func:`solve_builtin`'s lookup-and-delegate frame.
    """
    return _HANDLERS.get(pred)
