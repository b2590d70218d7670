"""Tuple-at-a-time executor: the reference the compiled lane answers to.

The engine never runs it: :func:`run_plan_tuple` is the rule-level
oracle the tests hold :mod:`repro.engine.exec.specialize` to.  One
binding flows through the whole step sequence before the next one
starts; every step shape delegates to the shared per-binding runtime
helpers over terms, not ID rows.

A yielded binding spells every variable the body bound as its
equality class's representative — what the compiled lane's ID rows
decode to — so a derived fact prints the same under either executor
(``docs/IMPLEMENTATION.md`` §ID-row storage).  The caller's seed
binding is kept verbatim, as the compiled lane keeps it.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.binding import ChainBinding, as_chain
from repro.engine.database import Database
from repro.engine.exec.runtime import builtin_step, negation_step, relation_step
from repro.engine.plan import RulePlan, SourceOverrides
from repro.terms.term import _ID_TABLE, row_id


def _representatives(binding: ChainBinding, seed: ChainBinding) -> ChainBinding:
    """``binding`` with every value bound after ``seed`` replaced by its
    class representative (the binding itself when all already are)."""
    table = _ID_TABLE
    node = binding
    while node is not seed:
        value = node._value
        rid = value._rid
        if rid is None or table[rid] is not value:
            break
        node = node._parent
    else:
        return binding
    pairs = []
    node = binding
    while node is not seed:
        pairs.append((node._name, table[row_id(node._value)]))
        node = node._parent
    for name, rep in reversed(pairs):
        seed = ChainBinding(seed, name, rep)
    return seed


def run_plan_tuple(
    db: Database,
    plan: RulePlan,
    binding: dict | ChainBinding | None = None,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
) -> Iterator[ChainBinding]:
    """Enumerate body bindings one at a time (depth-first).

    Yields copy-on-write :class:`ChainBinding` views; callers that store
    results should ``materialize()`` them.  An override source is
    scanned once per outer binding, so anything but a list or tuple —
    a one-shot iterable, or a row batch that decodes as it iterates —
    is materialized up front.
    """
    steps = plan.steps
    total = len(steps)
    negative_source = negation_db if negation_db is not None else db
    if overrides:
        overrides = {
            index: source
            if isinstance(source, (list, tuple))
            else list(source)
            for index, source in overrides.items()
        }

    seed = as_chain(binding)

    def recurse(index: int, current: ChainBinding) -> Iterator[ChainBinding]:
        if index == total:
            yield _representatives(current, seed)
            return
        step = steps[index]
        kind = step.kind
        if kind == "relation":
            source = overrides.get(step.index) if overrides else None
            produced = relation_step(db, step, current, source)
        elif kind == "builtin":
            produced = builtin_step(step, current)
        else:
            produced = negation_step(negative_source, step, current)
        for extended in produced:
            yield from recurse(index + 1, extended)

    yield from recurse(0, seed)
