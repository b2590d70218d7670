"""Executor package: one body-evaluation entry point for the engine.

Every consumer — the fixpoint loops, grouping, magic evaluation, the
incremental model, explanation, and the semantics reference modules —
enumerates rule-body bindings through :func:`enumerate_bindings` (or
its fact-producing wrappers :func:`derive_facts` and
:func:`derive_rows`).  Two executors sit behind it:

* ``"batch"`` (default) — each plan compiles once into a closure of
  nested loops over ID rows (:mod:`repro.engine.exec.specialize`); the
  fixpoint derives whole ID-row batches through :func:`derive_rows`
  (``"rows"`` mode + bulk ``Database.add_rows``).  A plan the compiled
  lane declines runs on the reference executor instead;
* ``"tuple"`` — the one-binding-at-a-time recursion in
  :mod:`repro.engine.exec.tuplewise`, the differential oracle.

The process-wide default comes from the ``REPRO_EXECUTOR`` environment
variable (CI runs the engine suite under ``REPRO_EXECUTOR=tuple`` so the
reference cannot rot) and can be changed with
:func:`set_default_executor` (the benchmark harness ``--executor``
knob).
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.engine.binding import ChainBinding
from repro.engine.database import Database
from repro.engine.exec.kernels import RowBatch
from repro.engine.exec.specialize import FALLBACK, specialized_plan
from repro.engine.exec.tuplewise import run_plan_tuple
from repro.engine.plan import RulePlan, SourceOverrides
from repro.program.rule import Atom

EXECUTORS = ("batch", "tuple")


def _validated(name: str) -> str:
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTORS}"
        )
    return name


_default_executor = _validated(os.environ.get("REPRO_EXECUTOR", "batch"))


def default_executor() -> str:
    """The process-wide executor used when none is requested."""
    return _default_executor


def set_default_executor(name: str) -> None:
    """Change the process-wide default (harness ``--executor`` knob)."""
    global _default_executor
    _default_executor = _validated(name)


class DerivedRows:
    """One rule application's derived head facts, still in ID space.

    ``rows`` is the emitted multiset of head ID rows (pre-dedup, so
    ``len(rows)`` matches the facts atoms mode would have returned);
    ``decode`` is the head's slot decoder, or None when every row
    decodes to its own spelling (see :meth:`SpecializedPlan.decoder
    <repro.engine.exec.specialize.SpecializedPlan.decoder>`).  The
    fixpoint hands both straight to ``Database.add_rows``, which
    decodes nothing unless ``decode`` is set."""

    __slots__ = ("pred", "arity", "rows", "decode")

    def __init__(self, pred: str, arity: int, rows: list, decode) -> None:
        self.pred = pred
        self.arity = arity
        self.rows = rows
        self.decode = decode


def enumerate_bindings(
    db: Database,
    plan: RulePlan,
    binding: dict | ChainBinding | None = None,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    executor: str | None = None,
    steps=None,
) -> Iterable[ChainBinding]:
    """All bindings satisfying ``plan``'s body, via the chosen executor.

    Returns an iterable of copy-on-write chain bindings: a realized
    list from the compiled lane, a lazy iterator from the reference.
    ``steps`` is the run's ``exec_steps`` handler (see
    :data:`repro.observe.EVENTS`), called once per compiled closure
    run; the reference executor reports nothing.
    """
    name = _default_executor if executor is None else _validated(executor)
    if name == "batch":
        result = specialized_plan(plan).run(
            "bindings", db, binding, overrides, negation_db, steps
        )
        if result is not FALLBACK:
            return result
    return run_plan_tuple(
        db, plan, binding=binding, overrides=overrides,
        negation_db=negation_db,
    )


def derive_facts(
    db: Database,
    plan: RulePlan,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    executor: str | None = None,
    steps=None,
) -> list[Atom]:
    """Head facts derived by one rule application (ground heads only;
    bindings that take the head outside U are dropped)."""
    name = _default_executor if executor is None else _validated(executor)
    if name == "batch" and plan.head is not None:
        # the compiled atoms mode inlines head instantiation too: facts
        # come straight off the ID rows, no intermediate binding
        result = specialized_plan(plan).run(
            "atoms", db, None, overrides, negation_db, steps
        )
        if result is not FALLBACK:
            return result
        name = "tuple"
    instantiate = plan.instantiate_head
    facts: list[Atom] = []
    for binding in enumerate_bindings(
        db, plan, overrides=overrides, negation_db=negation_db,
        executor=name, steps=steps,
    ):
        fact = instantiate(binding)
        if fact is not None:
            facts.append(fact)
    return facts


def derive_rows(
    db: Database,
    plan: RulePlan,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    executor: str | None = None,
    steps=None,
) -> DerivedRows | None:
    """The vectorized shape of :func:`derive_facts`: head facts as raw
    ID rows plus any slot decoder, or None when this call must take the
    per-fact path (the reference executor, a headless plan, or a plan
    shape the rows mode does not cover).

    None is only ever returned *before* any override source has been
    consumed, so the caller can fall through to :func:`derive_facts`
    with the same arguments.
    """
    name = _default_executor if executor is None else _validated(executor)
    if name != "batch" or plan.head is None:
        return None
    spec = specialized_plan(plan)
    result = spec.run("rows", db, None, overrides, negation_db, steps)
    if result is FALLBACK:
        return None
    head = plan.head.atom
    return DerivedRows(head.pred, len(head.args), result, spec.decoder())


__all__ = [
    "EXECUTORS",
    "DerivedRows",
    "RowBatch",
    "default_executor",
    "set_default_executor",
    "enumerate_bindings",
    "derive_facts",
    "derive_rows",
    "run_plan_tuple",
]
