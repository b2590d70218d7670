"""Executor package: one body-evaluation entry point for the engine.

Every consumer — the fixpoint loops, grouping, magic evaluation, the
incremental model, explanation, and the semantics reference modules —
evaluates rule bodies through three thin decoders over one shape, the
ID tuples a compiled closure emits
(:mod:`repro.engine.exec.specialize`):

* :func:`enumerate_bindings` — variable rows decoded into bindings;
* :func:`derive_rows` — head ID rows, what the fixpoint bulk-inserts
  with ``Database.add_rows``;
* :func:`derive_facts` — those head rows decoded into atoms.

Two executors sit behind them:

* ``"batch"`` (default) — each plan compiles once into closures of
  nested loops over ID rows.  A plan the compiled lane declines runs on
  the reference executor instead;
* ``"tuple"`` — the one-binding-at-a-time recursion in
  :mod:`repro.engine.exec.tuplewise`, the differential oracle; its
  head facts are encoded into the same rows.

The process-wide default comes from the ``REPRO_EXECUTOR`` environment
variable (CI runs the engine suite under ``REPRO_EXECUTOR=tuple`` so the
reference cannot rot) and can be changed with
:func:`set_default_executor` (the benchmark harness ``--executor``
knob).
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.engine.binding import ChainBinding, materialize
from repro.engine.database import Database
from repro.engine.exec.kernels import RowBatch
from repro.engine.exec.specialize import FALLBACK, specialized_plan
from repro.engine.exec.tuplewise import run_plan_tuple
from repro.engine.plan import RulePlan, SourceOverrides
from repro.engine.relation import encode_args
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
    """One rule application's derived head facts, in ID space.

    ``rows`` is the emitted multiset of head ID rows (pre-dedup: one
    per derivation); ``decode`` maps a row to its arguments as derived,
    or is None when every row decodes to its own spelling (see
    :meth:`SpecializedPlan.decoder
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
    list from the compiled lane (its variable rows, decoded), a lazy
    iterator from the reference.  ``steps`` is the run's ``exec_steps``
    handler (see :data:`repro.observe.EVENTS`), called once per
    compiled closure run; the reference executor reports nothing.
    """
    name = _default_executor if executor is None else _validated(executor)
    if name == "batch":
        base = {} if binding is None else materialize(binding)
        spec = specialized_plan(plan)
        rows = spec.run("vars", db, base, overrides, negation_db, steps)
        if rows is not FALLBACK:
            return spec.binder()(rows, base)
    return run_plan_tuple(
        db, plan, binding=binding, overrides=overrides,
        negation_db=negation_db,
    )


def _instantiated(db, plan, overrides, negation_db, executor, steps):
    """Head facts by instantiating the head per binding (bindings that
    take it outside U drop), each carrying its encoded row: the path
    for non-fast heads and the reference executor."""
    if plan.head is None:
        raise ValueError("body-only plan has no head to derive")
    instantiate = plan.instantiate_head
    for binding in enumerate_bindings(
        db, plan, overrides=overrides, negation_db=negation_db,
        executor=executor, steps=steps,
    ):
        fact = instantiate(binding)
        if fact is not None:
            fact._row = encode_args(fact.args)
            yield fact


def derive_rows(
    db: Database,
    plan: RulePlan,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    executor: str | None = None,
    steps=None,
) -> DerivedRows:
    """Head facts derived by one rule application, as ID rows.

    The compiled lane emits a fast head's rows directly.  A non-fast
    head, and the reference executor, instantiate each binding's head
    and encode the facts; ``decode`` then returns each row's first
    derived spelling.
    """
    name = _default_executor if executor is None else _validated(executor)
    if name == "batch" and plan.head is not None:
        spec = specialized_plan(plan)
        rows = spec.run("head", db, {}, overrides, negation_db, steps)
        if rows is not FALLBACK:
            head = plan.head.atom
            return DerivedRows(head.pred, len(head.args), rows, spec.decoder())
    rows = []
    spelled: dict = {}  # each row's first derived spelling
    for fact in _instantiated(db, plan, overrides, negation_db, name, steps):
        row = fact._row
        rows.append(row)
        if row not in spelled:
            spelled[row] = fact.args
    head = plan.head.atom
    return DerivedRows(head.pred, len(head.args), rows, spelled.__getitem__)


def derive_facts(
    db: Database,
    plan: RulePlan,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    executor: str | None = None,
    steps=None,
) -> list[Atom]:
    """The head rows of :func:`derive_rows` as ground atoms, one per
    derivation, each carrying its ID row so ``Database.add`` skips
    re-encoding.  Compiled head rows decode through the plan's
    generated fact decoder; instantiated facts are returned as built."""
    name = _default_executor if executor is None else _validated(executor)
    if name == "batch" and plan.head is not None:
        spec = specialized_plan(plan)
        rows = spec.run("head", db, {}, overrides, negation_db, steps)
        if rows is not FALLBACK:
            return spec.fact_decoder()(rows)
    return list(_instantiated(db, plan, overrides, negation_db, name, steps))


__all__ = [
    "EXECUTORS",
    "DerivedRows",
    "RowBatch",
    "default_executor",
    "set_default_executor",
    "enumerate_bindings",
    "derive_rows",
    "derive_facts",
    "run_plan_tuple",
]
