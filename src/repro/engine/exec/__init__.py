"""Executor package: one body-evaluation entry point for the engine.

Every consumer — the fixpoint loops, grouping, magic evaluation, the
incremental model, explanation, and the semantics reference modules —
enumerates rule-body bindings through :func:`enumerate_bindings` (or
its fact-producing wrapper :func:`derive_facts`).  Three lanes sit
behind it:

* **specialized** (default) — each plan compiles once into a closure
  of nested loops over ID rows (:mod:`repro.engine.exec.specialize`);
  shapes or call conditions it cannot prove it handles fall through to
* ``"batch"`` — the set-at-a-time term-level operator pipeline in
  :mod:`repro.engine.exec.batch`;
* ``"tuple"`` — the original one-binding-at-a-time recursion in
  :mod:`repro.engine.exec.tuplewise`, kept for differential testing.

The process-wide executor default comes from the ``REPRO_EXECUTOR``
environment variable (CI runs the engine suite under
``REPRO_EXECUTOR=tuple`` so the compatibility path cannot rot) and can
be changed with :func:`set_default_executor` (the benchmark harness
``--executor`` knob).  Plan specialization sits *on top of* the batch
executor and is toggled independently by ``REPRO_SPECIALIZE``
(``on``/``off``; CI runs a leg with ``REPRO_SPECIALIZE=off`` so the
term-level batch lane cannot rot either) or
:func:`set_specialization`.

A third knob, ``REPRO_VECTOR`` (``on``/``off``, default ``on``;
:func:`set_vectorization`), toggles the vector-kernel layer
(:mod:`repro.engine.exec.kernels`) on top of both lanes: with it on,
the fixpoint derives whole ID-row batches through
:func:`derive_rows` (specialized ``"rows"`` mode + bulk
``Database.add_rows``) and the term-level batch operators take their
bulk-probe paths; with it off, every call goes through exactly the
per-row PR 6 code (CI runs a ``REPRO_VECTOR=off`` differential leg).
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.engine.binding import ChainBinding
from repro.engine.database import Database
from repro.engine.exec import kernels
from repro.engine.exec.batch import group_bindings, run_plan_batch
from repro.engine.exec.kernels import RowBatch
from repro.engine.exec.specialize import FALLBACK, specialized_plan
from repro.engine.exec.tuplewise import run_plan_tuple
from repro.engine.plan import RulePlan, SourceOverrides
from repro.program.rule import Atom

EXECUTORS = ("batch", "tuple")

SPECIALIZE_MODES = ("on", "off")

VECTOR_MODES = ("on", "off")


def _validated(name: str) -> str:
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTORS}"
        )
    return name


def _validated_specialize(name: str) -> str:
    if name not in SPECIALIZE_MODES:
        raise ValueError(
            f"unknown specialization mode {name!r}; "
            f"expected one of {SPECIALIZE_MODES}"
        )
    return name


def _validated_vector(name: str) -> str:
    if name not in VECTOR_MODES:
        raise ValueError(
            f"unknown vectorization mode {name!r}; "
            f"expected one of {VECTOR_MODES}"
        )
    return name


_default_executor = _validated(os.environ.get("REPRO_EXECUTOR", "batch"))
_specialize = _validated_specialize(os.environ.get("REPRO_SPECIALIZE", "on"))
kernels.set_enabled(
    _validated_vector(os.environ.get("REPRO_VECTOR", "on")) == "on"
)


def default_executor() -> str:
    """The process-wide executor used when none is requested."""
    return _default_executor


def set_default_executor(name: str) -> None:
    """Change the process-wide default (harness ``--executor`` knob)."""
    global _default_executor
    _default_executor = _validated(name)


def specialization() -> str:
    """Whether compiled-plan specialization is ``"on"`` or ``"off"``."""
    return _specialize


def set_specialization(name: str) -> None:
    """Toggle compiled-plan specialization (harness ``--specialize``)."""
    global _specialize
    _specialize = _validated_specialize(name)


def vectorization() -> str:
    """Whether the vector-kernel layer is ``"on"`` or ``"off"``."""
    return "on" if kernels.enabled() else "off"


def set_vectorization(name: str) -> None:
    """Toggle the vector-kernel layer (harness ``--vector`` knob)."""
    kernels.set_enabled(_validated_vector(name) == "on")


class DerivedRows:
    """One rule application's derived head facts, still in ID space.

    ``rows`` is the emitted multiset of head ID rows (pre-dedup, so
    ``len(rows)`` matches the facts atoms mode would have returned);
    ``decode`` materializes one row to its argument tuple — the
    fixpoint hands both straight to ``Database.add_rows`` so only
    genuinely new facts ever decode."""

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
    metrics=None,
) -> Iterable[ChainBinding]:
    """All bindings satisfying ``plan``'s body, via the chosen executor.

    Returns an iterable of copy-on-write chain bindings: a realized
    list from the batch and specialized executors, a lazy iterator from
    the tuple one.
    """
    name = _default_executor if executor is None else _validated(executor)
    if name == "tuple":
        return run_plan_tuple(
            db, plan, binding=binding, overrides=overrides,
            negation_db=negation_db,
        )
    if _specialize == "on":
        result = specialized_plan(plan).run(
            "bindings", db, binding, overrides, negation_db, metrics
        )
        if result is not FALLBACK:
            return result
    return run_plan_batch(
        db, plan, binding=binding, overrides=overrides,
        negation_db=negation_db, metrics=metrics,
    )


def derive_facts(
    db: Database,
    plan: RulePlan,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    executor: str | None = None,
    metrics=None,
) -> list[Atom]:
    """Head facts derived by one rule application (ground heads only;
    bindings that take the head outside U are dropped)."""
    name = _default_executor if executor is None else _validated(executor)
    if name == "batch" and _specialize == "on" and plan.head is not None:
        # the specialized atoms mode inlines head instantiation too:
        # facts come straight off the ID rows, no intermediate binding
        result = specialized_plan(plan).run(
            "atoms", db, None, overrides, negation_db, metrics
        )
        if result is not FALLBACK:
            return result
    instantiate = plan.instantiate_head
    facts: list[Atom] = []
    for binding in enumerate_bindings(
        db, plan, overrides=overrides, negation_db=negation_db,
        executor=name, metrics=metrics,
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
    metrics=None,
) -> DerivedRows | None:
    """The vectorized shape of :func:`derive_facts`: head facts as raw
    ID rows plus a decoder, or None when this call must take the
    per-fact path (vectorization off, non-batch executor, or a plan
    shape the rows mode does not cover).

    None is only ever returned *before* any override source has been
    consumed, so the caller can fall through to :func:`derive_facts`
    with the same arguments.
    """
    name = _default_executor if executor is None else _validated(executor)
    if (
        name != "batch"
        or _specialize != "on"
        or not kernels.enabled()
        or plan.head is None
    ):
        return None
    result = specialized_plan(plan).run(
        "rows", db, None, overrides, negation_db, metrics
    )
    if result is FALLBACK:
        return None
    head = plan.head.atom
    return DerivedRows(
        head.pred, len(head.args), result, specialized_plan(plan).decoder()
    )


__all__ = [
    "EXECUTORS",
    "SPECIALIZE_MODES",
    "VECTOR_MODES",
    "DerivedRows",
    "RowBatch",
    "default_executor",
    "set_default_executor",
    "specialization",
    "set_specialization",
    "vectorization",
    "set_vectorization",
    "enumerate_bindings",
    "derive_facts",
    "derive_rows",
    "group_bindings",
    "run_plan_batch",
    "run_plan_tuple",
]
