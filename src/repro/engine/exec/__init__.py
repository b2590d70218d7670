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

Each plan compiles once into closures of nested loops over ID rows;
that compiled lane is the only body evaluator the engine runs, and a
plan or seed it cannot run raises (see
:mod:`repro.engine.exec.specialize`).  The one-binding-at-a-time
recursion in :mod:`repro.engine.exec.tuplewise` (:func:`run_plan_tuple`)
stays as the rule-level oracle the tests hold the compiled lane to.
"""

from __future__ import annotations

from repro.engine.binding import ChainBinding, materialize
from repro.engine.database import Database
from repro.engine.exec.kernels import RowBatch
from repro.engine.exec.specialize import specialized_plan
from repro.engine.exec.tuplewise import run_plan_tuple
from repro.engine.plan import RulePlan, SourceOverrides
from repro.engine.relation import encode_args
from repro.program.rule import Atom


class DerivedRows:
    """One rule application's derived head facts, in ID space.

    ``rows`` is the emitted multiset of head ID rows (pre-dedup: one
    per derivation); ``decode`` maps a row to its arguments as derived,
    or is None when every row decodes to its own spelling (see
    :meth:`SpecializedPlan.decoder
    <repro.engine.exec.specialize.SpecializedPlan.decoder>`).  The
    fixpoint hands both straight to ``Database.add_rows``, which
    decodes nothing unless ``decode`` is set.

    A projecting join's application may instead come as a *key map*
    (:func:`~repro.engine.exec.specialize.key_map_shape`):
    ``rows`` is None and ``keys`` is ``{carried value: set(other
    value)}``, the set of binary head rows with the carried value at
    head position ``carried``; every slot is a variable, so ``decode``
    is None.  ``count`` is the number of derivations either way: the
    length of ``rows``, or the size the row multiset would have had."""

    __slots__ = ("pred", "arity", "rows", "decode", "keys", "carried", "count")

    def __init__(
        self,
        pred: str,
        arity: int,
        rows: list | None,
        decode,
        keys: dict | None = None,
        carried: int = 0,
        count: int | None = None,
    ) -> None:
        self.pred = pred
        self.arity = arity
        self.rows = rows
        self.decode = decode
        self.keys = keys
        self.carried = carried
        self.count = len(rows) if count is None else count


def enumerate_bindings(
    db: Database,
    plan: RulePlan,
    binding: dict | ChainBinding | None = None,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    steps=None,
) -> list[ChainBinding]:
    """All bindings satisfying ``plan``'s body: the compiled closure's
    variable rows, decoded into copy-on-write chain bindings.

    ``steps`` is the run's ``exec_steps`` handler (see
    :data:`repro.observe.EVENTS`), called once per compiled closure run.
    """
    base = {} if binding is None else materialize(binding)
    spec = specialized_plan(plan)
    rows = spec.run("vars", db, base, overrides, negation_db, steps)
    return spec.binder()(rows, base)


def _instantiated(db, plan, overrides, negation_db, steps):
    """Head facts by instantiating the head per binding (bindings that
    take it outside U drop), each carrying its encoded row: the path
    for a plan with no head template."""
    if plan.head is None:
        raise ValueError("body-only plan has no head to derive")
    instantiate = plan.instantiate_head
    for binding in enumerate_bindings(
        db, plan, overrides=overrides, negation_db=negation_db, steps=steps,
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
    steps=None,
    recursive: frozenset[str] | None = None,
) -> DerivedRows:
    """Head facts derived by one rule application, as ID rows.

    A plan with a head template emits its rows directly.  Otherwise
    (a non-fast head) each binding's head is instantiated and encoded;
    ``decode`` then returns each row's first derived spelling.

    ``recursive`` is for a fixpoint: the predicates its component
    defines.  Given it, a plan of a key-map shape
    (:func:`~repro.engine.exec.specialize.key_map_shape`) may return a
    key map instead of rows (see :class:`DerivedRows`): a scan shape
    when its source is grouped on its first column, a projecting join,
    whose probed predicate must not be among ``recursive``, when its
    scanned rows repeat their carried values.  Without it, the
    result is always rows.
    """
    spec = specialized_plan(plan)
    if spec.templates["head"] is not None:
        head = plan.head.atom
        shape = None if recursive is None else spec.key_map_shape()
        if shape is not None and shape.probed in recursive:
            shape = None
        kind = "head" if shape is None else "keys"
        rows = spec.run(kind, db, {}, overrides, negation_db, steps)
        if type(rows) is tuple:
            keys, count = rows
            return DerivedRows(head.pred, 2, None, None, keys, shape.carried, count)
        return DerivedRows(head.pred, len(head.args), rows, spec.decoder())
    rows = []
    spelled: dict = {}  # each row's first derived spelling
    for fact in _instantiated(db, plan, overrides, negation_db, steps):
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
    steps=None,
) -> list[Atom]:
    """The head rows of :func:`derive_rows` as ground atoms, one per
    derivation, each carrying its ID row so ``Database.add`` skips
    re-encoding.  Compiled head rows decode through the plan's
    generated fact decoder; instantiated facts are returned as built."""
    spec = specialized_plan(plan)
    if spec.templates["head"] is not None:
        rows = spec.run("head", db, {}, overrides, negation_db, steps)
        return spec.fact_decoder()(rows)
    return list(_instantiated(db, plan, overrides, negation_db, steps))


__all__ = [
    "DerivedRows",
    "RowBatch",
    "enumerate_bindings",
    "derive_rows",
    "derive_facts",
    "run_plan_tuple",
]
