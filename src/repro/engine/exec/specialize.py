"""Per-plan specialization: compile a RulePlan to one Python closure.

This is the engine's production executor.  Rather than interpreting
the step vocabulary per call (re-dispatching on step kind, re-reading
descriptor tuples, and shuttling ``ChainBinding`` objects of boxed
terms between steps, as the reference executor does), each
:class:`~repro.engine.plan.RulePlan` compiles once into a
specialized function whose source *inlines* the
plan — nested loops over ID rows (:mod:`repro.engine.relation`), probe
keys as int (tuples of int) dict gets against
:meth:`~repro.engine.relation.Relation.id_index`, negation as ID-row
set membership, and residual fresh variables as direct tuple
subscripts into local ints.  A binary relation is a key map, ``{first
ID: set(second ID)}``, and is read as one: a position-0 probe gets the
stored value set, a fused scan iterates its items and value sets, and
a binary anti-join tests ``b in km.get(a, ())``, none of them through
a row view.  Terms materialize from the ID table only at builtin calls
and general residual matching.

Every closure has one emission shape: it returns the list of ID tuples
an *output template* builds — a tuple of ``(VAR, name)`` /
``(CONST, rid)`` parts — one tuple per body binding, so the list is
the multiset of the rule application's bindings (section 3.2).  A plan
has at most two templates:

* the **head template** — the head's ID row, for a seedless plan with a
  fast head (:func:`head_template`);
  :func:`~repro.engine.exec.derive_rows` hands these rows to
  ``Database.add_rows``;
* the **variable template** — one slot per variable the body binds,
  minus the seeded ones (:func:`body_variables`), for every plan,
  seeded or not; :func:`~repro.engine.exec.enumerate_bindings` decodes
  the rows into bindings through :meth:`SpecializedPlan.binder`.

Every closure also gets the kernel codegen
(:mod:`repro.engine.exec.kernels`): the last relation step fuses
emission into one whole-column list comprehension — one pure ID-space
filter after it (:func:`filter_fuses`: a negation or ``=``/``!=`` over
bound variables and constants) is that comprehension's ``if`` clause,
and an output template or negation key that is the scanned row, column
for column, is the row itself — arithmetic reads
the interner's numeric lane directly, comparisons compare numbers from
that lane and strings read through the ID table inline, the set
built-ins with ground operands and a fresh output (``partition`` with
both parts bound, ``union``, ``intersection``, ``difference``,
``card``) run as the memoized ID-space set kernels, and the other
known-handler builtin calls memoize on their input row IDs.

A projecting join (:func:`key_map_shape`: step 0 scans a binary
relation, carrying one head variable, step 1 probes another binary
predicate on the join variable for the other, and at most a fused
``!=`` between the two follows) has a third closure, ``"keys"``, run
only for a fixpoint (:func:`~repro.engine.exec.derive_rows` with its
``recursive`` predicates).  Above the per-row nest it has a
**key-map branch** (:meth:`_Codegen.key_map`): it returns ``{carried
value: candidate set}`` and the derivation count instead of one row
per derivation, so duplicate derivations are never built, and the
``!=`` is one discard per key.  The closure chooses it from its input,
with no knob: it runs when the scanned rows number at least 4 with at
least 2 per distinct carried value; otherwise the closure continues as
the head closure, whose per-row nest is cheaper when every carried
value is distinct (a chain's delta).
A source already grouped on the carried value — the stored key map, or
a delta of key-map installs (:class:`~repro.engine.exec.kernels.RowBatch`
``keys``) — is read as its groups, row-free.  A scan-shaped plan (a
binary head copying a scanned pair, at most anti-joined on that pair
by its fused tail) has a ``"keys"`` closure too
(:meth:`_Codegen.scan_keys`): over a grouped source it returns each
value set, minus the negated one.

This is the only body evaluator the engine runs.  Its semantics match
the per-binding reference (:mod:`repro.engine.exec.tuplewise`, which
only the tests call) — same binding multisets, same failure semantics
(lenient override probes vs raising database probes).  What it
cannot run raises, before any override source is consumed: a seed
binding whose keys differ from the plan's ``initially_bound``
(:class:`ValueError`), a seed value that is not a term
(:class:`TypeError`), and a shape the generator cannot prove it
handles (:class:`_Unsupported`, re-raised as
:class:`~repro.errors.EvaluationError` naming the rule and the
reason).

Compiled closures capture the ID table by reference; like relations,
they must not outlive :func:`repro.terms.term.clear_intern_table`.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from itertools import chain, islice
from operator import countOf, itemgetter
from typing import Mapping, NamedTuple

from repro.engine.binding import EMPTY_BINDING, ChainBinding
from repro.engine.database import Database
from repro.engine.exec.kernels import SET_KERNELS, RowBatch, number_rid
from repro.engine.exec.runtime import (
    builtin_step,
    fold_arith,
    match_residuals,
    negated_builtin_holds,
    substituted_residuals,
)
from repro.engine.plan import (
    ARITH,
    CONST,
    TERM,
    VAR,
    LiteralStep,
    RulePlan,
    SourceOverrides,
)
from repro.engine.relation import encode_args, pairs_of
from repro.errors import EvaluationError, NotInUniverseError
from repro.program.rule import Atom
from repro.terms.pretty import format_rule
from repro.terms.term import (
    Const,
    Term,
    _ID_TABLE,
    _NUM_TABLE,
    evaluate_ground,
    row_id,
)

class _Unsupported(Exception):
    """The generator cannot prove it handles this plan shape."""


# -- runtime helpers shared by every generated closure ----------------------


def _encode_rows(source) -> list[tuple[int, ...]]:
    """Materialize an override source once, as ID rows.

    A :class:`~repro.engine.exec.kernels.RowBatch` source (the
    fixpoint's and maintenance's delta) already carries its ID rows — zero
    re-encoding on later semi-naive rounds."""
    rows = getattr(source, "rows", None)
    if rows is not None:
        return rows
    return [encode_args(args) for args in source]


def _encode_rows_exact(source, arity: int) -> list[tuple[int, ...]]:
    """Like :func:`_encode_rows` but dropping wrong-arity rows — the
    probe-only override semantics (each binding passes once per row *of
    the right arity*)."""
    rows = getattr(source, "rows", None)
    if rows is not None:
        return rows if source.arity == arity else []
    return [encode_args(args) for args in source if len(args) == arity]


def _encode_rows_whole(source, arity: int) -> list[tuple[int, ...]]:
    """Like :func:`_encode_rows`, for a step that reuses its scanned
    rows whole: each row exactly ``arity`` wide.  The per-row path reads
    an override row's first ``arity`` columns and ignores the rest, so a
    wider row is cut to them (and a shorter one raises there, too)."""
    rows = _encode_rows(source)
    if getattr(source, "arity", None) == arity:
        return rows
    return [
        row if len(row) == arity else tuple([row[i] for i in range(arity)])
        for row in rows
    ]


def _build_index(rows, positions):
    """An ID-space hash index over override rows.  Buckets are lists:
    override sources are multisets and duplicates must keep counting."""
    index: dict = {}
    if len(positions) == 1:
        pos = positions[0]
        for row in rows:
            key = row[pos]
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
    else:
        for row in rows:
            key = tuple(row[i] for i in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
    return index


def _value_index(rows) -> dict:
    """A position-0 value index over binary override rows, ``{first:
    [second, ...]}``: the override side of a key-map probe, shaped like
    a stored key map.  Buckets are lists: override sources are
    multisets and duplicates must keep counting."""
    index: dict = {}
    get = index.get
    for row in rows:
        bucket = get(row[0])
        if bucket is None:
            index[row[0]] = [row[1]]
        else:
            bucket.append(row[1])
    return index


def _stored_rows(db: Database, pred: str):
    """The rows a scan of a stored binary relation iterates, built once
    from its key map; ``()`` for an unknown predicate."""
    keys = db.key_map(pred)
    return () if keys is None else pairs_of(keys)


def _batch_keys(source):
    """A key-form :class:`~repro.engine.exec.kernels.RowBatch`'s
    ``{first: set(second)}`` (a fixpoint delta of key-map installs), or
    None for any other override source."""
    return source.keys if type(source) is RowBatch else None


def _repeating(key, rows, n: int) -> bool:
    """Whether ``n`` scanned ``rows`` have at least 2 per distinct
    ``key`` value: with ``n >= 4``, the input test of the key-map
    branch, counted at C speed.  When the first ``n // 2 + 1`` rows
    already have as many distinct values, the answer is no without the
    rest, so a chain's delta (every value distinct) pays half."""
    half = n // 2 + 1
    if len(set(map(key, islice(rows, half)))) == half:
        return False
    return 2 * len(set(map(key, rows))) <= n


def _out_rid(value: Term) -> int:
    rid = value._rid
    return row_id(value) if rid is None else rid


def _term_prober(term: Term, in_names: tuple[str, ...]):
    """Evaluate a residual probe term to its row ID, or -1 to drop the
    binding.  Failure semantics match :func:`runtime.probe_key`:
    ``EvaluationError`` always drops; ``NotInUniverseError`` drops only
    for lenient (override) sources and raises for database probes."""

    def probe(in_rids, lenient):
        table = _ID_TABLE
        binding = {n: table[r] for n, r in zip(in_names, in_rids)}
        try:
            value = evaluate_ground(term.substitute(binding))
        except EvaluationError:
            return -1
        except NotInUniverseError:
            if lenient:
                return -1
            raise
        rid = value._rid
        return row_id(value) if rid is None else rid

    return probe


def _neg_prober(term: Term, in_names: tuple[str, ...]):
    """Evaluate a negation argument term to its row ID, or -1 to drop
    the binding (unbound or outside U: not applicable, as in
    :func:`runtime.negation_args`)."""

    def probe(in_rids):
        table = _ID_TABLE
        binding = {n: table[r] for n, r in zip(in_names, in_rids)}
        try:
            value = evaluate_ground(term.substitute(binding))
        except (NotInUniverseError, EvaluationError):
            return -1
        rid = value._rid
        return row_id(value) if rid is None else rid

    return probe


def _residual_matcher(
    step: LiteralStep, in_names: tuple[str, ...], out_names: tuple[str, ...]
):
    """General residual matching (repeated variables, nested patterns)
    over a whole bucket of ID rows: one call per outer binding, the
    mixed residual terms substituted once, returning the row-ID tuples
    of the new variables, one per match."""

    residuals = step.residuals

    def matcher(in_rids, rows):
        table = _ID_TABLE
        root = {n: table[r] for n, r in zip(in_names, in_rids)}
        binding = ChainBinding(root=root) if root else EMPTY_BINDING
        substituted = substituted_residuals(step, binding)
        outs = []
        for row in rows:
            args = tuple(table[rid] for rid in row)
            for ext in match_residuals(residuals, args, binding, substituted):
                outs.append(tuple(_out_rid(ext[n]) for n in out_names))
        return outs

    return matcher


def _builtin_runner(
    step: LiteralStep, in_names: tuple[str, ...], out_names: tuple[str, ...]
):
    """Generic builtin fallback (unknown predicates route through
    ``solve_builtin``): materialize the bound arguments, run the step,
    re-encode the output variables.  One result tuple per yielded
    extension, so filter multiplicities survive.  Known handlers are
    inlined by the generator instead."""

    def run(in_rids):
        table = _ID_TABLE
        root = {n: table[r] for n, r in zip(in_names, in_rids)}
        binding = ChainBinding(root=root) if root else EMPTY_BINDING
        outs = []
        for ext in builtin_step(step, binding):
            outs.append(tuple(_out_rid(ext[n]) for n in out_names))
        return outs

    return run


def _single_out_rid(step: LiteralStep, in_names: tuple[str, ...], out_name: str):
    """Slow path for an inlined assignment builtin whose arithmetic
    fast-fold declined (unbound/non-numeric operand, fold failure): run
    the full builtin step — exact error and universe semantics — and
    return the single extension's output row ID, or -1 when the builtin
    is false.  Only used for shapes that yield at most one extension
    (``=`` binding one fresh variable)."""

    def run(in_rids):
        table = _ID_TABLE
        root = {n: table[r] for n, r in zip(in_names, in_rids)}
        binding = ChainBinding(root=root) if root else EMPTY_BINDING
        for ext in builtin_step(step, binding):
            return _out_rid(ext[out_name])
        return -1

    return run


def _filter_holds(step: LiteralStep, in_names: tuple[str, ...]):
    """Slow path for an inlined filter builtin: True iff the step
    yields (filters yield at most one extension)."""

    def run(in_rids):
        table = _ID_TABLE
        root = {n: table[r] for n, r in zip(in_names, in_rids)}
        binding = ChainBinding(root=root) if root else EMPTY_BINDING
        for _ in builtin_step(step, binding):
            return True
        return False

    return run


def _neg_builtin(step: LiteralStep, in_names: tuple[str, ...]):
    """Closed negated-builtin test over materialized bound arguments."""

    def holds(in_rids):
        table = _ID_TABLE
        root = {n: table[r] for n, r in zip(in_names, in_rids)}
        binding = ChainBinding(root=root) if root else EMPTY_BINDING
        return negated_builtin_holds(step, binding)

    return holds


# -- the generator ----------------------------------------------------------


class _Codegen:
    """Builds the source of one specialized closure.

    The generated function has the shape::

        def _specialized(db, overrides, seed, negdb, steps):
            out = []
            <per-step source prologue: override vs db, indexes, counters>
            for _root in _ONE:            # single pass; makes every
                <key-map branch>          # drop-binding check a plain
                <nested per-step loops>   # ``continue``
                    <emission>
            <exec_steps epilogue>
            return out

    Only a ``"keys"`` closure has the key-map branch (or a scan
    shape's :meth:`scan_keys`).  The emission appends the ``template``
    tuple (or, fused into the last relation step, extends by a whole
    bucket of them).  ``seed`` maps initially-bound variable names to
    row IDs; ``steps`` is the run's ``exec_steps`` handler or None."""

    def __init__(self, plan: RulePlan, template: tuple) -> None:
        self.plan = plan
        self.template = template
        self.env: dict = {
            "_T": _ID_TABLE,
            "_NT": _NUM_TABLE,
            "_C": Const,
            "_CB": ChainBinding,
            "_enc": _encode_rows,
            "_encf": _encode_rows_exact,
            "_encw": _encode_rows_whole,
            "_bix": _build_index,
            "_vix": _value_index,
            "_bk": _batch_keys,
            "_rows": _stored_rows,
            "_rep": _repeating,
            "_fold": fold_arith,
            "_rid": row_id,
            "_nr": number_rid,
            "_EB": EMPTY_BINDING,
            "_ED": {},
            "_ONE": (0,),
            "_ES": frozenset(),
        }
        self.locals: dict[str, str] = {}  # variable name -> local name
        self.assigned: set[str] = set()
        self.pro: list[str] = []  # prologue lines (one indent level)
        self.body: list[str] = []  # loop-nest lines (absolute indent)
        self.depth = 2  # inside the function and the _ONE loop
        self.fused = False  # the last step emitted its own output
        # relation steps that probe a binary relation's key map: their
        # ``_x{k}`` is the second column's ID, not a row
        self.keyed: set[int] = set()
        # the key-map branch reads step 0's source grouped on column 0
        self.keyed_scan = False
        self.loaded: set[int] = set()  # negated relations loaded as _n{k}

    # -- small emission helpers --------------------------------------------

    def emit(self, line: str) -> None:
        self.body.append("    " * self.depth + line)

    def local_for(self, name: str) -> str:
        loc = self.locals.get(name)
        if loc is None:
            loc = f"v{len(self.locals)}"
            self.locals[name] = loc
        return loc

    def bound_local(self, name: str) -> str:
        """The local holding an already-bound variable, loading it from
        the seed on first use."""
        if name not in self.assigned:
            if name not in self.plan.initially_bound:
                raise _Unsupported(f"variable {name!r} unbound at use")
            loc = self.local_for(name)
            self.pro.append(f"{loc} = seed[{name!r}]")
            self.assigned.add(name)
        return self.locals[name]

    def ins_expr(self, names) -> str:
        for name in names:
            self.bound_local(name)
        if not names:
            return "()"
        inner = ", ".join(self.locals[n] for n in names)
        return f"({inner},)" if len(names) == 1 else f"({inner})"

    # -- per-step emission -------------------------------------------------

    def column(self, k: int, pos: int) -> str:
        """The expression of column ``pos`` of step ``k``'s current row:
        a key-map probe's ``_x{k}`` is already its second column."""
        return f"_x{k}" if k in self.keyed else f"_x{k}[{pos}]"

    def relation_step(
        self,
        k: int,
        step: LiteralStep,
        fuse: bool = False,
        tail: LiteralStep | None = None,
    ) -> None:
        atom = step.literal.atom
        pred = atom.pred
        arity = len(atom.args)
        general = bool(step.residuals) and step.simple_residuals is None
        # a binary relation probed on its first column reads the key
        # map's value set: no row is built unless a general residual
        # match needs one
        keyed = arity == 2 and step.probe_positions == (0,)
        if keyed:
            self.keyed.add(k)
        # a fused scan of a binary relation reads the stored key map's
        # items and value sets (unless a key-map branch reads it first)
        pairs = (
            fuse and arity == 2 and not step.probes
            and not (k == 0 and self.keyed_scan)
        )
        pro = self.pro
        emit = self.emit
        # a fused step's row stands for itself where the output template
        # or the tail's negation key is its every column in order
        whole = None
        if fuse and not keyed:
            slots = dict(step.simple_residuals or ())
            slots.update(
                (pos, name) for pos, kindp, name in step.probes if kindp == VAR
            )
            whole = tuple((VAR, slots.get(i)) for i in range(arity))
            if whole != self.template and (
                tail is None or tail.kind != "negation" or whole != tail.neg_args
            ):
                whole = None
        pro.append(
            f"_s{k} = None if overrides is None else overrides.get({step.index})"
        )
        if step.probes:
            # probe-only override rows must be arity-filtered (each
            # binding passes once per matching row of the right arity);
            # rows feeding residual matching are not (parity with the
            # term-level matchers, which ignore trailing columns) but
            # are cut to the arity when reused whole.
            if not step.residuals:
                enc, arg = "_encf", f"_s{k}, {arity}"
            elif whole is not None:
                enc, arg = "_encw", f"_s{k}, {arity}"
            else:
                enc, arg = "_enc", f"_s{k}"
            # the leniency flag only feeds TERM probe evaluation
            lenient = any(kindp == TERM for _, kindp, _ in step.probes)
            pro.append(f"if _s{k} is None:")
            if keyed:
                pro.append(f"    _i{k} = db.key_map({pred!r})")
            else:
                pro.append(
                    f"    _i{k} = db.id_index({pred!r}, {step.probe_positions!r})"
                )
            if lenient:
                pro.append(f"    _l{k} = False")
            pro.append("else:")
            if keyed:
                pro.append(f"    _i{k} = _vix({enc}({arg}))")
            else:
                pro.append(
                    f"    _i{k} = _bix({enc}({arg}), {step.probe_positions!r})"
                )
            if lenient:
                pro.append(f"    _l{k} = True")
            # an unknown predicate skips the step wholesale, before any
            # probe-key evaluation
            emit(f"if _i{k} is None:")
            emit("    continue")
            parts = []
            for pos, kindp, payload in step.probes:
                if kindp == VAR:
                    parts.append(self.bound_local(payload))
                elif kindp == CONST:
                    parts.append(str(row_id(payload)))
                else:  # TERM: evaluate per binding at the term boundary
                    hname = f"_t{k}_{pos}"
                    in_names = tuple(sorted(payload.variables()))
                    ins = self.ins_expr(in_names)
                    self.env[hname] = _term_prober(payload, in_names)
                    tloc = f"_p{k}_{pos}"
                    emit(f"{tloc} = {hname}({ins}, _l{k})")
                    emit(f"if {tloc} < 0:")
                    emit("    continue")
                    parts.append(tloc)
            key = parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"
            emit(f"_b{k} = _i{k}.get({key})")
            emit(f"if not _b{k}:")
            emit("    continue")
            if keyed and general:
                # the matcher reads rows: build them from the values
                emit(f"_b{k} = [({key}, _v) for _v in _b{k}]")
                self.keyed.discard(k)
            rows = f"_b{k}"
        else:
            pro.append(f"if _s{k} is None:")
            if k == 0 and self.keyed_scan:
                # the key-map branch reads the stored map: rows only
                # for the per-row fall-through
                pro.append(f"    _q0 = db.key_map({pred!r})")
                pro.append("    _r0 = None if _q0 is not None else ()")
            elif arity == 2 and not fuse:
                # a loop nest may scan it many times: its rows, built once
                pro.append(f"    _r{k} = _rows(db, {pred!r})")
            else:
                if pairs:
                    pro.append(f"    _kv{k} = db.key_map({pred!r})")
                pro.append(f"    _r{k} = db.id_rows({pred!r})")
                pro.append(f"    if _r{k} is None:")
                pro.append(f"        _r{k} = ()")
            pro.append("else:")
            if whole is None:
                enc = f"_enc(_s{k})"
            else:
                enc = f"_encw(_s{k}, {arity})"
            if k == 0 and self.keyed_scan:
                # a key-form delta stays grouped: rows only on demand
                pro.append("    _q0 = _bk(_s0)")
                pro.append(f"    _r0 = {enc} if _q0 is None else None")
            else:
                if pairs:
                    pro.append(f"    _kv{k} = None")
                pro.append(f"    _r{k} = {enc}")
            rows = f"_r{k}"
        if general:
            # one matcher call per outer binding over the whole bucket:
            # the mixed residual terms substitute once
            bound = step.bound_before
            in_names = tuple(sorted(atom.variables() & bound))
            out_names = tuple(sorted(atom.variables() - bound))
            ins = self.ins_expr(in_names)
            hname = f"_m{k}"
            self.env[hname] = _residual_matcher(step, in_names, out_names)
            emit(f"for _y{k} in {hname}({ins}, {rows}):")
            self.depth += 1
            if out_names:
                targets = ", ".join(self.local_for(n) for n in out_names)
                comma = "," if len(out_names) == 1 else ""
                emit(f"{targets}{comma} = _y{k}")
                self.assigned.update(out_names)
            emit(f"_c{k} += 1")
            return
        if fuse:
            # last relation step: fuse iteration and emission into one
            # whole-column gather — a single list comprehension builds
            # every output ID tuple of this dispatch (this step's fresh
            # variables substitute as direct row subscripts, a copy-shaped
            # template reuses the row), a fused tail filter is its ``if``
            # clause, and one C-level ``extend`` scatters the batch onto
            # the output.
            sub = {}
            if step.residuals:
                for pos, name in step.simple_residuals:
                    sub[name] = self.column(k, pos)
            row = f"_x{k}"
            out = row if whole == self.template else self.row_expr(sub)
            cond = ""
            if tail is not None:
                cond = " if " + self.tail_test(k + 1, tail, sub, whole, row)
            gather = f"[{out} for {row} in {rows}{cond}]"
            if pairs:
                # a stored binary relation: its items and value sets,
                # the first column as ``_ka{k}``
                names = dict(step.simple_residuals)
                ksub = {names[0]: f"_ka{k}", names[1]: row}
                values, kcond = f"_zs{k}", ""
                if tail is not None and tail.neg_args == (
                    (VAR, names[0]), (VAR, names[1])
                ):
                    # an anti-join on the scanned pair: one set
                    # difference per key
                    self.negated_rows(k + 1, tail)
                    values = f"_zs{k} - _n{k + 1}.get(_ka{k}, _ES)"
                elif tail is not None:
                    kcond = " if " + self.tail_test(k + 1, tail, ksub, None, row)
                emit(f"if _kv{k} is not None:")
                emit(
                    f"    _t{k} = [{self.row_expr(ksub)} for _ka{k}, _zs{k} in "
                    f"_kv{k}.items() for {row} in {values}{kcond}]"
                )
                emit("else:")
                emit(f"    _t{k} = {gather}")
            else:
                emit(f"_t{k} = {gather}")
            emit(f"_xt(_t{k})")
            if tail is None:
                emit(f"_c{k} += len(_t{k})")
            else:
                emit(f"_c{k} += len({rows})")
                emit(f"_c{k + 1} += len(_t{k})")
            self.fused = True
            return
        emit(f"for _x{k} in {rows}:")
        self.depth += 1
        if step.residuals:
            for pos, name in step.simple_residuals:
                loc = self.local_for(name)
                emit(f"{loc} = {self.column(k, pos)}")
                self.assigned.add(name)
        emit(f"_c{k} += 1")

    def tail_test(self, f: int, step: LiteralStep, sub, whole, row) -> str:
        """The ``if`` clause of a fused tail filter (:func:`filter_fuses`)
        over the gathered row ``row``, whose variables substitute as
        ``sub`` says: a negation tests its key against the negated
        relation — the row itself when ``whole`` is the key, a value
        set of the key map when it is binary — and ``=``/``!=`` compare
        row IDs."""

        def ground(kind, payload):
            if kind == CONST:
                return str(row_id(payload))
            return sub.get(payload) or self.bound_local(payload)

        if step.kind == "negation":
            binary = self.negated_rows(f, step)
            parts = [ground(kind, payload) for kind, payload in step.neg_args]
            if binary:
                return f"{parts[1]} not in _n{f}.get({parts[0]}, _ES)"
            if step.neg_args == whole:
                return f"{row} not in _n{f}"
            comma = "," if len(parts) == 1 else ""
            return f"({', '.join(parts)}{comma}) not in _n{f}"
        a, b = (ground(kind, payload) for kind, payload, _ in step.builtin_args)
        return f"{a} {'==' if step.literal.atom.pred == '=' else '!='} {b}"

    def negated_rows(self, k: int, step: LiteralStep) -> bool:
        """Load the negated relation as ``_n{k}``, once: a binary one's
        key map, or the row set of any other arity.  Returns whether it
        is binary."""
        pred = step.literal.atom.pred
        binary = len(step.neg_args) == 2
        if k not in self.loaded:
            self.loaded.add(k)
            if binary:
                self.pro.append(f"_n{k} = negdb.key_map({pred!r})")
                self.pro.append(f"if _n{k} is None:")
                self.pro.append(f"    _n{k} = _ED")
            else:
                self.pro.append(f"_n{k} = negdb.id_rows({pred!r})")
                self.pro.append(f"if _n{k} is None:")
                self.pro.append(f"    _n{k} = _ES")
        return binary

    def negation_step(self, k: int, step: LiteralStep) -> None:
        atom = step.literal.atom
        emit = self.emit
        if step.neg_args is None:  # negated builtin: closed test
            in_names = tuple(sorted(atom.variables() & step.bound_before))
            ins = self.ins_expr(in_names)
            hname = f"_nb{k}"
            self.env[hname] = _neg_builtin(step, in_names)
            emit(f"if not {hname}({ins}):")
            emit("    continue")
            emit(f"_c{k} += 1")
            return
        binary = self.negated_rows(k, step)
        parts = []
        for i, (kindn, payload) in enumerate(step.neg_args):
            if kindn == VAR:
                parts.append(self.bound_local(payload))
            elif kindn == CONST:
                parts.append(str(row_id(payload)))
            else:  # TERM: unbound or outside U drops the binding
                hname = f"_g{k}_{i}"
                in_names = tuple(
                    sorted(payload.variables() & step.bound_before)
                )
                ins = self.ins_expr(in_names)
                self.env[hname] = _neg_prober(payload, in_names)
                tloc = f"_q{k}_{i}"
                emit(f"{tloc} = {hname}({ins})")
                emit(f"if {tloc} < 0:")
                emit("    continue")
                parts.append(tloc)
        if binary:
            emit(f"if {parts[1]} in _n{k}.get({parts[0]}, _ES):")
        else:
            comma = "," if len(parts) == 1 else ""
            emit(f"if ({', '.join(parts)}{comma}) in _n{k}:")
        emit("    continue")
        emit(f"_c{k} += 1")

    def builtin_step(self, k: int, step: LiteralStep) -> None:
        atom = step.literal.atom
        emit = self.emit
        bound = step.bound_before
        in_names = tuple(sorted(atom.variables() & bound))
        out_names = tuple(sorted(atom.variables() - bound))
        handler = step.builtin_handler
        if (
            handler is not None
            and len(step.builtin_args) == 2
            and atom.pred in ("=", "!=")
            and self._builtin_eq_ne(k, step, in_names, out_names)
        ):
            return
        if handler is None:
            # unknown predicate: generic solve_builtin fallback helper
            ins = self.ins_expr(in_names)
            hname = f"_u{k}"
            self.env[hname] = _builtin_runner(step, in_names, out_names)
            emit(f"for _x{k} in {hname}({ins}):")
            self.depth += 1
            if out_names:
                targets = ", ".join(self.local_for(n) for n in out_names)
                comma = "," if len(out_names) == 1 else ""
                emit(f"{targets}{comma} = _x{k}")
                self.assigned.update(out_names)
            emit(f"_c{k} += 1")
            return
        if self._lane_compare(k, step, in_names, out_names):
            return
        if self._set_kernel(k, step, out_names):
            return
        # known handler: inline the argument materialization (the
        # builtin_call_args descriptor walk resolves at generation
        # time — a VAR argument is statically bound or not) and call
        # the compiled handler directly with a minimal root binding.
        # The handler is a pure function of its bound inputs, so the
        # whole extension list memoizes on the input row IDs — repeat
        # bindings (the measured common case for divide-and-conquer set
        # builtins) replay cached rid tuples instead of re-materializing
        # terms and re-running the solver.  Errors propagate uncached:
        # the store happens after the handler loop completes.
        self.env[f"_M{k}"] = {}
        emit(f"_key{k} = {self.ins_expr(in_names)}")
        emit(f"_z{k} = _M{k}.get(_key{k})")
        emit(f"if _z{k} is None:")
        self.depth += 1
        emit(f"_z{k} = []")
        for name in in_names:
            self.bound_local(name)
        if in_names:
            entries = ", ".join(f"{n!r}: _T[{self.locals[n]}]" for n in in_names)
            emit(f"_d{k} = {{{entries}}}")
            emit(f"_e{k} = _CB(root=_d{k})")
            dct, bnd = f"_d{k}", f"_e{k}"
        else:
            dct, bnd = "_ED", "_EB"
        arg_exprs = []
        for j, (kinda, payload, term) in enumerate(step.builtin_args):
            if kinda == VAR:
                if payload in bound:
                    arg_exprs.append(f"_T[{self.locals[payload]}]")
                else:
                    cname = f"_v{k}_{j}"
                    self.env[cname] = term
                    arg_exprs.append(cname)
            elif kinda == CONST:
                cname = f"_k{k}_{j}"
                self.env[cname] = payload
                arg_exprs.append(cname)
            elif kinda == ARITH:
                self.env[f"_af{k}_{j}"] = payload[0]
                self.env[f"_ag{k}_{j}"] = payload[1]
                self.env[f"_at{k}_{j}"] = term
                wname = f"_w{k}_{j}"
                emit(f"{wname} = _fold(_af{k}_{j}, _ag{k}_{j}, {dct})")
                emit(f"if {wname} is None:")
                emit(f"    {wname} = _at{k}_{j}.substitute({bnd})")
                arg_exprs.append(wname)
            else:  # TERM: mixed pattern, substitute per binding
                self.env[f"_at{k}_{j}"] = term
                arg_exprs.append(f"_at{k}_{j}.substitute({bnd})")
        comma = "," if len(arg_exprs) == 1 else ""
        hname = f"_h{k}"
        self.env[hname] = handler
        emit(f"for _x{k} in {hname}(({', '.join(arg_exprs)}{comma}), {bnd}):")
        self.depth += 1
        rid_exprs = []
        for j2, name in enumerate(out_names):
            emit(f"_o{k}_{j2} = _x{k}[{name!r}]")
            emit(f"_or{k}_{j2} = _o{k}_{j2}._rid")
            emit(f"if _or{k}_{j2} is None:")
            emit(f"    _or{k}_{j2} = _rid(_o{k}_{j2})")
            rid_exprs.append(f"_or{k}_{j2}")
        comma2 = "," if len(rid_exprs) == 1 else ""
        emit(f"_z{k}.append(({', '.join(rid_exprs)}{comma2}))")
        self.depth -= 1  # close the handler loop
        emit(f"if len(_M{k}) < 65536:")
        emit(f"    _M{k}[_key{k}] = _z{k}")
        self.depth -= 1  # close the memo-miss branch
        emit(f"for _y{k} in _z{k}:")
        self.depth += 1
        if out_names:
            targets = ", ".join(self.local_for(n) for n in out_names)
            comma3 = "," if len(out_names) == 1 else ""
            emit(f"{targets}{comma3} = _y{k}")
            self.assigned.update(out_names)
        emit(f"_c{k} += 1")

    def _emit_fold(self, k: int, arg) -> None:
        """Emit the arithmetic fast-fold for one ARITH argument into
        ``_w{k}`` (a Const, or None when the fold declines)."""
        _kinda, payload, _term = arg
        names = []
        for kv, name in payload[1]:
            if kv == VAR and name not in names:
                names.append(name)
        for name in names:
            self.bound_local(name)
        entries = ", ".join(f"{n!r}: _T[{self.locals[n]}]" for n in names)
        self.env[f"_af{k}"] = payload[0]
        self.env[f"_ag{k}"] = payload[1]
        self.emit(f"_w{k} = _fold(_af{k}, _ag{k}, {{{entries}}})")

    #: Arithmetic functors safe to inline over the numeric lane: total
    #: over numbers, so the raw-value result matches the fold exactly.
    #: ``/`` and ``mod`` can raise (zero divisors) — the fold path owns
    #: that error semantics and they stay excluded.
    _SAFE_ARITH = frozenset({"+", "-", "*", "min", "max", "abs"})

    def _arith_numeric(self, k: int, arg):
        """The numeric fast lane for one ARITH argument:
        ``(guard_expr, rid_expr)``, or None when ineligible.

        Emits one ``_NT`` (numeric-lane) load per variable operand at
        the current depth; ``guard_expr`` is true when every operand is
        numeric, and ``rid_expr`` then computes the result's row ID via
        raw Python arithmetic plus the memoized number→rid kernel —
        identical to ``fold_arith`` + intern for these functors, with
        no Const materialization.  Non-numeric rows take the caller's
        exact fold/slow chain."""
        _kinda, payload, _term = arg
        functor, operands = payload
        if functor not in self._SAFE_ARITH:
            return None
        n = len(operands)
        if functor in ("+", "*") and n != 2:
            return None
        if functor == "-" and n not in (1, 2):
            return None
        if functor == "abs" and n != 1:
            return None
        if functor in ("min", "max") and not operands:
            return None
        for kv, value in operands:
            if kv != VAR and not isinstance(value, (int, float)):
                return None
        emit = self.emit
        exprs = []
        checks = []
        for j, (kv, value) in enumerate(operands):
            if kv == VAR:
                loc = f"_na{k}_{j}"
                emit(f"{loc} = _NT[{self.bound_local(value)}]")
                exprs.append(loc)
                checks.append(f"{loc} is not None")
            else:
                exprs.append(repr(value))
        if functor in ("+", "-", "*"):
            if len(exprs) == 1:
                expr = f"-{exprs[0]}"
            else:
                expr = f"{exprs[0]} {functor} {exprs[1]}"
        elif functor == "abs":
            expr = f"abs({exprs[0]})"
        else:
            expr = f"{functor}({', '.join(exprs)})"
        guard = " and ".join(checks) if checks else "True"
        return guard, f"_nr({expr})"

    def _lane_guard(self, k: int, arg, use: str) -> int:
        """Open the numeric-lane branch for one ARITH argument when it
        is eligible: ``use`` (source lines, ``{}`` standing for the
        result's row ID) runs when every operand is numeric, and the
        caller's exact fold/slow chain goes in the ``else:`` this
        opens.  Returns the indent it added, for the caller to close
        (0 when the argument is ineligible and nothing was emitted)."""
        parts = self._arith_numeric(k, arg)
        if parts is None:
            return 0
        guard, rid_expr = parts
        self.emit(f"if {guard}:")
        for line in use.format(rid_expr).split("\n"):
            self.emit("    " + line)
        self.emit("else:")
        self.depth += 1
        return 1

    def _lane_compare(self, k: int, step, in_names, out_names) -> bool:
        """Comparison on the scalar lanes: when both sides are bound
        variables or constants, ``<``/``<=``/``>``/``>=`` compare raw
        payloads inline.  Numbers come from the numeric lane; strings
        are read through the ID table, where a :class:`Const` with no
        numeric-lane entry holds a string.  A row whose sides are both
        numbers, or both strings, compares inline; any other row (mixed
        kinds, a compound, a set) routes through the exact slow path,
        which owns the ``cannot compare`` / ``cannot order`` errors.
        Returns True when the step was emitted."""
        pred = step.literal.atom.pred
        if (
            pred not in ("<", "<=", ">", ">=")
            or out_names
            or len(step.builtin_args) != 2
        ):
            return False
        bound = step.bound_before
        sides = []
        for kinda, payload, _term in step.builtin_args:
            if kinda == VAR and payload in bound:
                sides.append((VAR, payload))
            elif kinda == CONST and type(payload) is Const:
                sides.append((CONST, payload.value))
            else:
                return False
        constants = [value for kindv, value in sides if kindv == CONST]
        numbers = not any(isinstance(value, str) for value in constants)
        strings = all(isinstance(value, str) for value in constants)
        if not (numbers or strings):
            return False  # a number against a string: the handler raises
        emit = self.emit
        variables = []  # (numeric-lane local, ID-table local, row ID)
        numeric, textual = [], []  # each side's expression per lane
        for j, (kindv, value) in enumerate(sides):
            if kindv == VAR:
                num, term = f"_fa{k}_{j}", f"_sa{k}_{j}"
                rid = self.bound_local(value)
                emit(f"{num} = _NT[{rid}]")
                variables.append((num, term, rid))
                numeric.append(num)
                textual.append(f"{term}.value")
            else:
                numeric.append(repr(value))
                textual.append(repr(value))
        if not variables:
            emit(f"if not ({numeric[0]} {pred} {numeric[1]}):")
            emit("    continue")
            emit(f"_c{k} += 1")
            return True
        ins = self.ins_expr(in_names)
        hname = f"_uf{k}"
        self.env[hname] = _filter_holds(step, in_names)
        if numbers:
            guard = " and ".join(f"{num} is not None" for num, _t, _r in variables)
            emit(f"if {guard}:")
            emit(f"    if not ({numeric[0]} {pred} {numeric[1]}):")
            emit("        continue")
        if strings:
            if numbers:
                emit("else:")
                self.depth += 1
            for _num, term, rid in variables:
                emit(f"{term} = _T[{rid}]")
            guard = " and ".join(
                f"{num} is None and {term}.__class__ is _C"
                for num, term, _r in variables
            )
            emit(f"if {guard}:")
            emit(f"    if not ({textual[0]} {pred} {textual[1]}):")
            emit("        continue")
        emit(f"elif not {hname}({ins}):")
        emit("    continue")
        if numbers and strings:
            self.depth -= 1
        emit(f"_c{k} += 1")
        return True

    def _set_kernel(self, k: int, step, out_names) -> bool:
        """A set built-in in one of its :data:`SET_KERNELS
        <repro.engine.exec.kernels.SET_KERNELS>` shapes — every operand
        a bound variable or a constant, the output a fresh variable:
        one call to the memoized ID-space kernel replaces status checks,
        set allocation and binding construction per row (-1 means the
        built-in is false: overlapping parts, or a non-set operand).
        Returns True when the step was emitted."""
        atom = step.literal.atom
        entry = SET_KERNELS.get(atom.pred)
        if entry is None:
            return False
        kernel, operands, output = entry
        args = step.builtin_args
        if len(args) != len(operands) + 1:
            return False
        bound = step.bound_before
        kinda, out, _term = args[output]
        if kinda != VAR or out in bound or out_names != (out,):
            return False

        def ground_rid(arg):
            kinda, payload, _term = arg
            if kinda == CONST:
                try:
                    return str(row_id(payload))
                except (NotInUniverseError, EvaluationError):
                    return None
            if kinda == VAR and payload in bound:
                return self.bound_local(payload)
            return None

        ins = [ground_rid(args[i]) for i in operands]
        if None in ins:
            return False
        self.env[f"_sk{k}"] = kernel
        emit = self.emit
        emit(f"_y{k} = _sk{k}({', '.join(ins)})")
        emit(f"if _y{k} < 0:")
        emit("    continue")
        loc = self.local_for(out)
        emit(f"{loc} = _y{k}")
        self.assigned.add(out)
        emit(f"_c{k} += 1")
        return True

    def _builtin_eq_ne(self, k: int, step, in_names, out_names) -> bool:
        """Inline the ``=``/``!=`` shapes that resolve in ID space —
        row-ID equality coincides with term equality, so ground
        comparisons become int comparisons and ``Fresh = expr``
        becomes a local assignment (with the full builtin step as the
        slow path whenever the arithmetic fold declines).  Returns
        True when the step was emitted."""
        emit = self.emit
        bound = step.bound_before
        pred = step.literal.atom.pred

        def ground_expr(arg):
            kinda, payload, _term = arg
            if kinda == CONST:
                return str(row_id(payload))
            if kinda == VAR and payload in bound:
                return self.bound_local(payload)
            return None

        def arith_ok(arg):
            kinda, payload, _term = arg
            return kinda == ARITH and all(
                kv != VAR or name in bound for kv, name in payload[1]
            )

        a, b = step.builtin_args
        ga, gb = ground_expr(a), ground_expr(b)
        if ga is not None and gb is not None:
            op = "==" if pred == "!=" else "!="
            emit(f"if {ga} {op} {gb}:")
            emit("    continue")
            emit(f"_c{k} += 1")
            return True
        if pred == "!=":
            return False
        for this, other, gother in ((a, b, gb), (b, a, ga)):
            kinda, payload, _term = this
            if kinda != VAR or payload in bound:
                continue
            if out_names != (payload,):
                return False
            if gother is not None:
                loc = self.local_for(payload)
                emit(f"{loc} = {gother}")
                self.assigned.add(payload)
                emit(f"_c{k} += 1")
                return True
            if arith_ok(other):
                ins = self.ins_expr(in_names)
                hname = f"_uq{k}"
                self.env[hname] = _single_out_rid(step, in_names, payload)
                lane = self._lane_guard(k, other, f"_y{k} = {{}}")
                self._emit_fold(k, other)
                emit(f"if _w{k} is None:")
                emit(f"    _y{k} = {hname}({ins})")
                emit("else:")
                emit(f"    _y{k} = _w{k}._rid")
                emit(f"    if _y{k} is None:")
                emit(f"        _y{k} = _rid(_w{k})")
                self.depth -= lane
                emit(f"if _y{k} < 0:")
                emit("    continue")
                loc = self.local_for(payload)
                emit(f"{loc} = _y{k}")
                self.assigned.add(payload)
                emit(f"_c{k} += 1")
                return True
            return False
        for gthis, other in ((ga, b), (gb, a)):
            if gthis is not None and arith_ok(other):
                ins = self.ins_expr(in_names)
                hname = f"_uf{k}"
                self.env[hname] = _filter_holds(step, in_names)
                lane = self._lane_guard(
                    k, other, f"if {{}} != {gthis}:\n    continue"
                )
                self._emit_fold(k, other)
                emit(f"if _w{k} is None:")
                emit(f"    if not {hname}({ins}):")
                emit("        continue")
                emit("else:")
                emit(f"    _y{k} = _w{k}._rid")
                emit(f"    if _y{k} is None:")
                emit(f"        _y{k} = _rid(_w{k})")
                emit(f"    if _y{k} != {gthis}:")
                emit("        continue")
                self.depth -= lane
                emit(f"_c{k} += 1")
                return True
        return False

    # -- emission ----------------------------------------------------------

    def row_expr(self, sub: dict[str, str]) -> str:
        """The output template's ID-tuple expression.  ``sub``
        overrides the expression for variables bound by a fused last
        step (direct row subscripts); every other template variable
        must already be assigned a local.  Constants bake as row-ID
        literals."""
        rids = []
        for kind, payload in self.template:
            if kind == VAR:
                expr = sub.get(payload)
                if expr is None:
                    if payload not in self.assigned:
                        raise _Unsupported(
                            f"template variable {payload!r} never bound"
                        )
                    expr = self.locals[payload]
                rids.append(expr)
            else:
                rids.append(str(payload))
        comma = "," if len(rids) == 1 else ""
        return f"({', '.join(rids)}{comma})"

    def key_map(self, shape: "KeyMapShape", tail: LiteralStep | None) -> list[str]:
        """The key-map branch of a projecting join (see
        :func:`key_map_shape`), as loop lines for the top of the
        ``_ONE`` loop.

        It groups the scanned rows' probe keys by carried value,
        ``_q0``, projects each distinct probe key's bucket once onto the
        probed value, unions those sets per carried value, and returns
        ``(key map, derivations)``: ``{carried: set(probed values)}``,
        and the number of derivations, the sum over the scanned rows of
        their bucket sizes — the rows the per-row nest would emit.  A
        fused ``!=`` between the head variables, ``tail``, discards the
        carried value from its own set, and takes from the count the
        derivations it drops: per scanned ``(carried, key)`` pair, the
        carried value's occurrences in the key's bucket, counted only
        for the sets that held it.  The ``exec_steps`` event reports
        the per-row nest's counts.  When the carried value is the
        scanned relation's first column, a key-form delta (the last
        round's key-map installs) or the stored key map is ``_q0``
        already, and no row is read.

        The branch runs when the scanned rows number at least 4 with at
        least 2 per distinct carried value (:func:`_repeating`);
        otherwise the closure falls through to the per-row nest, which
        builds one row per derivation and is cheaper when every carried
        value is distinct (a chain's delta)."""
        scan, probe = self.plan.steps[:2]
        where = {name: pos for pos, name in scan.simple_residuals}
        carried = where[shape.carried_var]
        key = where[probe.probes[0][2]]
        ((value, _),) = probe.simple_residuals
        if 1 in self.keyed:
            project = "_b1"  # a key map's value set is the projection
            held = "_i1.get(_m, _ES)"
        else:
            project = f"{{_x1[{value}] for _x1 in _b1}}"
            held = "map(_vg, _i1.get(_m, _ES))"
        self.env["_kc"] = itemgetter(carried)
        self.env["_CT"] = Counter
        self.env["_DL"] = defaultdict
        # one set per carried value, filled from the projected sets: no
        # argument tuple per key (``set().union(*...)`` built one, and
        # its churn fragmented the heap of a long-lived server)
        self.env["_chain"] = chain.from_iterable
        if self.keyed_scan:
            lines = [
                "        if _q0 is None:",
                "            _gn = len(_r0)",
                "            _gr = _gn >= 4 and _rep(_kc, _r0, _gn)",
                "        else:",
                "            _gn = sum(map(len, _q0.values()))",
                "            _gr = _gn >= 4 and 2 * len(_q0) <= _gn",
                "        if _gr:",
            ]
        else:
            lines = [
                "        _q0 = None",
                "        _gn = len(_r0)",
                "        if _gn >= 4 and _rep(_kc, _r0, _gn):",
            ]
        lines += [
            "            if _q0 is None:",
            "                _q0 = _DL(list)",
            "                for _x0 in _r0:",
            f"                    _q0[_x0[{carried}]].append(_x0[{key}])",
            "            _km = {}",
            "            if _i1 is not None:",
            "                _pm = {}",
            "                for _k1, _n1 in _CT(_chain(_q0.values())).items():",
            "                    _b1 = _i1.get(_k1)",
            "                    if _b1:",
            f"                        _pm[_k1] = {project}",
            "                        _c1 += _n1 * len(_b1)",
            "                    else:",
            "                        _pm[_k1] = _ES",
            "                _pg = _pm.__getitem__",
            "                _km = {_a: set(_chain(map(_pg, _z))) for _a, _z in _q0.items()}",
        ]
        counts, passed = "(_gn, _c1)", "_c1"
        if tail is not None:
            self.env["_cf"] = countOf
            self.env["_vg"] = itemgetter(value)
            counts, passed = "(_gn, _c1, _c2)", "_c2"
            lines += [
                "                _c2 = _c1",
                "                for _a, _z in _q0.items():",
                "                    _s = _km[_a]",
                "                    if _a in _s:",
                "                        _s.discard(_a)",
                f"                        _c2 -= sum([_cf({held}, _a) for _m in _z])",
            ]
        lines += [
            "            if steps is not None:",
            f"                steps(counts={counts}, rows={passed})",
            f"            return _km, {passed}",
        ]
        if self.keyed_scan:
            # the fall-through reads rows of the grouped source, built
            # only now
            pred = scan.literal.atom.pred
            lines += [
                "        if _r0 is None:",
                f"            _r0 = _rows(db, {pred!r}) if _s0 is None else _s0.rows",
            ]
        return lines

    def scan_keys(self, tail: LiteralStep | None) -> list[str]:
        """The key-map branch of a scan-shaped plan (see
        :func:`key_map_shape`), as loop lines for the top of the
        ``_ONE`` loop: when step 0's source is grouped on its first
        column (the stored key map, or a key-form delta), it returns
        ``(key map, derivations)``, each value set copied or, minus the
        negated value set when the plan ends in its fused anti-join,
        ``tail``.  A source of rows falls through to the gather."""
        if tail is None:
            values, passed = "set(_z)", "_c0"
        else:
            self.negated_rows(1, tail)
            values, passed = "_z - _n1.get(_a, _ES)", "_c1"
        lines = [
            "        if _q0 is not None:",
            f"            _km = {{_a: {values} for _a, _z in _q0.items()}}",
            "            _c0 = sum(map(len, _q0.values()))",
        ]
        if tail is not None:
            lines.append("            _c1 = sum(map(len, _km.values()))")
        counts = "(_c0,)" if tail is None else "(_c0, _c1)"
        return lines + [
            "            if steps is not None:",
            f"                steps(counts={counts}, rows={passed})",
            f"            return _km, {passed}",
        ]

    # -- assembly ----------------------------------------------------------

    def build(self, shape: "KeyMapShape | None" = None) -> tuple[str, dict]:
        steps = self.plan.steps
        if shape is not None:
            scan = steps[0]
            self.keyed_scan = (0, shape.carried_var) in scan.simple_residuals
        last = len(steps) - 1
        # one pure ID-space filter may follow the last relation step
        tail = steps[last] if last > 0 and filter_fuses(steps[last]) else None
        gather = last if tail is None else last - 1
        for k, step in enumerate(steps):
            self.pro.append(f"_c{k} = 0")
            if self.fused:
                continue  # the tail filter ran inside the gather
            if step.kind == "relation":
                # the last relation step fuses with emission (one
                # whole-column comprehension) unless it needs the
                # general residual matcher
                fuse = k == gather and not (
                    step.residuals and step.simple_residuals is None
                )
                self.relation_step(k, step, fuse=fuse, tail=tail)
            elif step.kind == "negation":
                self.negation_step(k, step)
            elif step.kind == "builtin":
                self.builtin_step(k, step)
            else:
                raise _Unsupported(f"unknown step kind {step.kind!r}")
        if not self.fused:
            self.emit(f"_ap({self.row_expr({})})")
        lines = ["def _specialized(db, overrides, seed, negdb, steps):"]
        lines.append("    out = []")
        lines.append("    _xt = out.extend" if self.fused else "    _ap = out.append")
        lines.extend("    " + line for line in self.pro)
        lines.append("    for _root in _ONE:")
        if shape is not None and shape.probed is None:
            lines.extend(self.scan_keys(tail))
        elif shape is not None:
            lines.extend(self.key_map(shape, tail))
        lines.extend(self.body)
        # one exec_steps event per run: each step's binding count, and
        # the tuples the closure emitted
        counts = "".join(f"_c{k}," for k in range(len(steps)))
        lines.append("    if steps is not None:")
        lines.append(f"        steps(counts=({counts}), rows=len(out))")
        lines.append("    return out")
        return "\n".join(lines) + "\n", self.env


def _generate(
    plan: RulePlan, template: tuple, shape: "KeyMapShape | None" = None
) -> tuple[str, dict]:
    return _Codegen(plan, template).build(shape)


def filter_fuses(step: LiteralStep) -> bool:
    """Whether ``step``, following a plan's last relation step, runs as
    the ``if`` clause of that step's comprehension: a *pure ID-space
    filter*, a negated relation literal whose arguments are all bound
    variables or constants, or an ``=``/``!=`` with both sides bound
    variables or constants."""
    if step.kind == "negation":
        return step.neg_args is not None and all(
            kind != TERM for kind, _ in step.neg_args
        )
    return (
        step.kind == "builtin"
        and step.literal.atom.pred in ("=", "!=")
        and step.builtin_handler is not None
        and len(step.builtin_args) == 2
        and all(
            kind == CONST or (kind == VAR and name in step.bound_before)
            for kind, name, _ in step.builtin_args
        )
    )


class KeyMapShape(NamedTuple):
    """A plan's key-map layout (:func:`key_map_shape`)."""

    #: the head position of the value carried over from the scanned row
    carried: int
    #: the variable carrying it
    carried_var: str
    #: the predicate step 1 probes; None for a scan shape
    probed: str | None


def key_map_shape(plan: RulePlan) -> KeyMapShape | None:
    """The key-map layout of a plan, or None.

    Both shapes are seedless, non-grouping plans with a binary head of
    two distinct variables, whose step 0 scans a binary relation into
    two plain fresh variables.

    * The *scan shape* (``probed`` None): the head is the scanned pair
      in column order, and the only other step, if any, is an anti-join
      on that pair that fuses as the gather's tail
      (:func:`filter_fuses`): ``recommend(A, B) <- candidate(A, B),
      ~follows(A, B).``  Per first value, its value set minus the
      negated one is the candidate set.  A second anti-join does not
      qualify: only the last filter fuses.
    * The *projecting join*: step 0 scans any binary relation into the
      carried variable, a head variable, and the join variable, which
      is not.  Step 1 probes a binary relation other than the head's on
      the join variable alone and binds the other head variable.  At
      most one step follows, a fused ``!=`` between the two head
      variables.  ``candidate(A, B) <- follows(A, M), follows(M, B), A
      != B.``, left- and right-linear ``anc`` and the delta plan of
      ``influences(A, B) <- influences(A, C), follows(B, C)`` qualify;
      a third literal (the magic-rewritten form's
      ``m_influences__bf(A)``), an ``=`` or a ``!=`` on the join
      variable, or a probe of the head predicate does not.  Whether the
      probed predicate is defined in the running component is the
      fixpoint's question, not the plan's."""
    head = plan.head
    if (
        head is None
        or not head.fast
        or plan.initially_bound
        or plan.rule.is_grouping()
        or len(head.parts) != 2
        or not 1 <= len(plan.steps) <= 3
    ):
        return None
    (kind0, name0), (kind1, name1) = head.parts
    if kind0 != VAR or kind1 != VAR or name0 == name1:
        return None
    scan, *rest = plan.steps
    if (
        scan.kind != "relation"
        or scan.probes
        or len(scan.literal.atom.args) != 2
        or scan.simple_residuals is None
        or len(scan.simple_residuals) != 2
    ):
        return None
    pair = ((VAR, name0), (VAR, name1))
    if (
        len(rest) <= 1
        and scan.simple_residuals == ((0, name0), (1, name1))
        and all(
            step.kind == "negation" and step.neg_args == pair and filter_fuses(step)
            for step in rest
        )
    ):
        return KeyMapShape(0, name0, None)
    if not rest:
        return None
    probe, *tail = rest
    if tail and not (
        tail[0].literal.atom.pred == "!="
        and filter_fuses(tail[0])
        and {(kind, name) for kind, name, _ in tail[0].builtin_args} == set(pair)
    ):
        return None
    if (
        probe.kind != "relation"
        or probe.literal.atom.pred == head.atom.pred
        or len(probe.literal.atom.args) != 2
        or len(probe.probes) != 1
        or probe.simple_residuals is None
        or len(probe.simple_residuals) != 1
    ):
        return None
    (_, kindp, key), ((_, value),) = probe.probes[0], probe.simple_residuals
    scanned = {name for _, name in scan.simple_residuals}
    if kindp != VAR or key not in scanned or key in (name0, name1):
        return None
    (carried,) = scanned - {key}
    if {carried, value} != {name0, name1}:
        return None
    return KeyMapShape(0 if carried == name0 else 1, carried, probe.literal.atom.pred)


def head_template(plan: RulePlan) -> tuple | None:
    """The head's output template, or None.  Only a seedless plan with
    a fast head has one: a seeded head slot would emit the seed's class
    ID, losing the caller's spelling."""
    head = plan.head
    if head is None or not head.fast or plan.initially_bound:
        return None
    return tuple(
        (VAR, payload) if kind == VAR else (CONST, row_id(payload))
        for kind, payload in head.parts
    )


def body_variables(plan: RulePlan) -> tuple[str, ...]:
    """The variable template's names: every variable the body binds,
    minus the seeded ones, in binding order."""
    names: list[str] = []
    for step in plan.steps:
        if step.kind != "negation":
            names.extend(sorted(step.literal.atom.variables() - step.bound_before))
    return tuple(names)


# -- the compiled-plan wrapper ----------------------------------------------


#: Process-wide source → code-object memo.  Plan caches live per
#: compiled program, so the same rule re-specializes for every program
#: that holds it; its generated source is deterministic (locals are
#: numbered in discovery order, constants are baked as row-ID literals,
#: which are stable for the life of the intern table), so ``compile`` —
#: by far the expensive part — runs once per distinct source per
#: process.  After ``clear_intern_table`` the baked IDs change, so stale
#: entries mismatch by text and are simply never reused.
_CODE_CACHE: dict[tuple[str, str], object] = {}


def _define(source: str, label: str, env: dict, name: str):
    """Execute generated ``source`` in ``env`` (through the code memo)
    and return the function it defines as ``name``.  The function is
    taken out of ``env``, its own globals, so the two form no reference
    cycle: a dropped plan is freed by reference counting alone."""
    key = (label, source)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = _CODE_CACHE[key] = compile(source, label, "exec")
    exec(code, env)
    return env.pop(name)


def _binding_decoder(seeded: tuple[str, ...], names: tuple[str, ...]):
    """Generate the decoder from variable-template rows to bindings:
    one list comprehension with every name baked in.  Seeded names keep
    their values from ``base`` verbatim, as the reference keeps the
    caller's seed; body-bound names decode to class representatives."""
    entries = [f"{name!r}: _b{i}" for i, name in enumerate(seeded)]
    entries += [f"{name!r}: _T[_a{i}]" for i, name in enumerate(names)]
    target = "(" + "".join(f"_a{i}, " for i in range(len(names))) + ")"
    lines = ["def _decode(rows, base):"]
    lines += [f"    _b{i} = base[{name!r}]" for i, name in enumerate(seeded)]
    lines.append(
        f"    return [_CB(root={{{', '.join(entries)}}}) for {target} in rows]"
    )
    env = {"_T": _ID_TABLE, "_CB": ChainBinding}
    return _define("\n".join(lines) + "\n", "<bindings>", env, "_decode")


def _fact_decoder(pred: str, parts: tuple):
    """Generate the decoder from head-template rows to ground atoms,
    each carrying its row so ``Database.add`` skips re-encoding.
    Variable slots decode to class representatives; constant slots
    reuse the rule's constant verbatim, as instantiating the head
    would."""
    env = {"_T": _ID_TABLE, "_A": Atom}
    args = []
    for i, (kind, payload) in enumerate(parts):
        if kind == VAR:
            args.append(f"_T[_a{i}]")
        else:
            env[f"_k{i}"] = payload
            args.append(f"_k{i}")
    comma = "," if len(args) == 1 else ""
    target = "(" + "".join(f"_a{i}, " for i in range(len(parts))) + ")"
    lines = [
        "def _facts(rows):",
        "    out = []",
        "    _ap = out.append",
        "    for _r in rows:",
        f"        {target} = _r",
        f"        _f = _A({pred!r}, ({', '.join(args)}{comma}))",
        "        _f._ground = True",
        "        _f._row = _r",
        "        _ap(_f)",
        "    return out",
    ]
    return _define("\n".join(lines) + "\n", "<facts>", env, "_facts")


class SpecializedPlan:
    """Lazy compilation cache hung off a :class:`RulePlan`.

    Holds at most three closures, one per output template (``"head"``
    and ``"vars"``) and the head template's key-map variant
    (``"keys"``, see :func:`key_map_shape`), each compiled at most
    once, plus the decoders for their rows, each generated once.
    ``templates["head"]`` is None for a plan with no head template
    (:func:`head_template`); :func:`~repro.engine.exec.derive_rows`
    instantiates such a head per binding instead.

    It refers to its plan weakly: the plan holds it (``RulePlan._spec``),
    and a strong reference back would make every plan cyclic garbage."""

    __slots__ = (
        "_plan", "variables", "templates", "_fns", "_decode", "_binder",
        "_facts", "_shape",
    )

    def __init__(self, plan: RulePlan) -> None:
        self._plan = weakref.ref(plan)
        self.variables = body_variables(plan)
        self.templates = {
            "head": head_template(plan),
            "vars": tuple((VAR, name) for name in self.variables),
        }
        self._fns: dict[str, object] = {}
        self._decode = False  # not computed yet; None is a result
        self._binder = None
        self._facts = None
        self._shape = False  # not computed yet; None is a result

    @property
    def plan(self) -> RulePlan:
        return self._plan()

    def decoder(self):
        """The head rows→args slot decoder, or None when every head
        slot decodes to itself.

        A head row holds equality-class IDs, which decode to class
        representatives.  That is the right spelling for a variable
        slot, and for a constant slot whose evaluated constant *is* its
        representative; a constant spelled otherwise (``'a'`` for the
        class of ``a``) keeps its spelling only through the decoder,
        which reuses the rule's constant verbatim, as instantiating the
        head would.  Relations record the spellings it returns."""
        fn = self._decode
        if fn is False:
            table = _ID_TABLE
            slots = tuple(
                None if kindh == VAR or table[row_id(payload)] is payload
                else payload
                for kindh, payload in self.plan.head.parts
            )
            fn = None
            if any(term is not None for term in slots):

                def fn(row, _table=table, _slots=slots):
                    return tuple(
                        _table[rid] if term is None else term
                        for rid, term in zip(row, _slots)
                    )

            self._decode = fn
        return fn

    def binder(self):
        """The variable rows → :class:`ChainBinding` list decoder,
        called as ``binder()(rows, base)`` and generated once per plan
        (:func:`_binding_decoder`)."""
        fn = self._binder
        if fn is None:
            fn = self._binder = _binding_decoder(
                tuple(sorted(self.plan.initially_bound)), self.variables
            )
        return fn

    def fact_decoder(self):
        """The head rows → :class:`Atom` list decoder, generated once
        per plan (:func:`_fact_decoder`)."""
        fn = self._facts
        if fn is None:
            head = self.plan.head
            fn = self._facts = _fact_decoder(head.atom.pred, head.parts)
        return fn

    def key_map_shape(self) -> KeyMapShape | None:
        """The plan's :func:`key_map_shape`, computed once."""
        shape = self._shape
        if shape is False:
            shape = self._shape = key_map_shape(self.plan)
        return shape

    def _function(self, kind: str):
        fn = self._fns.get(kind)
        if fn is None:
            plan = self.plan
            try:
                if kind == "keys":
                    source, env = _generate(
                        plan, self.templates["head"], self.key_map_shape()
                    )
                else:
                    source, env = _generate(plan, self.templates[kind])
            except _Unsupported as exc:
                raise EvaluationError(
                    f"cannot compile rule {format_rule(plan.rule)}: {exc}"
                ) from None
            label = plan.head.atom.pred if plan.head is not None else "body"
            fn = _define(source, f"<specialized:{label}>", env, "_specialized")
            self._fns[kind] = fn
        return fn

    def run(
        self,
        kind: str,
        db: Database,
        base: Mapping[str, Term],
        overrides: SourceOverrides | None,
        negation_db: Database | None,
        steps,
    ):
        """Run the ``kind`` template's closure (``"head"``, ``"vars"``
        or ``"keys"``) seeded with ``base`` (initially-bound name →
        term): the emitted ID tuples, or for ``"keys"`` possibly a
        ``(key map, derivations)`` pair.  A seed that does not fit the
        plan raises before any override source is consumed."""
        plan = self.plan
        if frozenset(base) != plan.initially_bound:
            raise ValueError(
                f"seed binds {sorted(base)}, but the plan of "
                f"{format_rule(plan.rule)} was compiled for "
                f"{sorted(plan.initially_bound)}"
            )
        fn = self._function(kind)
        seed = {}
        for name, value in base.items():
            if not isinstance(value, Term):
                raise TypeError(f"seed value of {name} is not a term: {value!r}")
            seed[name] = row_id(value)
        negdb = db if negation_db is None else negation_db
        return fn(db, overrides, seed, negdb, steps)


def specialized_plan(plan: RulePlan) -> SpecializedPlan:
    """The plan's specialization cache, created on first use."""
    spec = plan._spec
    if spec is None:
        spec = SpecializedPlan(plan)
        plan._spec = spec
    return spec
