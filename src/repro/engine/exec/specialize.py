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
subscripts into local ints.  Terms materialize from the ID table only
at builtin calls and general residual matching.

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
emission into one whole-column list comprehension, arithmetic and
comparisons read the interner's numeric lane directly, the set
built-ins with ground operands and a fresh output (``partition`` with
both parts bound, ``union``, ``intersection``, ``difference``,
``card``) run as the memoized ID-space set kernels, and the other
known-handler builtin calls memoize on their input row IDs.

Semantics match the reference executor
(:mod:`repro.engine.exec.tuplewise`) — same binding multisets, same
failure semantics (lenient override probes vs raising database
probes) — and it remains the differential oracle.  A plan the lane
declines runs on that reference: shapes the generator cannot prove it
handles raise :class:`_Unsupported`, and runtime conditions it cannot
handle (a seed binding whose keys differ from the plan's
``initially_bound``, a seed value that cannot be interned) return
:data:`FALLBACK` *before* any override source is consumed.

Compiled closures capture the ID table by reference; like relations,
they must not outlive :func:`repro.terms.term.clear_intern_table`.
"""

from __future__ import annotations

from typing import Mapping

from repro.engine.binding import EMPTY_BINDING, ChainBinding
from repro.engine.database import Database
from repro.engine.exec.kernels import SET_KERNELS, number_rid
from repro.engine.exec.runtime import (
    builtin_step,
    fold_arith,
    match_residuals,
    negated_builtin_holds,
    substituted_residuals,
)
from repro.engine.plan import ARITH, CONST, VAR, LiteralStep, RulePlan, SourceOverrides
from repro.engine.relation import encode_args
from repro.errors import EvaluationError, NotInUniverseError
from repro.program.rule import Atom
from repro.terms.term import (
    Const,
    Term,
    _ID_TABLE,
    _NUM_TABLE,
    evaluate_ground,
    row_id,
)

#: Sentinel: the specialized path declined (before consuming any
#: override source); the caller must run the reference executor.
FALLBACK = object()


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
                <nested per-step loops>   # drop-binding check a plain
                    <emission>            # ``continue``
            <exec_steps epilogue>
            return out

    The emission appends the ``template`` tuple (or, fused into the
    last relation step, extends by a whole bucket of them).  ``seed``
    maps initially-bound variable names to row IDs; ``steps`` is the
    run's ``exec_steps`` handler or None."""

    def __init__(self, plan: RulePlan, template: tuple) -> None:
        self.plan = plan
        self.template = template
        self.env: dict = {
            "_T": _ID_TABLE,
            "_NT": _NUM_TABLE,
            "_CB": ChainBinding,
            "_enc": _encode_rows,
            "_encf": _encode_rows_exact,
            "_bix": _build_index,
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

    def relation_step(self, k: int, step: LiteralStep, fuse: bool = False) -> None:
        atom = step.literal.atom
        pred = atom.pred
        arity = len(atom.args)
        general = bool(step.residuals) and step.simple_residuals is None
        pro = self.pro
        emit = self.emit
        pro.append(
            f"_s{k} = None if overrides is None else overrides.get({step.index})"
        )
        if step.probes:
            # probe-only override rows must be arity-filtered (each
            # binding passes once per matching row of the right arity);
            # rows feeding residual matching are not (parity with the
            # term-level matchers, which ignore trailing columns).
            enc = "_enc" if step.residuals else "_encf"
            arg = f"_s{k}" if step.residuals else f"_s{k}, {arity}"
            pro.append(f"if _s{k} is None:")
            pro.append(
                f"    _i{k} = db.id_index({pred!r}, {step.probe_positions!r})"
            )
            pro.append(f"    _l{k} = False")
            pro.append("else:")
            pro.append(
                f"    _i{k} = _bix({enc}({arg}), {step.probe_positions!r})"
            )
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
            rows = f"_b{k}"
        else:
            pro.append(f"if _s{k} is None:")
            pro.append(f"    _r{k} = db.id_rows({pred!r})")
            pro.append(f"    if _r{k} is None:")
            pro.append(f"        _r{k} = ()")
            pro.append("else:")
            pro.append(f"    _r{k} = _enc(_s{k})")
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
            # last step: fuse iteration and emission into one
            # whole-column gather — a single list comprehension builds
            # every output ID tuple of this dispatch (this step's fresh
            # variables substitute as direct row subscripts), and one
            # C-level ``extend`` scatters the batch onto the output.
            sub = {}
            if step.residuals:
                for pos, name in step.simple_residuals:
                    sub[name] = f"_x{k}[{pos}]"
            row_expr = self.row_expr(sub)
            emit(f"_t{k} = [{row_expr} for _x{k} in {rows}]")
            emit(f"_xt(_t{k})")
            emit(f"_c{k} += len(_t{k})")
            self.fused = True
            return
        emit(f"for _x{k} in {rows}:")
        self.depth += 1
        if not step.residuals:
            emit(f"_c{k} += 1")
        else:
            for pos, name in step.simple_residuals:
                loc = self.local_for(name)
                emit(f"{loc} = _x{k}[{pos}]")
                self.assigned.add(name)
            emit(f"_c{k} += 1")

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
        self.pro.append(f"_n{k} = negdb.id_rows({atom.pred!r})")
        self.pro.append(f"if _n{k} is None:")
        self.pro.append(f"    _n{k} = _ES")
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
        """Comparison over the numeric lane: when both sides
        are bound variables or numeric constants, ``<``/``<=``/``>``/
        ``>=`` compare raw lane values directly; rows where either side
        is non-numeric route through the exact slow path (which owns
        the raise semantics for strings and mixed types).  Returns True
        when the step was emitted."""
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
            elif (
                kinda == CONST
                and type(payload) is Const
                and isinstance(payload.value, (int, float))
            ):
                sides.append((CONST, payload.value))
            else:
                return False
        emit = self.emit
        exprs = []
        none_checks = []
        for j, (kindv, value) in enumerate(sides):
            if kindv == VAR:
                loc = f"_fa{k}_{j}"
                emit(f"{loc} = _NT[{self.bound_local(value)}]")
                exprs.append(loc)
                none_checks.append(f"{loc} is None")
            else:
                exprs.append(repr(value))
        ins = self.ins_expr(in_names)
        hname = f"_uf{k}"
        self.env[hname] = _filter_holds(step, in_names)
        if none_checks:
            emit(f"if {' or '.join(none_checks)}:")
            emit(f"    if not {hname}({ins}):")
            emit("        continue")
            emit(f"elif not ({exprs[0]} {pred} {exprs[1]}):")
            emit("    continue")
        else:
            emit(f"if not ({exprs[0]} {pred} {exprs[1]}):")
            emit("    continue")
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

    # -- assembly ----------------------------------------------------------

    def build(self) -> tuple[str, dict]:
        steps = self.plan.steps
        last = len(steps) - 1
        for k, step in enumerate(steps):
            self.pro.append(f"_c{k} = 0")
            if step.kind == "relation":
                # the last relation step fuses with emission (one
                # whole-column comprehension) unless it needs the
                # general residual matcher
                fuse = k == last and not (
                    step.residuals and step.simple_residuals is None
                )
                self.relation_step(k, step, fuse=fuse)
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
        lines.extend(self.body)
        # one exec_steps event per run: each step's binding count, and
        # the tuples the closure emitted
        counts = "".join(f"_c{k}," for k in range(len(steps)))
        lines.append("    if steps is not None:")
        lines.append(f"        steps(counts=({counts}), rows=len(out))")
        lines.append("    return out")
        return "\n".join(lines) + "\n", self.env


def _generate(plan: RulePlan, template: tuple) -> tuple[str, dict]:
    return _Codegen(plan, template).build()


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
    and return the function it defines as ``name``."""
    key = (label, source)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = _CODE_CACHE[key] = compile(source, label, "exec")
    exec(code, env)
    return env[name]


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

    Holds at most two closures, one per output template (``"head"`` and
    ``"vars"``), each compiled at most once — an unsupported shape
    caches False so the codegen is not re-attempted per call — plus the
    decoders for their rows, each generated once."""

    __slots__ = ("plan", "variables", "_fns", "_decode", "_binder", "_facts")

    def __init__(self, plan: RulePlan) -> None:
        self.plan = plan
        self.variables = body_variables(plan)
        self._fns: dict[str, object] = {}
        self._decode = False  # not computed yet; None is a result
        self._binder = None
        self._facts = None

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

    def _function(self, kind: str):
        fn = self._fns.get(kind)
        if fn is None:
            plan = self.plan
            if kind == "head":
                template = head_template(plan)
            else:
                template = tuple((VAR, name) for name in self.variables)
            try:
                if template is None:
                    raise _Unsupported("no head template")
                source, env = _generate(plan, template)
                label = plan.head.atom.pred if plan.head is not None else "body"
                fn = _define(
                    source, f"<specialized:{label}>", env, "_specialized"
                )
            except _Unsupported:
                fn = False
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
        """Run the ``kind`` template's closure (``"head"`` or
        ``"vars"``) seeded with ``base`` (initially-bound name → term):
        the emitted ID tuples, or :data:`FALLBACK` (always before
        consuming any override source, so the fallback sees fresh
        iterators)."""
        plan = self.plan
        if frozenset(base) != plan.initially_bound:
            return FALLBACK
        fn = self._function(kind)
        if fn is False:
            return FALLBACK
        try:
            seed = {name: row_id(value) for name, value in base.items()}
        except (TypeError, AttributeError):
            return FALLBACK
        negdb = db if negation_db is None else negation_db
        return fn(db, overrides, seed, negdb, steps)


def specialized_plan(plan: RulePlan) -> SpecializedPlan:
    """The plan's specialization cache, created on first use."""
    spec = plan._spec
    if spec is None:
        spec = SpecializedPlan(plan)
        plan._spec = spec
    return spec
