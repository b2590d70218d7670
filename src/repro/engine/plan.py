"""Compile-once rule plans: the executable IR of rule evaluation.

The seed engine re-derived everything per call: :func:`order_body`
ran every fixpoint iteration, ``Atom.substitute`` plus per-argument
groundness checks ran for every binding at every literal, and the head
was re-substituted per derived fact.  This module performs that
analysis *once* per (rule, delta-occurrence, initially-bound set) and
emits a :class:`RulePlan`:

* an evaluation order (:func:`order_body`),
* one :class:`LiteralStep` per body literal carrying its *probe spec*
  — which argument positions are ground at that step given the
  variables bound so far, how to produce each probe key part (constant
  / direct variable lookup / residual term evaluation), and which
  positions still need general matching — plus the step kind
  (relation scan, pure filter, negation, builtin),
* a precomputed :class:`HeadTemplate` that instantiates the head by
  direct binding lookups when possible.

Execution lives in :mod:`repro.engine.exec`: each plan compiles once
into a closure over ID rows; the original one-binding-at-a-time
recursion stays beside it as the reference the tests compare against.
Plans are cached in a :class:`PlanCache` — one per compiled program
(:mod:`repro.engine.compiled`) — and every run reads them through its
:class:`~repro.engine.context.EvalContext`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.engine.builtins import handler_for
from repro.engine.match import ground_atom
from repro.errors import EvaluationError, NotInUniverseError, SafetyError
from repro.names import is_builtin_predicate
from repro.program.modes import modes_for
from repro.program.rule import Atom, Literal, Rule
from repro.terms.pretty import format_literal
from repro.terms.term import (
    ARITHMETIC_FUNCTORS,
    Const,
    Func,
    GroupTerm,
    Term,
    Var,
    evaluate_ground,
    register_clear_listener,
)

#: relation-override hook: maps a body-literal *original index* to an
#: alternative tuple source (e.g. the semi-naive delta).
SourceOverrides = dict[int, Iterable[tuple[Term, ...]]]

# Probe/argument descriptor kinds.
CONST = "const"  # payload: pre-evaluated canonical value
VAR = "var"  # payload: variable name, bound before this step
TERM = "term"  # payload: raw term, substitute+evaluate at runtime
BIND = "bind"  # payload: variable name, first unbound occurrence
MATCH = "match"  # payload: (term, needs_substitute) general match
ARITH = "arith"  # payload: (functor, ((VAR, name) | (CONST, number), ...))


def order_body(
    literals: Sequence[Literal],
    initially_bound: frozenset[str] = frozenset(),
    first: int | None = None,
    sizes: dict[str, int] | None = None,
) -> tuple[int, ...]:
    """Return an evaluation order (original indices) for a rule body.

    The greedy order runs negative literals and test-only built-ins as
    soon as their variables are bound (cheap filters; negation
    *requires* bound variables), equality as soon as one side is bound,
    generative built-ins once their required arguments are bound, and
    positive literals by how many argument positions are already bound.
    ``first`` forces one literal to the front (the semi-naive delta
    occurrence).  ``sizes`` (predicate → cardinality) switches the
    positive-literal heuristic from "most bound arguments" to an
    estimated scan cost ``|relation| / 4^bound_args`` — the
    statistics-aware ordering of experiment E15.  Raises
    :class:`SafetyError` when no safe order exists (a negative literal
    whose variables can never all be bound).
    """
    remaining = set(range(len(literals)))
    bound = set(initially_bound)
    plan: list[int] = []
    # a relation with no stored tuples carries no cardinality evidence
    # (an IDB predicate not yet populated, a top-down table): assume it
    # is as large as the largest known relation, so bound-argument
    # connectivity still ranks it — a zero-cost guess would schedule
    # recursive literals before their generators, unbinding them.
    unknown_size = max(sizes.values(), default=1) if sizes else 1

    def eligible_class(index: int) -> int | None:
        lit = literals[index]
        lit_vars = lit.atom.variables()
        if lit.negative:
            return 0 if lit_vars <= bound else None
        pred = lit.atom.pred
        if not is_builtin_predicate(pred):
            return 2
        if lit_vars <= bound:
            return 0
        for mode in modes_for(pred):
            required: set[str] = set()
            for pos in mode.requires:
                if pos < len(lit.atom.args):
                    required |= lit.atom.args[pos].variables()
            if required <= bound:
                return 1 if pred == "=" else 3
        return None

    if first is not None:
        plan.append(first)
        remaining.discard(first)
        bound |= literals[first].atom.variables()

    while remaining:
        best: tuple | None = None
        for index in sorted(remaining):
            klass = eligible_class(index)
            if klass is None:
                continue
            lit = literals[index]
            bound_args = sum(
                1 for a in lit.atom.args if a.variables() <= bound
            )
            if sizes is not None and klass == 2:
                relation_size = sizes.get(lit.atom.pred, 0) or unknown_size
                cost = relation_size / (4 ** bound_args)
                candidate = (klass, cost, -bound_args, index)
            else:
                candidate = (klass, 0, -bound_args, index)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            unsatisfied = ", ".join(
                format_literal(literals[i]) for i in sorted(remaining)
            )
            raise SafetyError(f"no safe evaluation order for: {unsatisfied}")
        index = best[-1]
        plan.append(index)
        remaining.discard(index)
        if literals[index].positive:
            bound |= literals[index].atom.variables()
    return tuple(plan)


def _compile_builtin_arg(arg: Term) -> tuple:
    """One ``(kind, payload, term)`` descriptor for a builtin argument.

    Variables resolve by one binding lookup; variable-free terms pass
    through untouched; arithmetic over variables and numeric constants
    folds directly to an interned constant at run time (no intermediate
    ``Func`` allocation or ground-term re-evaluation); anything else
    substitutes at run time.
    """
    if isinstance(arg, Var):
        return (VAR, arg.name, arg)
    if not arg.variables():
        return (CONST, arg, arg)
    if (
        isinstance(arg, Func)
        and arg.functor in ARITHMETIC_FUNCTORS
        and all(
            isinstance(a, Var)
            or (isinstance(a, Const) and isinstance(a.value, (int, float)))
            for a in arg.args
        )
    ):
        parts = tuple(
            (VAR, a.name) if isinstance(a, Var) else (CONST, a.value)
            for a in arg.args
        )
        return (ARITH, (arg.functor, parts), arg)
    return (TERM, arg, arg)


class LiteralStep:
    """One executable step of a rule body.

    ``kind`` is ``"relation"`` (positive stored-predicate literal),
    ``"builtin"`` (positive built-in) or ``"negation"``.  For relation
    steps, ``probes`` describes the index key (argument positions whose
    variables are all bound before the step) and ``residuals`` the
    positions that extend the binding; ``fully_bound`` marks pure
    membership filters.  ``simple_residuals`` is the pre-extracted
    ``(position, name)`` list when *every* residual is a plain fresh
    variable — the overwhelmingly common Datalog shape, executed
    without the general recursive matcher.  For non-builtin negations
    ``neg_args`` holds one descriptor per argument (negation always
    runs fully bound).
    """

    __slots__ = (
        "index",
        "literal",
        "kind",
        "bound_before",
        "probe_positions",
        "probes",
        "residuals",
        "simple_residuals",
        "fully_bound",
        "neg_args",
        "builtin_args",
        "builtin_handler",
    )

    def __init__(
        self,
        index: int,
        literal: Literal,
        kind: str,
        bound_before: frozenset[str],
        probe_positions: tuple[int, ...] = (),
        probes: tuple = (),
        residuals: tuple = (),
        fully_bound: bool = False,
        neg_args: tuple | None = None,
    ) -> None:
        self.index = index
        self.literal = literal
        self.kind = kind
        self.bound_before = bound_before
        self.probe_positions = probe_positions
        self.probes = probes
        self.residuals = residuals
        self.fully_bound = fully_bound
        self.neg_args = neg_args
        if residuals and all(kind_ == BIND for _, kind_, _ in residuals):
            self.simple_residuals = tuple(
                (pos, name) for pos, _, name in residuals
            )
        else:
            self.simple_residuals = None
        if kind == "builtin":
            # per-argument descriptors: variables resolve by one binding
            # lookup, variable-free terms pass through untouched, mixed
            # terms substitute at runtime.  Avoids rebuilding the whole
            # atom per candidate binding.
            self.builtin_args = tuple(
                _compile_builtin_arg(arg) for arg in literal.atom.args
            )
            # unknown predicates keep the None handler and fall back to
            # solve_builtin at run time, which raises the same
            # EvaluationError a direct call would.
            self.builtin_handler = handler_for(literal.atom.pred)
        else:
            self.builtin_args = None
            self.builtin_handler = None

    def __repr__(self) -> str:
        return (
            f"LiteralStep({self.index}, kind={self.kind!r}, "
            f"probe={self.probe_positions!r})"
        )


class HeadTemplate:
    """Precomputed head instantiation.

    When every head argument is a plain variable or a constant that
    canonicalizes at compile time, instantiation is a tuple of direct
    binding lookups; otherwise it falls back to
    :func:`~repro.engine.match.ground_atom` (substitute + evaluate).
    """

    __slots__ = ("atom", "fast", "parts")

    def __init__(self, atom: Atom) -> None:
        self.atom = atom
        parts: list[tuple[str, object]] = []
        fast = True
        for arg in atom.args:
            if isinstance(arg, Var):
                parts.append((VAR, arg.name))
            elif arg.is_ground():
                try:
                    parts.append((CONST, evaluate_ground(arg)))
                except (NotInUniverseError, EvaluationError):
                    fast = False
                    break
            else:
                fast = False
                break
        self.fast = fast
        self.parts = tuple(parts) if fast else ()

    def instantiate(self, binding: Mapping[str, Term]) -> Atom | None:
        """The head fact under ``binding``, or None when outside U."""
        if self.fast:
            args: list[Term] = []
            for kind, payload in self.parts:
                if kind == VAR:
                    value = binding.get(payload)
                    if value is None:
                        return ground_atom(self.atom, binding)
                    args.append(value)
                else:
                    args.append(payload)
            atom = Atom(self.atom.pred, args)
            # binding values are U-elements and CONST parts evaluated at
            # compile time: skip the per-argument groundness walk that
            # Database.add would otherwise repeat for every derivation.
            atom._ground = True
            return atom
        return ground_atom(self.atom, binding)


class RulePlan:
    """A rule compiled to an ordered sequence of literal steps."""

    __slots__ = (
        "rule",
        "order",
        "steps",
        "head",
        "first",
        "initially_bound",
        "_spec",
        # its specialization refers back to it weakly (no cycle)
        "__weakref__",
    )

    def __init__(
        self,
        rule: Rule | None,
        order: tuple[int, ...],
        steps: tuple[LiteralStep, ...],
        head: HeadTemplate | None,
        first: int | None,
        initially_bound: frozenset[str],
    ) -> None:
        self.rule = rule
        self.order = order
        self.steps = steps
        self.head = head
        self.first = first
        self.initially_bound = initially_bound
        # lazy per-plan specialization cache; the compiled-closure
        # executor (repro.engine.exec.specialize) hangs its state here.
        # Populated on first execution, after compile_rule has finished
        # mutating head/rule.
        self._spec = None

    def instantiate_head(self, binding: Mapping[str, Term]) -> Atom | None:
        assert self.head is not None, "body-only plan has no head template"
        return self.head.instantiate(binding)

    def __repr__(self) -> str:
        return f"RulePlan(order={self.order!r}, first={self.first!r})"


def _compile_relation_step(
    index: int, literal: Literal, bound: frozenset[str]
) -> LiteralStep:
    atom = literal.atom
    probe_positions: list[int] = []
    probes: list[tuple[int, str, object]] = []
    residuals: list[tuple[int, str, object]] = []
    seen_here: set[str] = set()
    for pos, arg in enumerate(atom.args):
        arg_vars = arg.variables()
        if arg_vars <= bound and not (arg_vars & seen_here):
            # ground at this step (given bound-so-far): part of the key
            if isinstance(arg, Var):
                probes.append((pos, VAR, arg.name))
            elif not arg_vars:
                try:
                    probes.append((pos, CONST, evaluate_ground(arg)))
                except (NotInUniverseError, EvaluationError):
                    # defer to runtime so failure semantics match the
                    # seed exactly (silent vs raising, see tuplewise)
                    probes.append((pos, TERM, arg))
            else:
                probes.append((pos, TERM, arg))
            probe_positions.append(pos)
        elif isinstance(arg, Var) and arg.name not in bound | seen_here:
            residuals.append((pos, BIND, arg.name))
            seen_here.add(arg.name)
        else:
            # general match: repeated variables, or compound terms with
            # unbound variables.  Substitute at runtime only when the
            # term mixes in already-bound variables.
            needs_substitute = bool(arg_vars & (bound | seen_here))
            residuals.append((pos, MATCH, (arg, needs_substitute)))
            seen_here |= arg_vars
    fully_bound = bool(probe_positions) and not residuals
    return LiteralStep(
        index,
        literal,
        "relation",
        bound,
        tuple(probe_positions),
        tuple(probes),
        tuple(residuals),
        fully_bound,
    )


def _compile_negation_step(
    index: int, literal: Literal, bound: frozenset[str]
) -> LiteralStep:
    if is_builtin_predicate(literal.atom.pred):
        return LiteralStep(index, literal, "negation", bound, neg_args=None)
    neg_args: list[tuple[str, object]] = []
    for arg in literal.atom.args:
        if isinstance(arg, Var) and arg.name in bound:
            neg_args.append((VAR, arg.name))
        elif not arg.variables():
            try:
                neg_args.append((CONST, evaluate_ground(arg)))
            except (NotInUniverseError, EvaluationError):
                neg_args.append((TERM, arg))
        else:
            neg_args.append((TERM, arg))
    return LiteralStep(
        index, literal, "negation", bound, neg_args=tuple(neg_args)
    )


def compile_body(
    literals: Sequence[Literal],
    order: Sequence[int] | None = None,
    first: int | None = None,
    sizes: dict[str, int] | None = None,
    initially_bound: frozenset[str] = frozenset(),
) -> RulePlan:
    """Compile a body into a head-less :class:`RulePlan`.

    ``order`` reuses a precomputed evaluation order; otherwise
    :func:`order_body` runs with the given
    ``first``/``sizes``/``initially_bound`` arguments.
    """
    if order is None:
        order = order_body(
            literals, initially_bound, first=first, sizes=sizes
        )
    bound = frozenset(initially_bound)
    steps: list[LiteralStep] = []
    for index in order:
        literal = literals[index]
        if literal.negative:
            steps.append(_compile_negation_step(index, literal, bound))
        elif is_builtin_predicate(literal.atom.pred):
            steps.append(LiteralStep(index, literal, "builtin", bound))
            bound |= literal.atom.variables()
        else:
            steps.append(_compile_relation_step(index, literal, bound))
            bound |= literal.atom.variables()
    return RulePlan(
        None,
        tuple(order),
        tuple(steps),
        None,
        first,
        frozenset(initially_bound),
    )


def compile_rule(
    rule: Rule,
    first: int | None = None,
    sizes: dict[str, int] | None = None,
    initially_bound: frozenset[str] = frozenset(),
) -> RulePlan:
    """Compile a full rule: ordered body steps plus a head template.

    A grouping rule ``p(t1, ..., <Y>, ..., tn) <- body`` gets the
    template of its *pre-group* head ``p(t1, ..., Y, ..., tn)``: one
    head row per applicable binding, which the R1 step
    (:mod:`repro.engine.grouping`) then groups on the other slots.
    ``sizes`` orders joins by live relation cardinalities; None orders
    them by the syntactic heuristic alone.
    """
    plan = compile_body(
        rule.body,
        first=first,
        sizes=sizes,
        initially_bound=initially_bound,
    )
    plan.rule = rule
    head = rule.head
    if rule.is_grouping():
        head = Atom(
            head.pred,
            [arg.inner if isinstance(arg, GroupTerm) else arg for arg in head.args],
        )
    plan.head = HeadTemplate(head)
    return plan


#: Bumped by every :func:`~repro.terms.term.clear_intern_table`.  A
#: specialized plan bakes dense term IDs into its closure, so a
#: :class:`PlanCache` that sees a newer generation drops its plans.
_generation = 0


def _next_generation() -> None:
    global _generation
    _generation += 1


register_clear_listener(_next_generation)


class PlanCache:
    """Compiled plans keyed ``(rule, first, initially_bound)``.

    Each key compiles once, against the relation sizes its first caller
    passes (the ``sized-once`` policy: joins are ordered by live
    cardinalities, and a plan, once built, is kept), and is then shared
    by every run that asks — plans hold no database references.  Plans
    never outlive the intern table: the cache empties itself the first
    time it is read after a :func:`~repro.terms.term.clear_intern_table`.
    Concurrent readers may race to compile one key; either plan is
    correct, and the last write wins.
    """

    __slots__ = ("_plans", "_generation")

    def __init__(self) -> None:
        self._plans: dict[tuple, RulePlan] = {}
        self._generation = _generation

    def get(
        self,
        rule: Rule,
        first: int | None,
        initially_bound: frozenset[str],
        sizes: dict[str, int] | None,
    ) -> tuple[RulePlan, bool]:
        """The plan for the key and whether this call compiled it."""
        if self._generation != _generation:
            self._plans = {}
            self._generation = _generation
        key = (rule, first, initially_bound)
        plan = self._plans.get(key)
        if plan is not None:
            return plan, False
        plan = compile_rule(
            rule, first=first, sizes=sizes, initially_bound=initially_bound
        )
        self._plans[key] = plan
        return plan, True

    def __len__(self) -> int:
        return len(self._plans)
