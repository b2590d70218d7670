"""Compile-once rule plans: the executable IR of rule evaluation.

The seed engine re-derived everything per call: :func:`order_body`
ran every fixpoint iteration, ``Atom.substitute`` plus per-argument
groundness checks ran for every binding at every literal, and the head
was re-substituted per derived fact.  This module performs that
analysis *once* per (rule, delta-occurrence, planner) and emits a
:class:`RulePlan`:

* an evaluation order (from :func:`repro.engine.solve.order_body`),
* one :class:`LiteralStep` per body literal carrying its *probe spec*
  — which argument positions are ground at that step given the
  variables bound so far, how to produce each probe key part (constant
  / direct variable lookup / residual term evaluation), and which
  positions still need general matching — plus the step kind
  (relation scan, pure filter, negation, builtin),
* a precomputed :class:`HeadTemplate` that instantiates the head by
  direct binding lookups when possible.

Execution lives in :mod:`repro.engine.exec`: the default executor
compiles each plan once into a closure over ID rows, the tuple executor
keeps the original one-binding-at-a-time recursion as the reference.
:func:`run_plan` and :func:`apply_rule_plan` remain as thin wrappers
that route to the configured executor, extending bindings as immutable
chains (:mod:`repro.engine.binding`) so that a dict is materialized
only when a consumer asks for one.  Plans are cached and shared by
:class:`~repro.engine.context.EvalContext`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.engine.binding import ChainBinding
from repro.engine.builtins import handler_for
from repro.engine.database import Database
from repro.engine.match import ground_atom
from repro.errors import EvaluationError, NotInUniverseError
from repro.names import is_builtin_predicate
from repro.program.rule import Atom, Literal, Rule
from repro.terms.term import (
    ARITHMETIC_FUNCTORS,
    Const,
    Func,
    Term,
    Var,
    evaluate_ground,
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
        "planner",
        "first",
        "initially_bound",
        "_spec",
    )

    def __init__(
        self,
        rule: Rule | None,
        order: tuple[int, ...],
        steps: tuple[LiteralStep, ...],
        head: HeadTemplate | None,
        planner: str,
        first: int | None,
        initially_bound: frozenset[str],
    ) -> None:
        self.rule = rule
        self.order = order
        self.steps = steps
        self.head = head
        self.planner = planner
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
        return f"RulePlan(order={self.order!r}, planner={self.planner!r})"


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
                    # seed exactly (silent vs raising, see run_plan)
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
    planner: str = "static",
) -> RulePlan:
    """Compile a body into a head-less :class:`RulePlan`.

    ``order`` reuses a precomputed evaluation order; otherwise
    :func:`~repro.engine.solve.order_body` runs with the given
    ``first``/``sizes``/``initially_bound`` arguments.
    """
    from repro.engine.solve import order_body

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
        planner,
        first,
        frozenset(initially_bound),
    )


def compile_rule(
    rule: Rule,
    first: int | None = None,
    sizes: dict[str, int] | None = None,
    initially_bound: frozenset[str] = frozenset(),
    planner: str = "static",
) -> RulePlan:
    """Compile a full rule: ordered body steps plus a head template.

    Grouping rules get no head template (the R1 step builds grouped
    heads from equivalence classes, not per-binding instantiation).
    """
    plan = compile_body(
        rule.body,
        first=first,
        sizes=sizes,
        initially_bound=initially_bound,
        planner=planner,
    )
    plan.rule = rule
    if not rule.is_grouping():
        plan.head = HeadTemplate(rule.head)
    return plan



def run_plan(
    db: Database,
    plan: RulePlan,
    binding: Mapping[str, Term] | None = None,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    executor: str | None = None,
) -> Iterator[ChainBinding]:
    """Enumerate applicable bindings of a compiled body over ``db``.

    Routes to the configured executor (:mod:`repro.engine.exec`); the
    default is the compiled plan lane.  Yields
    :class:`ChainBinding` extensions of ``binding`` (read-only
    Mappings; call ``.materialize()`` for a plain dict).  ``overrides``
    swaps the tuple source of specific body occurrences (semi-naive
    deltas); ``negation_db`` checks negative literals against a
    different interpretation (well-founded reduct construction).
    """
    from repro.engine.exec import enumerate_bindings

    return iter(
        enumerate_bindings(
            db,
            plan,
            binding=binding,
            overrides=overrides,
            negation_db=negation_db,
            executor=executor,
        )
    )


def apply_rule_plan(
    db: Database,
    plan: RulePlan,
    overrides: SourceOverrides | None = None,
    negation_db: Database | None = None,
    executor: str | None = None,
) -> Iterator[Atom]:
    """Head facts derived by one (non-grouping) compiled rule over ``db``."""
    from repro.engine.exec import derive_facts

    return iter(
        derive_facts(
            db,
            plan,
            overrides=overrides,
            negation_db=negation_db,
            executor=executor,
        )
    )
