"""Shared per-binding step interpretation.

The compile side (:mod:`repro.engine.plan`) reduces every body literal
to descriptor tuples; this module owns their runtime meaning for ONE
binding at a time: probe-key evaluation, residual matching, builtin
argument materialization, and negation argument evaluation.  The
reference executor (:mod:`repro.engine.exec.tuplewise`) composes these
into a recursive enumeration; the compiled closures
(:mod:`repro.engine.exec.specialize`) call them at the term boundary
for the shapes that are inherently per-binding (negated built-ins,
general residual matching, non-inlined built-ins).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.engine.binding import ChainBinding
from repro.engine.builtins import solve_builtin
from repro.engine.database import Database
from repro.engine.match import match_term_chain
from repro.engine.plan import ARITH, BIND, CONST, MATCH, VAR, LiteralStep
from repro.errors import EvaluationError, NotInUniverseError
from repro.terms.term import (
    Const,
    Term,
    evaluate_ground,
    fold_arithmetic_values,
    intern_const,
)


def probe_key(
    probes: tuple, binding: ChainBinding, lenient: bool
) -> tuple[Term, ...] | None:
    """Evaluate the probe descriptors to a key tuple.

    ``lenient`` controls failure semantics for residual terms, matching
    the seed: probing the database caught only :class:`EvaluationError`
    (``NotInUniverseError`` propagated), while matching override tuples
    went through ``match_term`` which swallowed both.
    """
    parts: list[Term] = []
    for _pos, kind, payload in probes:
        if kind == CONST:
            parts.append(payload)
        elif kind == VAR:
            parts.append(binding[payload])
        else:
            try:
                parts.append(evaluate_ground(payload.substitute(binding)))
            except EvaluationError:
                return None
            except NotInUniverseError:
                if lenient:
                    return None
                raise
    return tuple(parts)


def fold_arith(functor: str, parts: tuple, binding) -> Const | None:
    """Evaluate a precompiled arithmetic argument, or None to fall back.

    Falls back (to substitute-then-evaluate semantics) when an operand
    is unbound, non-numeric, or the fold itself fails (e.g. division by
    zero) — the general path then reproduces the exact builtin
    behavior for those cases.
    """
    values = []
    for kind, payload in parts:
        if kind == VAR:
            bound = binding.get(payload)
            if (
                bound is None
                or type(bound) is not Const
                or not isinstance(bound.value, (int, float))
            ):
                return None
            values.append(bound.value)
        else:
            values.append(payload)
    try:
        return intern_const(fold_arithmetic_values(functor, values))
    except EvaluationError:
        return None


def match_residuals(
    residuals: tuple,
    args: tuple[Term, ...],
    binding: ChainBinding,
    substituted: dict[int, Term] | None,
) -> Iterator[ChainBinding]:
    """Extend ``binding`` over the non-probe positions of one tuple."""
    if not residuals:
        yield binding
        return
    pos, kind, payload = residuals[0]
    rest = residuals[1:]
    if kind == BIND:
        bound = binding.get(payload)
        if bound is None:
            yield from match_residuals(
                rest, args, binding.bind(payload, args[pos]), substituted
            )
        elif bound == args[pos]:
            yield from match_residuals(rest, args, binding, substituted)
        return
    term, needs_substitute = payload
    if needs_substitute and substituted is not None:
        term = substituted[pos]
    for ext in match_term_chain(term, args[pos], binding):
        yield from match_residuals(rest, args, ext, substituted)


def substituted_residuals(
    step: LiteralStep, binding: ChainBinding
) -> dict[int, Term] | None:
    """Mixed residual terms substituted once per outer binding, as the
    seed did by substituting the whole atom before matching."""
    substituted: dict[int, Term] | None = None
    for pos, kind, payload in step.residuals:
        if kind == MATCH and payload[1]:
            if substituted is None:
                substituted = {}
            substituted[pos] = payload[0].substitute(binding)
    return substituted


def builtin_call_args(
    step: LiteralStep, binding: ChainBinding
) -> tuple[Term, ...]:
    """Materialize a builtin literal's arguments under ``binding``."""
    args = []
    for kind, payload, term in step.builtin_args:
        if kind == VAR:
            value = binding.get(payload)
            args.append(term if value is None else value)
        elif kind == CONST:
            args.append(payload)
        elif kind == ARITH:
            value = fold_arith(payload[0], payload[1], binding)
            args.append(term.substitute(binding) if value is None else value)
        else:
            args.append(term.substitute(binding))
    return tuple(args)


def builtin_step(
    step: LiteralStep, binding: ChainBinding
) -> Iterable[ChainBinding]:
    """Bindings produced by one builtin literal under ``binding``."""
    args = builtin_call_args(step, binding)
    handler = step.builtin_handler
    if handler is not None:
        return handler(args, binding)
    # unknown predicates fall back to solve_builtin, which raises the
    # same EvaluationError a direct call would.
    return solve_builtin(step.literal.atom.pred, args, binding)


def negation_args(
    step: LiteralStep, binding: ChainBinding
) -> tuple[Term, ...] | None:
    """The ground argument tuple of a negated stored literal, or None
    when an argument is unbound or falls outside U (both: not
    applicable, the binding fails)."""
    args: list[Term] = []
    for kind, payload in step.neg_args:
        if kind == CONST:
            args.append(payload)
        elif kind == VAR:
            value = binding.get(payload)
            if value is None:
                return None
            args.append(value)
        else:
            try:
                args.append(evaluate_ground(payload.substitute(binding)))
            except (NotInUniverseError, EvaluationError):
                return None
    return tuple(args)


def negated_builtin_holds(step: LiteralStep, binding: ChainBinding) -> bool:
    """Closed test: does the negated built-in FAIL under ``binding``?"""
    substituted = step.literal.atom.substitute(binding)
    return not any(
        True for _ in solve_builtin(substituted.pred, substituted.args, binding)
    )


def relation_step(
    db: Database,
    step: LiteralStep,
    binding: ChainBinding,
    source: Iterable[tuple[Term, ...]] | None,
) -> Iterator[ChainBinding]:
    """One relation step for one binding (the tuple-at-a-time shape)."""
    if source is None:
        key = probe_key(step.probes, binding, lenient=False)
        if key is None:
            return
        tuples = db.lookup(step.literal.atom.pred, step.probe_positions, key)
        if step.fully_bound:
            for _args in tuples:
                yield binding
            return
        check_probes = False
    else:
        tuples = source
        key = probe_key(step.probes, binding, lenient=True)
        if key is None:
            return
        check_probes = bool(step.probes)
    simple = step.simple_residuals
    if simple is not None and not check_probes:
        # all residuals are fresh variables: bind them directly with
        # one chain node each, skipping the general recursive matcher.
        for args in tuples:
            ext = binding
            for pos, name in simple:
                bound = ext.get(name)
                if bound is None:
                    ext = ChainBinding(ext, name, args[pos])
                elif bound != args[pos]:
                    break
            else:
                yield ext
        return
    substituted = substituted_residuals(step, binding)
    for args in tuples:
        if check_probes:
            ok = True
            for (pos, _kind, _payload), part in zip(step.probes, key):
                if args[pos] != part:
                    ok = False
                    break
            if not ok:
                continue
            if not step.residuals:
                if len(args) == len(step.literal.atom.args):
                    yield binding
                continue
        yield from match_residuals(step.residuals, args, binding, substituted)


def negation_step(
    negation_db: Database, step: LiteralStep, binding: ChainBinding
) -> Iterator[ChainBinding]:
    """One negation step for one binding (the tuple-at-a-time shape)."""
    if step.neg_args is None:
        if negated_builtin_holds(step, binding):
            yield binding
        return
    args = negation_args(step, binding)
    if args is None:
        return
    if not negation_db.contains_tuple(step.literal.atom.pred, args):
        yield binding
