"""Exception hierarchy for the LDL1 reproduction.

All library-raised exceptions derive from :class:`LDLError` so callers can
catch one type at the API boundary.  Sub-hierarchies mirror the pipeline
stages: lexing/parsing, well-formedness, stratification, evaluation, and the
magic-sets compiler.
"""

from __future__ import annotations


class LDLError(Exception):
    """Base class for every error raised by the library."""


class LexerError(LDLError):
    """Raised when the tokenizer meets an unexpected character.

    Carries the 1-based ``line`` and ``column`` of the offending input.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LDLError):
    """Raised when the parser meets an unexpected token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class WellFormednessError(LDLError):
    """A rule violates the syntactic restrictions of Section 2.1.

    Grouping rules must have no ``<X>`` in the body (restriction W1), at
    most one ``<X>`` in the head, directly as an argument (W2), and an
    all-positive body (W3).
    """


class SafetyError(WellFormednessError):
    """A rule is not range-restricted (Section 7 restriction).

    Every head variable and every variable of a negated literal must occur
    in a positive, non-built-in body literal.
    """


class NotAdmissibleError(LDLError):
    """The program cannot be layered (stratified) per Section 3.1."""

    def __init__(self, message: str, cycle: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.cycle = cycle


class NotInUniverseError(LDLError):
    """A term evaluates to an object outside the LDL1 universe U.

    For example ``scons(t, S)`` where ``S`` is not a set (Section 2.2,
    restriction 1 on built-in functions).
    """


class EvaluationError(LDLError):
    """Raised for runtime evaluation failures (bad built-in modes, etc.)."""


class NonGroundFactError(EvaluationError, ValueError):
    """A fact to store has a variable (or a ``<X>``) among its arguments.

    The evaluators report it as an :class:`EvaluationError` and
    :class:`~repro.engine.database.Database` as a :class:`ValueError`;
    being both, it is one error that keeps either contract.
    """


class InfiniteGroupError(EvaluationError):
    """A grouping rule would have to group an infinite set.

    Cannot occur for safe programs over finite databases; raised defensively
    by the engine's sanity checks.
    """


class MagicRewriteError(LDLError):
    """The magic-sets compiler could not rewrite the program or query."""


class StorageError(LDLError):
    """Durable-storage failure: codec mismatch, corrupt snapshot, bad WAL.

    Torn WAL tails are *not* errors — the log truncates them on open as
    part of normal crash recovery.  This exception signals damage the
    store cannot repair on its own (unreadable magic, corrupt snapshot
    body, codec version from the future).
    """


class ProtocolError(LDLError):
    """A malformed client request on the wire protocol.

    Raised by the server for requests that cannot be dispatched at all
    (not JSON, not an object, missing/unknown ``op``, oversized line)
    and by :class:`repro.server.Client` for malformed responses.
    """


class ServerError(LDLError):
    """A server-reported request failure, re-raised client-side.

    ``etype`` carries the server-side exception class name (e.g.
    ``"ParseError"``) so callers can distinguish failure modes without
    depending on the server's stack.
    """

    def __init__(self, message: str, etype: str = "ServerError") -> None:
        super().__init__(message)
        self.etype = etype


class UnstableMagicEvaluationError(EvaluationError):
    """The constrained magic evaluation failed its stability assertion.

    After the alternating saturation phases reach a global fixpoint, one
    more application of the grouping/negation rules must derive nothing
    new; this error signals that invariant was violated (a bug or an
    inadmissible input program).
    """
