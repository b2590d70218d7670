"""LDL1 term algebra (paper Section 2.1).

Terms extend classical first-order terms with finite sets:

* :class:`Var` — a logical variable (``X``, ``Y``, ``_``),
* :class:`Const` — a constant: a symbol (``john``), a number, or a string,
* :class:`Func` — a compound term ``f(t1, ..., tn)``,
* :class:`SetVal` — a *ground* finite set, the interpretation of ``{}``
  and of enumerated sets under the LDL1 universe (Section 2.2),
* :class:`SetPattern` — a syntactic enumerated-set term ``{t1, ..., tn}``
  possibly with a rest variable ``{t1, ..., tn | R}`` (sugar for nested
  ``scons``); becomes a :class:`SetVal` once ground,
* :class:`GroupTerm` — the grouping construct ``<t>`` used in rule heads
  (and, in LDL1.5, rule bodies).

All terms are immutable and hashable.  Ground terms form the LDL1
universe *U*; :func:`evaluate_ground` folds the built-in constructor
``scons`` and ground set patterns into canonical :class:`SetVal` values,
raising :class:`~repro.errors.NotInUniverseError` when the result would
fall outside *U* (e.g. ``scons`` onto a non-set).

Two hot-path mechanisms live here:

* **cached hashes** — every term carries a ``_hash`` slot filled on the
  first ``hash()`` call; equality short-circuits on identity and on
  differing cached hashes before falling back to structural comparison.
  Cached hashes never survive pickling (``hash(str)`` is randomized per
  process), so every class reduces to its constructor arguments;
* **interning** — :func:`intern_term` maps equally spelled ground
  terms to one canonical representative.  :func:`evaluate_ground` and
  the storage codec intern every term they produce, so facts flowing
  through the evaluator, the durable store, and the server protocol
  share subterm objects and equality in join probes usually hits the
  ``is`` fast path.  A per-term ``_interned`` flag marks canonical
  representatives so re-evaluating an already-canonical term is a
  single attribute load.  The table uses ``dict.setdefault``: under
  concurrent decodes (server executor threads) two equal representatives
  can transiently escape, which is benign — identity is only ever a fast
  path over structural equality.  :func:`clear_intern_table` releases
  the table (e.g. between long-lived server workloads);
* **dense term IDs** — every canonical representative is also assigned
  a dense ``int`` ID at intern time, with a reverse table mapping IDs
  back to terms (:func:`term_of_id`).  Two ID notions coexist because
  ``Const.__eq__`` ignores ``quoted`` while the intern table does not:

  - :func:`term_id` — the *faithful* ID, 1:1 with intern-table entries
    (``'a'`` and ``a``, or ``f(1, 'a')`` and ``f(1, a)``, get distinct
    IDs), used by the storage codec so round-trips preserve printing;
  - :func:`row_id` — the *equality-class* ID shared by all terms that
    compare equal, used by the relation storage and the specialized
    executors so ID equality coincides exactly with term equality.
    A class's ID is the faithful ID of its *plain* member — every
    string in it unquoted — which is registered before any quoted
    variant, so decoding out of ID space never depends on intern order.

  The two IDs differ exactly for quoted strings and the compounds that
  contain one.  IDs are assigned under a small lock (so the dense
  sequence has no holes) and are process-local, never persisted as-is.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Mapping

from repro.errors import EvaluationError, NotInUniverseError

#: Name of the built-in binary set constructor (paper Section 2.1).
SCONS = "scons"

#: Function symbols evaluated arithmetically when all arguments are numbers.
ARITHMETIC_FUNCTORS = frozenset({"+", "-", "*", "/", "mod", "min", "max", "abs"})


class Term:
    """Abstract base class for all LDL1 terms."""

    __slots__ = ()

    #: Rank used by :func:`sort_key` to order terms of different kinds.
    _kind_rank = 99

    def is_ground(self) -> bool:
        """Return True when the term contains no variables."""
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        """Return the set of variable names occurring in the term."""
        raise NotImplementedError

    def substitute(self, binding: Mapping[str, "Term"]) -> "Term":
        """Replace variables per ``binding``; unbound variables stay."""
        raise NotImplementedError

    def walk(self) -> Iterator["Term"]:
        """Yield this term and every subterm, pre-order."""
        yield self

    def sort_key(self):
        """Deterministic total-order key across all term kinds."""
        raise NotImplementedError


class Var(Term):
    """A logical variable, identified by name."""

    __slots__ = ("name", "_hash", "_interned", "_tid", "_rid")
    _kind_rank = 0

    def __init__(self, name: str) -> None:
        self.name = name
        self._hash = None
        self._interned = False
        self._tid = None
        self._rid = None

    def is_ground(self) -> bool:
        return False

    def variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return binding.get(self.name, self)

    def sort_key(self):
        return (self._kind_rank, self.name)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((Var, self.name))
            self._hash = h
        return h

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Const(Term):
    """A constant: a symbol, an integer, a float, or a quoted string.

    Symbols and strings are both carried as ``str``; ``quoted`` records
    whether the constant was written as a quoted string, which only
    affects printing.
    """

    __slots__ = ("value", "quoted", "_hash", "_interned", "_tid", "_rid")
    _kind_rank = 1

    def __init__(self, value, quoted: bool = False) -> None:
        if not isinstance(value, (int, float, str)) or isinstance(value, bool):
            raise TypeError(f"unsupported constant payload: {value!r}")
        self.value = value
        self.quoted = quoted and isinstance(value, str)
        self._hash = None
        self._interned = False
        self._tid = None
        self._rid = None

    def is_ground(self) -> bool:
        return True

    def variables(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return self

    def sort_key(self):
        if isinstance(self.value, str):
            return (self._kind_rank, 1, self.value)
        return (self._kind_rank, 0, float(self.value), str(self.value))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Const)
            and self.value == other.value
            and type(self.value) is type(other.value)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((Const, type(self.value).__name__, self.value))
            self._hash = h
        return h

    def __reduce__(self):
        return (Const, (self.value, self.quoted))

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Func(Term):
    """A compound term ``functor(args...)`` with a fixed arity."""

    __slots__ = ("functor", "args", "_hash", "_interned", "_ground", "_tid", "_rid")
    _kind_rank = 2

    def __init__(self, functor: str, args: Iterable[Term]) -> None:
        self.functor = functor
        self.args = tuple(args)
        self._hash = None
        self._interned = False
        self._ground = None
        self._tid = None
        self._rid = None
        if not self.args:
            raise ValueError(
                f"zero-arity Func {functor!r}; use Const for plain symbols"
            )

    def is_ground(self) -> bool:
        g = self._ground
        if g is None:
            g = all(a.is_ground() for a in self.args)
            self._ground = g
        return g

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.variables()
        return out

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return Func(self.functor, [a.substitute(binding) for a in self.args])

    def walk(self) -> Iterator[Term]:
        yield self
        for a in self.args:
            yield from a.walk()

    def sort_key(self):
        return (
            self._kind_rank,
            self.functor,
            len(self.args),
            tuple(a.sort_key() for a in self.args),
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Func):
            return False
        h1, h2 = self._hash, other._hash
        if h1 is not None and h2 is not None and h1 != h2:
            return False
        return self.functor == other.functor and self.args == other.args

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((Func, self.functor, self.args))
            self._hash = h
        return h

    def __reduce__(self):
        return (Func, (self.functor, self.args))

    def __repr__(self) -> str:
        return f"Func({self.functor!r}, {list(self.args)!r})"


class SetVal(Term):
    """A ground finite set — an element of F(U) in the LDL1 universe."""

    __slots__ = ("elements", "_hash", "_interned", "_tid", "_rid")
    _kind_rank = 3

    def __init__(self, elements: Iterable[Term] = ()) -> None:
        elems = frozenset(elements)
        for e in elems:
            if not isinstance(e, Term):
                raise TypeError(f"set element is not a Term: {e!r}")
            if not e.is_ground():
                raise ValueError(f"SetVal element must be ground: {e!r}")
        self.elements = elems
        self._hash = None
        self._interned = False
        self._tid = None
        self._rid = None

    @classmethod
    def from_ground(cls, elements: Iterable[Term]) -> "SetVal":
        """Build from elements already known to be ground U-elements.

        Skips the per-element validation walk; only for callers whose
        inputs come out of :func:`evaluate_ground` or an existing
        :class:`SetVal` — set algebra in the builtins, for instance.
        """
        self = cls.__new__(cls)
        self.elements = frozenset(elements)
        self._hash = None
        self._interned = False
        self._tid = None
        self._rid = None
        return self

    def is_ground(self) -> bool:
        return True

    def variables(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return self

    def walk(self) -> Iterator[Term]:
        yield self
        for e in self.elements:
            yield from e.walk()

    def sort_key(self):
        return (
            self._kind_rank,
            len(self.elements),
            tuple(sorted(e.sort_key() for e in self.elements)),
        )

    def __contains__(self, item: Term) -> bool:
        return item in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Term]:
        return iter(sorted(self.elements, key=lambda t: t.sort_key()))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SetVal):
            return False
        h1, h2 = self._hash, other._hash
        if h1 is not None and h2 is not None and h1 != h2:
            return False
        return self.elements == other.elements

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((SetVal, self.elements))
            self._hash = h
        return h

    def __reduce__(self):
        return (SetVal, (tuple(self.elements),))

    def __repr__(self) -> str:
        return f"SetVal({sorted(self.elements, key=lambda t: t.sort_key())!r})"


class SetPattern(Term):
    """A syntactic enumerated set ``{t1, ..., tn}`` or ``{t1, ... | Rest}``.

    Appears in rules; duplicates among the ``ti`` collapse once ground
    (paper Section 1: "duplicate elements are eliminated during the set
    construction process").  ``rest``, when present, must be a variable
    or another set term and denotes the remaining elements, mirroring
    ``scons(t1, scons(..., rest))``.
    """

    __slots__ = ("items", "rest", "_hash", "_interned", "_tid", "_rid")
    _kind_rank = 4

    def __init__(self, items: Iterable[Term], rest: Term | None = None) -> None:
        self.items = tuple(items)
        self.rest = rest
        self._hash = None
        self._interned = False
        self._tid = None
        self._rid = None
        if rest is not None and not isinstance(rest, (Var, SetVal, SetPattern, Func)):
            raise TypeError(f"set-pattern rest must be a variable or set: {rest!r}")

    def is_ground(self) -> bool:
        rest_ground = self.rest is None or self.rest.is_ground()
        return rest_ground and all(t.is_ground() for t in self.items)

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for t in self.items:
            out |= t.variables()
        if self.rest is not None:
            out |= self.rest.variables()
        return out

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        items = tuple(t.substitute(binding) for t in self.items)
        rest = None if self.rest is None else self.rest.substitute(binding)
        pattern = SetPattern(items, rest)
        if pattern.is_ground():
            try:
                return evaluate_ground(pattern)
            except (EvaluationError, NotInUniverseError):
                # e.g. a rest bound to a non-set: stay a pattern; the
                # consumer's evaluation rejects the binding as not
                # applicable (Section 3.2).
                return pattern
        return pattern

    def walk(self) -> Iterator[Term]:
        yield self
        for t in self.items:
            yield from t.walk()
        if self.rest is not None:
            yield from self.rest.walk()

    def sort_key(self):
        rest_key = () if self.rest is None else self.rest.sort_key()
        return (
            self._kind_rank,
            tuple(t.sort_key() for t in self.items),
            rest_key,
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, SetPattern)
            and self.items == other.items
            and self.rest == other.rest
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((SetPattern, self.items, self.rest))
            self._hash = h
        return h

    def __reduce__(self):
        return (SetPattern, (self.items, self.rest))

    def __repr__(self) -> str:
        return f"SetPattern({list(self.items)!r}, rest={self.rest!r})"


class GroupTerm(Term):
    """The grouping construct ``<t>`` (paper Sections 2.1 and 4).

    In base LDL1 the inner term is a single variable and the construct
    appears only as a direct argument of a rule head.  LDL1.5 allows
    arbitrary inner terms and body occurrences; those are compiled away
    by :mod:`repro.transform`.
    """

    __slots__ = ("inner", "_hash", "_interned", "_tid", "_rid")
    _kind_rank = 5

    def __init__(self, inner: Term) -> None:
        self.inner = inner
        self._hash = None
        self._interned = False
        self._tid = None
        self._rid = None

    def is_ground(self) -> bool:
        return False

    def variables(self) -> frozenset[str]:
        return self.inner.variables()

    def substitute(self, binding: Mapping[str, Term]) -> Term:
        return GroupTerm(self.inner.substitute(binding))

    def walk(self) -> Iterator[Term]:
        yield self
        yield from self.inner.walk()

    def sort_key(self):
        return (self._kind_rank, self.inner.sort_key())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, GroupTerm) and self.inner == other.inner

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((GroupTerm, self.inner))
            self._hash = h
        return h

    def __reduce__(self):
        return (GroupTerm, (self.inner,))

    def __repr__(self) -> str:
        return f"GroupTerm({self.inner!r})"


#: Canonical representatives of ground terms, keyed structurally.  The
#: table grows with the set of distinct ground terms seen by a process;
#: long-lived servers can release it with :func:`clear_intern_table`.
_INTERN_TABLE: dict = {}

#: Reverse table: dense ID → canonical term.  Index ``tid`` holds the
#: term whose faithful ID is ``tid``; for an equality-class ID (``rid``)
#: the slot holds the class representative that relations decode to —
#: always the plain spelling, with every string unquoted
#: (``_assign_ids`` registers it eagerly), so decoded output never
#: depends on intern order.  Mutated in place only (``append``/
#: ``clear``) so closures may capture the list object.
_ID_TABLE: list[Term] = []

#: Numeric lane parallel to :data:`_ID_TABLE`: index ``tid`` holds the
#: raw Python number of a numeric :class:`Const` (the shape
#: ``fold_arith`` accepts: ``type(term) is Const`` with an int/float
#: payload) and None for every other term.  The compiled closures read
#: it to run arithmetic and comparisons directly in ID space — one list
#: subscript instead of materialize + isinstance checks per operand.
#: Mutated in place only (``append``/``clear``), in lockstep with
#: ``_ID_TABLE``, so closures may capture the list object.
_NUM_TABLE: list = []

#: Every dense-ID table, index-parallel: an ID assignment appends one
#: entry to each (:func:`_append_ids`) and a clear empties them all.
#: Code that saves and restores the ID tables must take every one, or
#: a table it missed falls out of step.
ID_TABLES: tuple[list, ...] = (_ID_TABLE, _NUM_TABLE)

#: Callbacks invoked by :func:`clear_intern_table`: modules that memoize
#: dense IDs process-wide (the vector kernels' number→ID and set-union
#: memos) register here so a clear cannot leave dangling IDs behind.
_CLEAR_LISTENERS: list = []


def register_clear_listener(fn) -> None:
    """Call ``fn()`` whenever :func:`clear_intern_table` runs.

    For process-wide caches keyed by (or holding) dense term IDs, which
    dangle when the ID tables reset.  Idempotent registration is the
    caller's concern; listeners must not raise.
    """
    _CLEAR_LISTENERS.append(fn)

#: Guards dense-ID assignment so the ID sequence stays gap-free and a
#: term's ``_tid``/``_rid`` pair is published atomically.
_ID_LOCK = threading.Lock()


def _append_ids(term: Term) -> int:
    """Append ``term``'s entry to every one of :data:`ID_TABLES`;
    returns its new dense ID.  The caller holds :data:`_ID_LOCK`."""
    tid = len(_ID_TABLE)
    number = (
        term.value
        if type(term) is Const and isinstance(term.value, (int, float))
        else None
    )
    for table, entry in zip(ID_TABLES, (term, number)):
        table.append(entry)
    return tid


def _assign_ids(term: Term) -> None:
    """Give a canonical representative its dense IDs (idempotent).

    Composite terms assign their subterms first — Func args left to
    right, set elements in iteration order (the same walk
    ``encode_term`` takes).  A term that is not its class's plain
    member — a quoted string, or a compound with a non-plain subterm —
    then registers its plain twin, built from the subterms' class
    representatives, and shares that twin's row ID.  So the dense-ID
    table stays topological: every subterm and every plain twin of an
    entry has a lower ID than the entry.
    """
    if term._tid is not None:
        return
    plain_rid = None
    if isinstance(term, Func):
        rids = [row_id(arg) for arg in term.args]
        if any(term_id(arg) != rid for arg, rid in zip(term.args, rids)):
            plain_rid = row_id(Func(term.functor, [_ID_TABLE[rid] for rid in rids]))
    elif isinstance(term, SetVal):
        elements = list(term)
        rids = [row_id(element) for element in elements]
        if any(term_id(e) != rid for e, rid in zip(elements, rids)):
            plain_rid = set_rid(rids)
    elif isinstance(term, Const) and term.quoted:
        plain_rid = row_id(Const(term.value))
    with _ID_LOCK:
        if term._tid is not None:
            return
        tid = _append_ids(term)
        term._rid = tid if plain_rid is None else plain_rid
        term._tid = tid


def _intern_key(term: Term):
    """Table key for ``term``, faithful to its spelling.

    ``Const.__eq__`` deliberately ignores ``quoted`` (it only affects
    printing), so equality — and the structural hash of a compound —
    cannot tell ``f(1, 'a')`` from ``f(1, a)``.  Interning must: the
    storage codec tags quoted strings differently, and what a term
    prints as must not depend on which variant a process happened to
    intern first.  Constants key on payload and quoting, compounds on
    the faithful IDs of their direct subterms.
    """
    if isinstance(term, Const):
        return (Const, term.value.__class__, term.value, term.quoted)
    if isinstance(term, Func):
        return (Func, term.functor, tuple([term_id(arg) for arg in term.args]))
    if isinstance(term, SetVal):
        return (SetVal, frozenset([term_id(e) for e in term.elements]))
    return term


def intern_term(term: Term) -> Term:
    """Return the canonical representative of a U-element.

    ``term`` must already be canonical (what :func:`evaluate_ground`
    returns, or built from such terms): whatever comes in becomes the
    table's entry for its key.  :func:`term_id` and :func:`row_id`
    canonicalize an uninterned term first, so arbitrary ground input
    reaches the table only through them.

    Structurally equal terms interned by the same process map to one
    object, so equality between interned terms usually succeeds on the
    ``is`` fast path and their cached hashes are computed once.  A term
    that already is the canonical representative carries
    ``_interned=True`` and returns immediately without touching the
    table.  The lookup uses ``dict.setdefault``; concurrent callers
    (server executor threads) may transiently both insert, which is
    benign — identity is a fast path over structural equality, never a
    substitute for it.
    """
    if term._interned:
        return term
    key = _intern_key(term)
    interned = _INTERN_TABLE.get(key)
    if interned is not None:
        return interned
    winner = _INTERN_TABLE.setdefault(key, term)
    if winner._tid is None:
        _assign_ids(winner)
    winner._interned = True
    return winner


def set_rid(rids: Iterable[int]) -> int:
    """The row ID of the set whose elements have row IDs ``rids``.

    The one constructor for sets built in ID space (grouping, the set
    kernels, regrouping): no element term is touched on a hit.  Its
    elements are class representatives, so the set is its own class's
    plain member and its key is exactly the :func:`_intern_key` of that
    set.  A miss appends the set directly, without :func:`_assign_ids`'
    walk: every element already has a lower ID and is plain, so the
    table stays topological.
    """
    key = (SetVal, frozenset(rids))
    found = _INTERN_TABLE.get(key)
    if found is None:
        term = SetVal.from_ground([_ID_TABLE[rid] for rid in key[1]])
        with _ID_LOCK:
            found = _INTERN_TABLE.get(key)
            if found is None:
                tid = _append_ids(term)
                term._rid = term._tid = tid
                term._interned = True
                _INTERN_TABLE[key] = term
                return tid
    rid = found._rid
    return row_id(found) if rid is None else rid


def intern_const(value, quoted: bool = False) -> Const:
    """Canonical :class:`Const` for ``value`` without allocating first.

    Equivalent to ``intern_term(Const(value, quoted))`` but probes the
    table directly, so the hot arithmetic/comparison paths skip the
    throwaway allocation whenever the constant has been seen before.
    """
    key = (Const, value.__class__, value, quoted)
    interned = _INTERN_TABLE.get(key)
    if interned is not None:
        return interned
    term = Const(value, quoted)
    winner = _INTERN_TABLE.setdefault(key, term)
    if winner._tid is None:
        _assign_ids(winner)
    winner._interned = True
    return winner


def intern_table_size() -> int:
    """Number of canonical representatives currently held."""
    return len(_INTERN_TABLE)


def term_id(term: Term) -> int:
    """The faithful dense ID of ``term``, interning it first if needed.

    1:1 with intern-table entries: quoted and unquoted string constants
    get *distinct* IDs, so ``term_of_id(term_id(t)) == t`` preserves
    the printing distinction the storage codec depends on.  The caller
    supplies a ground term; an uninterned one is canonicalized first
    (:func:`evaluate_ground`), so ``1 + 1`` gets the ID of ``2`` and a
    term outside U raises :class:`NotInUniverseError`.
    """
    tid = term._tid
    if tid is not None:
        return tid
    term = evaluate_ground(term)
    if term._tid is None:  # raced the _interned flag; settle under the lock
        _assign_ids(term)
    return term._tid


def row_id(term: Term) -> int:
    """The equality-class dense ID of ``term``, interning if needed.

    All terms that compare equal share one row ID (quoted and plain
    spellings collapse), so ID equality over row IDs coincides exactly
    with term equality — the invariant relations and the specialized
    executors are built on.  Like :func:`term_id`, an uninterned term is
    canonicalized first.
    """
    rid = term._rid
    if rid is not None:
        return rid
    term = evaluate_ground(term)
    if term._rid is None:
        _assign_ids(term)
    return term._rid


def term_of_id(tid: int) -> Term:
    """The canonical term for a dense ID (inverse of :func:`term_id`).

    For an equality-class ID this is the class's plain representative.  Raises :class:`IndexError` for IDs never assigned
    by this process (or assigned before a :func:`clear_intern_table`).
    """
    return _ID_TABLE[tid]


def id_table_size() -> int:
    """Number of dense IDs assigned so far (the reverse-table length)."""
    return len(_ID_TABLE)


def clear_intern_table() -> None:
    """Release every interned representative (the shared constants below
    are re-seeded).  Existing terms stay valid but lose their
    ``_interned`` flag and dense IDs, so interning one again registers
    it afresh instead of returning an ID that now names another term;
    only identity sharing with terms interned later is lost.  The dense
    ID tables reset with the intern table: relations populated before a
    clear must not outlive it (their row IDs would dangle), which holds
    for the intended use between independent server workloads."""
    for term in _ID_TABLE:
        term._interned = False
        term._tid = None
        term._rid = None
    _INTERN_TABLE.clear()
    for table in ID_TABLES:
        table.clear()
    for term in (EMPTY_SET, BOTTOM):
        _INTERN_TABLE.setdefault(_intern_key(term), term)
        _assign_ids(term)
        term._interned = True
    for listener in list(_CLEAR_LISTENERS):
        listener()


#: The empty set constant ``{}`` — interpreted as the empty SetVal.
EMPTY_SET = intern_term(SetVal())

#: The reserved bottom constant of Section 3.3, "whose usage is
#: prohibited in programs" and which the negation-to-grouping
#: transformation injects.
BOTTOM = intern_term(Const("$bottom"))


def mkset(elements: Iterable[Term]) -> SetVal:
    """Build a ground :class:`SetVal` from ground terms."""
    return SetVal(elements)


def const(value) -> Const:
    """Shorthand constructor for :class:`Const`."""
    return Const(value)


def _evaluate_arithmetic(functor: str, args: tuple[Term, ...]):
    """Fold an arithmetic functor applied to numeric constants.

    Returns the raw Python number; the caller interns it via
    :func:`intern_const` without an intermediate ``Const`` allocation.
    """
    values = []
    for a in args:
        if not isinstance(a, Const) or not isinstance(a.value, (int, float)):
            raise EvaluationError(
                f"arithmetic on non-number: {functor}({args!r})"
            )
        values.append(a.value)
    return fold_arithmetic_values(functor, values)


def fold_arithmetic_values(functor: str, values: list):
    """Apply an arithmetic functor to raw Python numbers.

    Shared by ground-term evaluation and the plan runner's precompiled
    arithmetic arguments.  Raises :class:`EvaluationError` on division
    or mod by zero and on unknown functors.
    """
    if functor == "+":
        result = values[0] + values[1]
    elif functor == "-":
        result = values[0] - values[1] if len(values) == 2 else -values[0]
    elif functor == "*":
        result = values[0] * values[1]
    elif functor == "/":
        if values[1] == 0:
            raise EvaluationError("division by zero")
        result = values[0] / values[1]
        if isinstance(values[0], int) and isinstance(values[1], int) and values[0] % values[1] == 0:
            result = values[0] // values[1]
    elif functor == "mod":
        if values[1] == 0:
            raise EvaluationError("mod by zero")
        result = values[0] % values[1]
    elif functor == "min":
        result = min(values)
    elif functor == "max":
        result = max(values)
    elif functor == "abs":
        result = abs(values[0])
    else:  # pragma: no cover - guarded by caller
        raise EvaluationError(f"unknown arithmetic functor {functor!r}")
    return result


def evaluate_ground(term: Term) -> Term:
    """Interpret a ground term as an element of the LDL1 universe U.

    Canonicalizes the term per the interpretation rules of Section 2.2:

    * ground :class:`SetPattern` terms become :class:`SetVal` values
      (with duplicates collapsed and the rest-set unioned in),
    * ``scons(t, S)`` becomes ``{t} | S`` when ``S`` is a set, and raises
      :class:`NotInUniverseError` otherwise (restriction 1),
    * arithmetic functors over numbers are folded to constants,
    * every other functor maps to "itself" (free interpretation).

    Every result is interned (:func:`intern_term`), so repeated
    evaluation of equal ground terms yields the identical object, and
    an already-canonical input returns itself after one flag check.
    Raises :class:`EvaluationError` on non-ground input.
    """
    if term._interned:
        return term
    if isinstance(term, (Const, Var, SetVal)):
        if isinstance(term, Var):
            raise EvaluationError(f"cannot evaluate non-ground term {term!r}")
        if isinstance(term, SetVal):
            # a set built from uncanonical elements (``{1 + 1}`` as a
            # SetVal) must not become the table's entry for ``{2}``
            elements = [evaluate_ground(e) for e in term.elements]
            if any(new is not old for new, old in zip(elements, term.elements)):
                return intern_term(SetVal.from_ground(elements))
        return intern_term(term)
    if isinstance(term, GroupTerm):
        raise EvaluationError(f"grouping term {term!r} is not a U-element")
    if isinstance(term, SetPattern):
        elements = [evaluate_ground(t) for t in term.items]
        if term.rest is not None:
            rest = evaluate_ground(term.rest)
            if not isinstance(rest, SetVal):
                raise NotInUniverseError(
                    f"set-pattern rest evaluated to a non-set: {rest!r}"
                )
            elements.extend(rest.elements)
        return intern_term(SetVal.from_ground(elements))
    if isinstance(term, Func):
        args = tuple(evaluate_ground(a) for a in term.args)
        if term.functor == SCONS:
            if len(args) != 2:
                raise EvaluationError("scons is binary")
            element, tail = args
            if not isinstance(tail, SetVal):
                raise NotInUniverseError(
                    f"scons onto a non-set is outside U: scons(_, {tail!r})"
                )
            return intern_term(SetVal.from_ground({element} | tail.elements))
        if term.functor in ARITHMETIC_FUNCTORS:
            return intern_const(_evaluate_arithmetic(term.functor, args))
        return intern_term(Func(term.functor, args))
    raise EvaluationError(f"unknown term kind: {term!r}")


def contains_group_term(term: Term) -> bool:
    """Return True when ``<...>`` occurs anywhere inside ``term``."""
    return any(isinstance(t, GroupTerm) for t in term.walk())


def group_terms_of(term: Term) -> list[GroupTerm]:
    """All grouping subterms of ``term`` in pre-order."""
    return [t for t in term.walk() if isinstance(t, GroupTerm)]
