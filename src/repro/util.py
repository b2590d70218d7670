"""Small shared utilities."""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager

#: Upper bound for temporary recursion-limit bumps.  Python frames in
#: CPython ≥ 3.11 are cheap, but generator resumption still consumes C
#: stack, so an unbounded limit could fault instead of raising.
MAX_RECURSION_LIMIT = 500_000


@contextmanager
def deep_recursion(estimated_frames: int):
    """Temporarily raise the interpreter recursion limit.

    Deep derivations (a 1000-edge chain explained or solved top-down)
    legitimately recurse proportionally to the data.  ``estimated_frames``
    is the caller's worst-case need; the limit is only ever raised,
    never lowered, and restored afterwards.
    """
    previous = sys.getrecursionlimit()
    target = min(max(previous, estimated_frames), MAX_RECURSION_LIMIT)
    sys.setrecursionlimit(target)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


@contextmanager
def gc_paused():
    """Keep CPython's cyclic garbage collector off for one bounded call.

    Building or repairing a model allocates facts that all survive
    until the model is dropped, the pattern a generational collector
    handles worst: every young-generation pass rewalks the survivors,
    and a full pass runs whenever the long-lived heap has grown by a
    quarter, so a batch job pays for its own model several times over.
    Reference counting still frees every dead object inside the pause;
    only the rewalking of live survivors stops.  Usable as ``with
    gc_paused():`` or as a decorator.

    Thread rule: the collector is re-enabled on exit only if it was
    enabled on entry, with no lock and no counter.  Overlapping pauses
    in two threads can at worst end a pause early (the first to leave
    turns the collector back on); they can never leave it off.  A
    caller that disabled the collector itself finds it still disabled.

    This is memory-safe only because the engine creates no reference
    cycle whose size grows with the data: what a paused call leaves for
    the collector is a constant amount of compile-time garbage, so the
    pause defers no data-sized work.  ``tests/test_gc_pause.py`` holds
    that invariant.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
