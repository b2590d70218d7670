"""Spans recorded from ledger code around calls into the program.

A span is ``name, start, end, parent, op``: spans of one op share its
id, and a span's parent is the span that was open when it began.  They
are kept in memory and written out when the run ends.  A span's *self
time* is its duration minus the part its children cover, so the self
times under one root add up to the root's duration exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[dict] = []
        self._open: list[int] = []  # indices of the spans now open
        self.op: object = None  # id shared by the spans of the current op

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, func):
        """``func`` with a span around every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span, in the order given."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def by_op(spans: list[dict]) -> dict:
    """``{op: {name: self seconds}}`` plus the root duration per op
    under the name ``"<root>"`` (spans with no parent)."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        per = out.setdefault(span["op"], {})
        per[span["name"]] = per.get(span["name"], 0.0) + own
        if span["parent"] is None:
            per["<root>"] = per.get("<root>", 0.0) + span["end"] - span["start"]
    return out
