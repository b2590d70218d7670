"""Speed calibration: a fixed kernel timed on the under-test core.

On a shared box the same code runs 30-40 % slower for minutes at a time
(a neighbour on the sibling hyperthread, not steal: CPU time inflates
with wall time).  Two sets of runs of identical code then disagree by
more than any useful regression bound.  So between ops -- while the
closed loop leaves the process under test idle -- the generator hops
onto that process's core, times a fixed kernel of interpreter work
(dict inserts and probes, tuple and string allocation, integer
arithmetic), and hops back.  ``speed factor = kernel time / NOMINAL``,
and every time the ledger reports is divided by the factor in force
when it was measured: *milliseconds at nominal speed*.  Raw times and
the factors are kept in the result file.

The idle assumption is checked, not trusted: the CPU clock of the
process under test is read before and after each kernel run, and a
sample during which that process ran is discarded.  Otherwise a program
that put work off until after its reply would slow the kernel, raise
the factor and have its latencies and CPU time scaled *down* for it.
With the sample discarded the deferred work is charged in full: it
stays in ``cpu_ms_per_op``, which covers the whole phase, and is
divided by a factor taken only from moments the core was free.  When no
sample at all survives, the factor is 1: raw time.

``NOMINAL_S`` is a choice of unit and nothing more: every comparison
the ledger makes is between two runs divided by the same constant.  Its
value is this kernel's time on a quiet run of the box the sizes were
tuned on, so calibrated and raw times agree there.  The kernel measures
interpreter speed; the same factor is applied to the part of a time
that is spent in ``fsync`` or reading files (about 4 % of a
``serve_write`` op), which it does not describe.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

from sut import cpu_clock

NOMINAL_S = 0.00235
MIN_GAP_S = 0.025  # do not sample more often than this
#: a sample is discarded when the process under test ran for more than
#: this share of it: the kernel's time then says how busy that process
#: was, not how fast the core is
BUSY_SHARE = 0.05


def kernel() -> float:
    """Seconds one run of the fixed kernel takes right now."""
    was_enabled = gc.isenabled()
    gc.disable()  # a collection's cost depends on this process's heap
    try:
        start = time.perf_counter()
        total = 0
        for _ in range(5):
            table = {}
            for i in range(1500):
                table[(i, i ^ 5)] = i * i
            for i in range(1500):
                total += table[(i, i ^ 5)]
            names = [str(i) for i in range(600)]
            total += len(set(names))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Calibrator:
    """Kernel samples over time, and the factor in force at a moment."""

    def __init__(self, cores) -> None:
        self.cores = cores
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.discarded = 0  # samples the process under test ran during
        #: seconds spent sampling so far; a caller that times across a
        #: sample subtracts the difference
        self.spent = 0.0
        self._last = float("-inf")  # when the latest sample ended

    def sample(self, pid: int | None, force: bool = True) -> None:
        """Time the kernel once on the under-test core.

        ``pid`` is the process that is supposed to be idle meanwhile
        (None when none is running).
        """
        began = time.perf_counter()
        if not force and began - self._last < MIN_GAP_S:
            return
        if self.cores.pinned:
            os.sched_setaffinity(0, self.cores.under_test)
        try:
            ran = 0.0 if pid is None else cpu_clock(pid)
            seconds = kernel()
            ran = 0.0 if pid is None else cpu_clock(pid) - ran
        finally:
            if self.cores.pinned:
                os.sched_setaffinity(0, self.cores.generator)
        self._last = time.perf_counter()
        self.spent += self._last - began
        if ran > BUSY_SHARE * seconds:
            self.discarded += 1
        else:
            self.samples.append((self._last, seconds))

    def factor_between(self, start: float, end: float) -> float:
        """Median factor of the samples taken in ``[start, end]`` (of the
        sample nearest to it, when it holds none)."""
        if not self.samples:
            return 1.0
        inside = [s for when, s in self.samples if start <= when <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.median(inside) / NOMINAL_S

    def factors_for(self, moments: list[float], width: int = 2) -> list[float]:
        """For each moment, the median of the ``2 * width + 1`` samples
        around the latest one taken before it: tracks a slow spell of a
        few ops, ignores one jittery kernel run."""
        if not self.samples:
            return [1.0] * len(moments)
        times = [when for when, _ in self.samples]
        values = [s for _, s in self.samples]
        out = []
        j = 0
        for moment in moments:
            while j + 1 < len(times) and times[j + 1] <= moment:
                j += 1
            window = values[max(0, j - width): j + width + 1]
            out.append(statistics.median(window) / NOMINAL_S)
        return out
