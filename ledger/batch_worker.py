"""The process under test of the ``batch_*`` workloads.

Started by ``run.py`` on its own core.  It imports the engine, makes
the workload's inputs from the seed, runs the warm-up ops and says
``ready`` (that much is ``setup_s``).  For every ``op`` line it then
runs one op and prints its latency and answer; the parent checks the
answer against its oracle and reads this process's CPU time and peak
memory from ``/proc``.

The op is what a fresh batch job does: new session from program text,
load the EDB atoms, compute the model, answer one query.  Before each
op, outside the timer, the intern table is cleared and the atoms are
rebuilt, so no op inherits interned terms or dense IDs from the last.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext


def batch_op(program_text: str, atoms, query: str,
             span=lambda name: nullcontext()) -> list[dict]:
    """One op; the traced run passes ``span`` to time each call."""
    from repro.api import LDL

    with span("api.LDL"):  # parses the program
        session = LDL(program_text)
    with span("api.LDL.add_atoms"):
        session.add_atoms(atoms)
    with span("api.LDL.model"):  # stratify, plan, fixpoint
        session.model()
    with span("api.LDL.query"):
        return session.query(query)


def main(argv: list[str]) -> int:
    workload, seed, quick = argv[0], int(argv[1]), argv[2] == "1"
    import gen
    from oracle import atoms_of
    from repro.terms.term import clear_intern_table

    sizes = gen.sizes_of(workload, quick)
    data = gen.Dataset(seed, **sizes)
    rows = data.rows()
    text = gen.PROGRAMS[sizes["program"]]
    pred = gen.BATCH_PRED[sizes["program"]]
    users = data.cold_stream()

    def one_op() -> tuple[float, int, list]:
        u = next(users)
        clear_intern_table()
        atoms = atoms_of(rows)
        start = time.perf_counter()
        answers = batch_op(text, atoms, f"? {pred}({gen.user(u)}, X).")
        elapsed = time.perf_counter() - start
        return elapsed, u, sorted(a["X"] for a in answers)

    for _ in range(sizes["warmup"]):
        one_op()
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "op":
            break
        elapsed, u, values = one_op()
        print(json.dumps({"s": elapsed, "u": u, "x": values}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
