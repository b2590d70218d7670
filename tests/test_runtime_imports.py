"""The package runs on the standard library alone, and what it computes
does not depend on the interpreter's string hashing."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Parse, layer, evaluate, ask one magic query and serve one request
#: with ``networkx`` unimportable; print the layering and the schedule.
SCRIPT = textwrap.dedent(
    """
    import asyncio
    import json
    import sys


    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "networkx":
                raise ImportError(f"{name} is refused")
            return None


    sys.meta_path.insert(0, Refuse())

    import repro
    import repro.api
    from repro.engine import compile_program, evaluate
    from repro.magic import evaluate_magic
    from repro.parser import parse_program, parse_query
    from repro.program import stratify
    from repro.server import LDLServer
    from repro.workloads.social import SOCIAL_PROGRAM, social_network

    program = parse_program(SOCIAL_PROGRAM).program
    layering = stratify(program)
    edb = social_network(12, seed=3)
    model = evaluate(program, edb).database
    query = parse_query("? influences(u0, X).")
    magic = evaluate_magic(program, query, edb)
    assert set(magic.answer_atoms()) == {
        a for a in model.atoms("influences") if a.args[0].value == "u0"
    }
    session = repro.api.LDL(SOCIAL_PROGRAM)
    session.add_atoms(edb)
    reply = asyncio.run(
        LDLServer(session).handle_request(
            {"op": "query", "q": "? influences(u0, X)."}
        )
    )
    assert reply["ok"] and reply["answers"], reply
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "networkx")
    assert not loaded, loaded
    schedule = [
        [sorted(c.preds) for c in layer]
        for layer in compile_program(program).schedule
    ]
    print(json.dumps([repr(layering), schedule]))
    """
)


def run_script(hash_seed: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_runs_without_networkx_and_schedules_deterministically():
    first = run_script("1")
    assert first == run_script("2")
