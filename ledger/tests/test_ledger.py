"""The ledger's own checks: it runs, it checks answers, its names are
declared, its inputs are a function of the seed, its span arithmetic
adds up, and it refuses what it cannot measure honestly."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import report
import spans
import workloads

LEDGER = Path(__file__).resolve().parents[1]
REPO = LEDGER.parent
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
NAMES = sorted(gen.WORKLOADS)


def ledger(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    clean.update(env or {})
    return subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), *args],
        capture_output=True, text=True, env=clean, cwd=REPO, timeout=600,
    )


def result_file(workload: str, kind: str, seed: int) -> dict:
    path = LEDGER / "out" / f"result_{workload}_{kind}_seed{seed}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def quick_results() -> dict[str, dict]:
    """``--quick``: all five workloads end to end, in seconds."""
    done = ledger("--quick", "--seed", "7")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return {name: result_file(name, "e2e", 7) for name in NAMES}


@pytest.fixture(scope="module")
def traced_results() -> dict[str, dict]:
    done = ledger("--quick", "--seed", "7", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    return {name: result_file(name, "trace", 7) for name in NAMES}


def test_quick_runs_every_workload_with_every_end_to_end_metric(quick_results):
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    for name, result in quick_results.items():
        assert result["ops_failed"] == 0, (name, result["failures"])
        assert result["correct"] and result["ops_attempted"] >= 1
        assert result["claim"] is None
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, name
        assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_results_describe_the_machine_and_the_run(quick_results):
    for result in quick_results.values():
        machine = result["machine"]
        for key in ("cpus_allowed", "affinity", "pinned", "python", "git_commit"):
            assert key in machine
        for key in ("seed", "sizes", "measured_phase_s", "op_samples"):
            assert key in result


def test_traced_run_prints_every_per_layer_metric(traced_results):
    expected = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for name, result in traced_results.items():
        assert result["ops_failed"] == 0, (name, result["failures"])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, (name, set(got) ^ set(expected))
        assert "trace.unattributed_share" in result["metrics"]


def test_span_self_times_plus_residual_add_up_to_op_wall_time(traced_results):
    """The spans of the trace file, reduced here, against two clocks
    that do not come from spans: ``shadow_s`` (read around the shadow op)
    and ``wall_s`` (read around the real op).  A span lost, left open,
    filed under another op or given the wrong parent breaks the sum."""
    for name, result in traced_results.items():
        trace = json.loads(Path(result["trace_file"]).read_text())
        records = [dict(zip(trace["columns"], row)) for row in trace["spans"]]
        self_by_op: dict = {}
        for span, own in zip(records, spans.self_times(records)):
            assert span["end"] >= span["start"], (name, span)
            assert own >= -1e-9, (name, span, own)
            if span["parent"] is not None:
                parent = records[span["parent"]]
                assert parent["op"] == span["op"], (name, span)
                assert parent["start"] <= span["start"], (name, span)
                assert span["end"] <= parent["end"], (name, span)
            self_by_op[span["op"]] = self_by_op.get(span["op"], 0.0) + own
        assert result["per_op"], name
        for op in result["per_op"]:
            assert self_by_op[op["op"]] == pytest.approx(op["shadow_s"], rel=0.05), (name, op)
            total = self_by_op[op["op"]] + op["residual_s"]
            assert total == pytest.approx(op["wall_s"], rel=0.05), (name, op)


def test_self_time_is_a_span_minus_what_its_children_cover():
    def span(name, parent, start, end):
        return {"name": name, "op": 0, "parent": parent, "start": start, "end": end}

    records = [
        span("root", None, 0.0, 10.0),
        span("a", 0, 1.0, 5.0),
        span("a", 0, 6.0, 7.0),
        span("b", 1, 2.0, 4.0),
    ]
    assert spans.self_times(records) == [5.0, 2.0, 1.0, 2.0]
    assert spans.by_op(records) == {0: {"root": 5.0, "a": 3.0, "b": 2.0, "<root>": 10.0}}


def test_declared_names_are_unique_and_well_formed():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARED["paths"] == ["ledger"]
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [w["name"] for w in DECLARED["workloads"]] and {
        w["name"] for w in DECLARED["workloads"]
    } == set(gen.WORKLOADS)
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == gen.WHY
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in DECLARED["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


def test_generator_is_a_function_of_the_seed():
    sizes = gen.sizes_of("serve_cold")
    one, again, other = (gen.Dataset(s, **sizes) for s in (3, 3, 4))
    assert one.text() == again.text()
    assert one.text() != other.text()
    for stream in ("cold_stream", "write_stream"):
        a, b = getattr(one, stream)(), getattr(again, stream)()
        assert [next(a) for _ in range(50)] == [next(b) for _ in range(50)]


def test_follows_graph_is_degree_regular():
    data = gen.Dataset(11, users=60, follows=4, topics=5)
    assert len(set(data.edges)) == 60 * 4
    assert all(u != v for u, v in data.edges)
    for side in (0, 1):
        degree = [0] * 60
        for edge in data.edges:
            degree[edge[side]] += 1
        assert set(degree) == {4}


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert workloads.percentile(values, 90) == 90.0
    assert workloads.percentile(values, 99) == 99.0
    assert workloads.percentile([5.0], 90) == 5.0


def test_refuses_to_run_with_a_repro_knob_set():
    done = ledger("--quick", "--workload", "batch_sets", env={"REPRO_EXECUTOR": "tuple"})
    assert done.returncode != 0
    assert "REPRO_EXECUTOR" in done.stderr
    assert not done.stdout.strip().endswith("}")


def test_compare_refuses_different_cpu_counts_and_phase_lengths(tmp_path, quick_results, capsys):
    base = quick_results["batch_sets"]
    other = json.loads(json.dumps(base))
    other["machine"]["cpus_allowed"] += 1
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(other))
    assert report.compare(a, b, DECLARED) == 2
    assert "different cpu counts" in capsys.readouterr().out
    assert report.compare(a, a, DECLARED) == 0
    out = capsys.readouterr().out
    # each calibrated time is followed by the time the clock read
    assert out.count("as the clock read it") == 5
    other = json.loads(json.dumps(base))
    other["requested_seconds"] *= 2
    b.write_text(json.dumps(other))
    assert report.compare(a, b, DECLARED) == 2
    assert "different lengths" in capsys.readouterr().out
