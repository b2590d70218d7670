"""Printing, comparing and self-checking ledger results."""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def declared_metrics(declared: dict) -> dict[str, dict]:
    return {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}


def print_result(result: dict, declared: dict) -> None:
    machine = result["machine"]
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"{'traced' if result['trace'] else 'end-to-end'}"
        f"{' quick' if result['quick'] else ''} =="
    )
    print(f"   why: {result['why']}")
    print(
        f"   machine: {machine['cpus_allowed']} cpu(s) allowed, "
        f"pinned={machine['pinned']}, python {machine['python']}, "
        f"commit {machine['git_commit'][:12]}"
    )
    print(f"   sizes: {result['sizes']}")
    known = declared_metrics(declared)
    for name, metric in result["metrics"].items():
        spec = known.get(name, {})
        bound = f"  (regression bound {spec['bound']:.0%})" if "bound" in spec else ""
        print(f"   {name:44s} {metric['value']:>14.4f} {metric['unit']}{bound}")
    for name, (value, unit) in result.get("reported_not_gated", {}).items():
        print(f"   {name:44s} {value:>14.4f} {unit}  (reported, not gated)")
    if "op_samples" in result:
        enough = "" if result["p90_has_enough_samples"] else "  (< 100: p90 is weak)"
        print(
            f"   samples: {result['op_samples']} ops in "
            f"{result['measured_phase_s']:.2f}s measured{enough}; "
            f"set-ups {['%.3f' % s for s in result['setup_times_s']]}"
        )
    if "raw" in result:
        raw = result["raw"]
        print(
            f"   speed: {raw['speed_samples']} kernel samples kept, "
            f"{raw['speed_samples_discarded']} discarded (process under test "
            f"not idle); raw op_p50 {raw['op_p50_ms']:.4f} ms, "
            f"raw cpu/op {raw['cpu_ms_per_op']:.4f} ms"
        )
    for line in result.get("ranked", []):
        print(f"   {line}")
    print(
        f"   ops_attempted={result['ops_attempted']} "
        f"ops_failed={result['ops_failed']} correct={result['correct']} "
        f"(run took {result['run_wall_s']:.1f}s)"
    )
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if better == "lower":
        return (new - base) / base
    return (base - new) / base


#: runs in each of the two sets ``--selfcheck`` compares
SET_RUNS = 5


def selfcheck(names, quick: bool, declared: dict, run_once) -> int:
    """Two interleaved sets of ``SET_RUNS`` runs per workload, same code.

    Passes when, for every workload and end-to-end metric, the spread of
    each set stays within the metric's bound (``setup_s`` excepted, as
    the driver does) and the second set's median is not worse than the
    first's by more than the bound.
    """
    runs = 2 if quick else SET_RUNS
    specs = declared["end_to_end"]
    bad = 0
    for name in names:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for i in range(runs):
            for which in (0, 1):  # interleaved: A B A B ...
                seed = 2 * i + which
                result = run_once(name, seed)
                if not result["correct"]:
                    print(f"{name} seed {seed}: ops_failed={result['ops_failed']}")
                    bad += 1
                sets[which].append(result["metrics"])
        print(f"== selfcheck {name}: 2 sets x {runs} runs of "
              f"{result['requested_seconds']}s ==")
        print(f"   {'metric':16s} {'set':>3s} {'q1':>10s} {'median':>10s} "
              f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
        for spec in specs:
            metric, bound = spec["name"], spec["bound"]
            medians = []
            for which in (0, 1):
                values = [m[metric]["value"] for m in sets[which]]
                q1, q2, q3 = quartiles(values)
                medians.append(q2)
                wide = spread(values)
                flag = ""
                if metric != "setup_s" and wide > bound:
                    flag = "  SPREAD > BOUND"
                    bad += 1
                elif wide > bound / 3:
                    flag = "  (spread above a third of the bound)"
                print(f"   {metric:16s} {'AB'[which]:>3s} {q1:10.4f} {q2:10.4f} "
                      f"{q3:10.4f} {wide:7.2%} {bound:6.0%}{flag}")
            shift = worse_by(medians[0], medians[1], spec["better"])
            if abs(shift) > bound:
                print(f"   {metric:16s} sets disagree by {shift:+.2%} > {bound:.0%}")
                bad += 1
    print("selfcheck:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def _load(path: Path) -> dict[tuple[str, bool], list[dict]]:
    files = sorted(path.glob("result_*.json")) if path.is_dir() else [path]
    out: dict[tuple[str, bool], list[dict]] = {}
    for file in files:
        result = json.loads(file.read_text())
        out.setdefault((result["workload"], result["trace"]), []).append(result)
    return out


def _shift_line(label: str, old: list[float], new: list[float],
                spec: dict) -> tuple[str, float]:
    """``label  median -> median  n % worse|better`` and how much worse."""
    a, b = statistics.median(old), statistics.median(new)
    line = f"   {label:44s} {a:14.4f} -> {b:14.4f}"
    if not a or "better" not in spec:
        return line, 0.0
    shift = worse_by(a, b, spec["better"])
    line += f"  {shift:+.2%} worse" if shift > 0 else f"  {-shift:.2%} better"
    return line, shift


def compare(base: Path, new: Path, declared: dict) -> int:
    """Diff the medians of two results (or two directories of results).

    Refuses results taken at different cpu counts (a latency measured
    with the generator and the server sharing one core is not comparable
    with one measured on two) or with measured phases of different
    lengths.  Under each calibrated time it prints the same time as the
    clock read it, so a change in the speed factor cannot hide a shift.
    """
    known = declared_metrics(declared)
    old, fresh = _load(base), _load(new)
    status = 0
    for key in sorted(set(old) & set(fresh)):
        cpus = {r["machine"]["cpus_allowed"] for r in old[key] + fresh[key]}
        if len(cpus) > 1:
            print(f"{key[0]}: refusing to compare results taken at different "
                  f"cpu counts {sorted(cpus)}")
            status = 2
            continue
        lengths = {r["requested_seconds"] for r in old[key] + fresh[key]}
        if len(lengths) > 1:
            print(f"{key[0]}: refusing to compare measured phases of different "
                  f"lengths {sorted(lengths)}")
            status = 2
            continue
        print(f"== {key[0]} ({'traced' if key[1] else 'end-to-end'}): "
              f"{len(old[key])} base run(s) vs {len(fresh[key])} new ==")
        for name in old[key][0]["metrics"]:
            if name not in fresh[key][0]["metrics"]:
                continue
            spec = known.get(name, {})
            line, shift = _shift_line(
                name, [r["metrics"][name]["value"] for r in old[key]],
                [r["metrics"][name]["value"] for r in fresh[key]], spec)
            if shift > spec.get("bound", float("inf")):
                line += f"  REGRESSION (bound {spec['bound']:.0%})"
                status = max(status, 1)
            print(line)
            if all(name in r.get("raw", {}) for r in old[key] + fresh[key]):
                print(_shift_line(
                    "  as the clock read it", [r["raw"][name] for r in old[key]],
                    [r["raw"][name] for r in fresh[key]], spec)[0])
    if not set(old) & set(fresh):
        print("nothing to compare: no workload appears on both sides")
        return 2
    return status
