"""Benchmark harness: regenerate every experiment table.

The PODS'87 paper is a theory paper with no numeric tables; its
evaluative content is the worked examples and the efficiency claims
around semi-naive evaluation and magic sets.  This harness times every
case of experiments E1–E11 (see DESIGN.md) and prints one table per
experiment: workload, strategy, facts derived, wall time, and the
speedup of each strategy over the first strategy listed for the same
workload.

Run:  python benchmarks/harness.py                 # all experiments
      python benchmarks/harness.py E2 E4           # a subset
      python benchmarks/harness.py --json out.json # machine-readable
      python benchmarks/harness.py --quick E1 E6 --out benchmarks/BENCH_PR4.json
      python benchmarks/harness.py --quick E1 E6 --check benchmarks/BENCH_PR5.json
      python benchmarks/harness.py --maintain recompute E22  # force a maintenance mode

``--out`` writes the regression-tracking payload (per-case wall time
plus fixpoint counters); ``--check`` compares a fresh run against such
a file and exits non-zero when any case regresses more than 25% after
normalizing by the median ratio (cancelling machine-speed differences
between the committing machine and CI).  Both flags trigger a second
full sampling pass and keep the per-case minimum of the two, so a
machine-speed phase during one window cannot skew a single case.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from common import EXPERIMENT_TITLES, EXPERIMENTS

REGRESSION_TOLERANCE = 1.25

#: Cases faster than this (baseline seconds) are excluded from the
#: regression check: at sub-5ms scale, scheduler jitter and allocator
#: state swamp any real change, and one noisy sample would fail CI.
REGRESSION_NOISE_FLOOR = 0.005


#: Adaptive sampling: after the requested repeats, keep re-running a
#: case until this much wall time has been spent measuring it (or the
#: cap below is hit).  Short cases are the ones scheduler jitter hurts
#: most — a 30ms case needs ~10 samples before its minimum is
#: trustworthy, while a 2s case is already stable at 2–3.
MEASUREMENT_BUDGET = 0.4
MAX_REPEATS = 12


def time_case(case: dict, repeats: int = 3) -> tuple[float, int, dict | None]:
    """Best-of-N wall time, facts metric, and phase timings of one case.

    ``repeats`` is a floor: sampling continues past it until
    :data:`MEASUREMENT_BUDGET` seconds have been spent on the case (or
    :data:`MAX_REPEATS` runs), so short cases collect enough samples
    for their minimum to survive scheduler jitter.  Cases whose run
    returns an object carrying a
    :class:`repro.observe.MetricsCollector` (``result.metrics``) also
    report per-phase (plan/match/grouping) and per-layer attribution,
    taken from the last repeat.
    """
    best = float("inf")
    metric = 0
    metrics_report = None
    spent = 0.0
    runs = 0
    while runs < repeats or (
        spent < MEASUREMENT_BUDGET and runs < MAX_REPEATS
    ):
        start = time.perf_counter()
        result = case["run"]()
        elapsed = time.perf_counter() - start
        spent += elapsed
        runs += 1
        best = min(best, elapsed)
        metric = case["metric"](result)
        collector = getattr(result, "metrics", None)
        if collector is not None:
            metrics_report = collector.report()
        counters = _fixpoint_counters(result)
        if counters is not None:
            case["_fixpoint"] = counters
    return best, metric, metrics_report


def _fixpoint_counters(result) -> dict | None:
    """Fixpoint work counters of a run, when the result carries any.

    ``EvaluationResult`` exposes totals directly; ``MagicResult`` nests
    them under ``stats.saturation``.  Results without fixpoint stats
    (layering checks, server throughput) report nothing.
    """
    iterations = getattr(result, "total_iterations", None)
    if iterations is not None:
        return {
            "iterations": iterations,
            "rule_firings": result.total_firings,
        }
    saturation = getattr(getattr(result, "stats", None), "saturation", None)
    if saturation is not None:
        return {
            "iterations": saturation.iterations,
            "rule_firings": saturation.rule_firings,
        }
    return None


def _format_phases(report: dict) -> str:
    parts = [
        f"{name}={seconds * 1000:.2f}ms"
        for name, seconds in sorted(report.get("phases", {}).items())
    ]
    layer_entries = report.get("layers", [])
    if layer_entries:
        parts.append(
            "layers["
            + " ".join(
                f"{entry['layer']}:{entry['seconds'] * 1000:.2f}ms"
                for entry in layer_entries
            )
            + "]"
        )
    counters = report.get("counters", {})
    # Preferred ordering for the counter families we know about; any
    # family a run reports beyond these is appended sorted, so new
    # counters show up without harness edits and absent families never
    # raise.
    known = (
        "plans_built",
        "plan_cache_hits",
        "batch_steps",
        "batch_bindings",
        "batch_peak",
        "kernel_calls",
        "kernel_rows",
        "rows_per_dispatch",
        "maintain_dispatches",
        "maintain_rows",
        "maintain_rows_per_dispatch",
        "id_table_size",
    )
    for name in known:
        if name in counters:
            parts.append(f"{name}={counters[name]}")
    for name in sorted(counters):
        if name not in known:
            parts.append(f"{name}={counters[name]}")
    join_orders = report.get("join_orders", [])
    if join_orders:
        parts.append(f"join_orders={len(join_orders)}")
    return " ".join(parts)


def run_experiment(name: str, repeats: int = 3) -> list[dict]:
    rows = []
    baseline_by_workload: dict[str, float] = {}
    for case in EXPERIMENTS[name]():
        seconds, facts, metrics_report = time_case(case, repeats=repeats)
        workload = case["workload"]
        baseline = baseline_by_workload.setdefault(workload, seconds)
        row = {
            "workload": workload,
            "strategy": case["strategy"],
            "facts": facts,
            "seconds": seconds,
            "speedup": baseline / seconds if seconds else float("inf"),
        }
        if "_fixpoint" in case:
            row["fixpoint"] = case["_fixpoint"]
        if metrics_report is not None:
            row["metrics"] = metrics_report
        rows.append(row)
    return rows


def print_experiment(name: str, repeats: int = 3) -> list[dict]:
    print(f"\n=== {name}: {EXPERIMENT_TITLES[name]} ===")
    header = f"{'workload':<28} {'strategy':<18} {'facts':>8} {'seconds':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    rows = run_experiment(name, repeats=repeats)
    for row in rows:
        print(
            f"{row['workload']:<28} {row['strategy']:<18} "
            f"{row['facts']:>8} {row['seconds']:>9.4f} {row['speedup']:>7.2f}x"
        )
        if "metrics" in row:
            print(f"{'':<28}   {_format_phases(row['metrics'])}")
    return rows


def _tracking_payload(results: dict[str, list[dict]]) -> dict:
    """The regression-tracking shape written by ``--out``.

    Per-case wall time and fixpoint counters only — the phase/layer
    metrics blobs are for humans and would churn on every commit.
    """
    experiments = {}
    for name, rows in results.items():
        experiments[name] = {
            "title": EXPERIMENT_TITLES[name],
            "cases": [
                {
                    "workload": row["workload"],
                    "strategy": row["strategy"],
                    "facts": row["facts"],
                    "seconds": round(row["seconds"], 6),
                    **(
                        {"fixpoint": row["fixpoint"]}
                        if "fixpoint" in row
                        else {}
                    ),
                }
                for row in rows
            ],
        }
    return {"tolerance": REGRESSION_TOLERANCE, "experiments": experiments}


def check_regressions(
    results: dict[str, list[dict]], baseline: dict
) -> list[str]:
    """Compare a fresh run against a committed baseline file.

    Raw wall-clock ratios conflate machine speed with real regressions,
    so every shared case's ratio (current / baseline) is normalized by
    the *median* ratio — a uniformly slower machine moves every ratio
    equally and cancels out; a genuine regression sticks out above the
    tolerance.  Cases faster than the noise floor are skipped entirely.
    Returns human-readable failure lines (empty = pass).
    """
    base_cases = {
        (name, c["workload"], c["strategy"]): c["seconds"]
        for name, exp in baseline.get("experiments", {}).items()
        for c in exp["cases"]
    }
    ratios: dict[tuple, float] = {}
    for name, rows in results.items():
        for row in rows:
            key = (name, row["workload"], row["strategy"])
            base = base_cases.get(key)
            if base and base >= REGRESSION_NOISE_FLOOR and row["seconds"]:
                ratios[key] = row["seconds"] / base
    if not ratios:
        return ["no overlapping cases between run and baseline"]
    median = statistics.median(ratios.values())
    tolerance = baseline.get("tolerance", REGRESSION_TOLERANCE)
    failures = []
    for key, ratio in sorted(ratios.items()):
        normalized = ratio / median
        if normalized > tolerance:
            name, workload, strategy = key
            failures.append(
                f"{name} [{workload} / {strategy}]: "
                f"{normalized:.2f}x slower than baseline "
                f"(raw {ratio:.2f}x, median {median:.2f}x, "
                f"tolerance {tolerance:.2f}x)"
            )
    return failures


def _take_flag_with_value(argv: list[str], flag: str) -> tuple[list[str], str | None]:
    if flag not in argv:
        return argv, None
    index = argv.index(flag)
    try:
        value = argv[index + 1]
    except IndexError:
        raise SystemExit(f"{flag} needs a file path")
    return argv[:index] + argv[index + 2 :], value


def main(argv: list[str]) -> None:
    argv, json_path = _take_flag_with_value(argv, "--json")
    argv, out_path = _take_flag_with_value(argv, "--out")
    argv, check_path = _take_flag_with_value(argv, "--check")
    argv, maintain = _take_flag_with_value(argv, "--maintain")
    if maintain is not None:
        # process-wide maintenance mode for every model the experiments
        # build (cases that pin maintain=, like E22's, keep their pin).
        from repro.engine.maintain import set_maintain_mode

        set_maintain_mode(maintain)
    repeats = 3
    if "--quick" in argv:
        argv = [a for a in argv if a != "--quick"]
        # best-of-2, not single-shot: the first run doubles as a warmup
        # (imports, lazily built indexes, the intern table), which
        # otherwise shows up as a phantom regression in --check.
        repeats = 2
    names = argv or list(EXPERIMENTS)
    results: dict[str, list[dict]] = {}
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(f"unknown experiment {name!r}; have {list(EXPERIMENTS)}")
        results[name] = print_experiment(name, repeats=repeats)
    if out_path or check_path:
        # Regression tracking compares minima, and machine speed drifts
        # on minute timescales (frequency scaling, noisy neighbours), so
        # a single sampling window per case can catch one case in a fast
        # phase and another in a slow one.  A second full pass minutes
        # after the first samples a different phase; the per-case min of
        # both passes is what gets written and checked.
        print("\nsecond sampling pass (machine-speed jitter control)...")
        for name in names:
            for row, again in zip(results[name], run_experiment(name, repeats=repeats)):
                row["seconds"] = min(row["seconds"], again["seconds"])
    if json_path:
        payload = {
            name: {"title": EXPERIMENT_TITLES[name], "rows": rows}
            for name, rows in results.items()
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {json_path}")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(_tracking_payload(results), handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {out_path}")
    if check_path:
        with open(check_path) as handle:
            baseline = json.load(handle)
        failures = check_regressions(results, baseline)
        if failures:
            print(f"\nREGRESSIONS vs {check_path}:")
            for line in failures:
                print(f"  {line}")
            raise SystemExit(1)
        print(f"\nno regressions vs {check_path}")


if __name__ == "__main__":
    main(sys.argv[1:])
