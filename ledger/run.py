"""The LDL1 performance ledger: one entry point.

    python ledger/run.py --workload serve_cold --seed 3            # end to end
    python ledger/run.py --workload serve_cold --seed 3 --trace    # per layer
    python ledger/run.py --quick                                   # all five, seconds
    python ledger/run.py --selfcheck                               # is it steady?
    python ledger/run.py --compare ledger/out/a.json ledger/out/b.json

A run prints every metric by name and unit, checks every answer, writes
a self-describing JSON result under ``ledger/out/`` and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  It claims
no gain.  See ``ledger/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER))
sys.path.insert(1, str(LEDGER.parent / "src"))

import gen  # noqa: E402
import report  # noqa: E402
from sut import OUT, REPO, Cores, LedgerError, check_environment  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
DEFAULT_SECONDS = DECLARED["run_seconds"]
QUICK_SECONDS = 0.5


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool) -> dict:
    """One run of one workload; returns the self-describing result."""
    import workloads

    sizes = gen.sizes_of(workload, quick)
    cores = Cores()
    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cores.pin_generator()
    started = time.time()
    try:
        if trace:
            import traced

            metrics, attempted, failed, failures, extra = traced.run(
                workload, seed, sizes, seconds, cores, tmp, quick
            )
        else:
            if workload.startswith("serve_"):
                measured = workloads.run_serve(workload, seed, sizes, seconds, cores, tmp)
            else:
                measured = workloads.run_batch(workload, seed, sizes, seconds, cores, quick)
            metrics = workloads.end_to_end(measured)
            attempted, failed, failures = (
                measured.attempted, measured.failed, measured.failures
            )
            extra = {
                "reported_not_gated": workloads.client_metrics(measured),
                "raw": workloads.raw_times(measured),
                "setup_times_s": measured.setup_times,
                "measured_phase_s": measured.phase_wall_s,
                "op_samples": len(measured.latencies),
                "p90_has_enough_samples": (
                    len(measured.latencies) >= workloads.P90_MIN_SAMPLES
                ),
                "model_facts": measured.model_facts,
                "notes": measured.notes,
                "latencies_ms": [round(x * 1e3, 4) for x in measured.latencies],
            }
    finally:
        cores.unpin()
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "ledger": 1,
        "claim": None,
        "workload": workload,
        "why": gen.WHY[workload],
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "sizes": sizes,
        "requested_seconds": seconds,
        "run_wall_s": time.time() - started,
        "machine": {
            **cores.describe(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
        },
        "correct": failed == 0,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }


def save(result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    kind = "trace" if result["trace"] else "e2e"
    path = OUT / f"result_{result['workload']}_{kind}_seed{result['seed']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": result["metrics"],
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    # the benchmark driver passes --seconds <run_seconds> on every run
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured phase (default {DEFAULT_SECONDS}, "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="per-layer run: spans and isolated layer probes")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes; with no --workload, all five")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two interleaved sets of runs per workload; "
                        "non-zero exit when they disagree beyond a bound")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="diff two result files (or directories of them)")
    args = parser.parse_args(argv)

    try:
        if args.compare:
            return report.compare(Path(args.compare[0]), Path(args.compare[1]), DECLARED)
        check_environment()
        seconds = args.seconds
        if seconds is None:
            seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
        if args.selfcheck:
            names = [args.workload] if args.workload else sorted(gen.WORKLOADS)

            def one(workload: str, seed: int) -> dict:
                result = run_once(workload, seed, seconds, False, args.quick)
                save(result)
                return result

            return report.selfcheck(names, args.quick, DECLARED, one)
        if args.workload is None:
            if not args.quick:
                parser.error("--workload is required (or --quick for all five)")
            names = sorted(gen.WORKLOADS)
        else:
            names = [args.workload]
        result = None
        for name in names:
            result = run_once(name, args.seed, seconds, bool(args.trace), args.quick)
            report.print_result(result, DECLARED)
            print(f"result file: {save(result)}")
            if not result["correct"]:
                break
        # exit 0 whenever a result was printed: "correct" carries the verdict
        print(final_line(result))
        return 0
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
