"""Experiment E21: executor comparison, tuple reference vs compiled default

pytest-benchmark wrapper around the shared cases in ``common.py``;
see ``benchmarks/harness.py`` for the table-printing runner and
DESIGN.md for the experiment index.
"""

import pytest

from common import EXPERIMENTS

CASES = EXPERIMENTS["E21"]()
IDS = [f"{c['workload']}::{c['strategy']}" for c in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_e21_executor(benchmark, case):
    result = benchmark.pedantic(case["run"], rounds=3, iterations=1)
    benchmark.extra_info["facts"] = case["metric"](result)
    benchmark.extra_info["strategy"] = case["strategy"]
    collector = getattr(result, "metrics", None)
    if collector is not None:
        counters = collector.report().get("counters", {})
        if "rows_per_dispatch" in counters:
            benchmark.extra_info["rows_per_dispatch"] = counters[
                "rows_per_dispatch"
            ]
