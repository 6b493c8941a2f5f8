"""Figure 6: packet latency distribution (mean, p95, p99, quartiles) at fixed load."""

import math
import os

import pytest

from repro.experiments import figure6_tail_latency
from repro.experiments.presets import PAPER_ALGORITHMS
from repro.stats.report import comparison_table

pytestmark = pytest.mark.parallel


def test_figure6_tail_latency(benchmark, run_once, scale, runner):
    full = bool(os.environ.get("REPRO_SCALE"))
    patterns = ("UR", "ADV+1", "ADV+4") if full else ("UR", "ADV+1")

    data = run_once(benchmark, figure6_tail_latency, scale, PAPER_ALGORITHMS, patterns,
                    runner=runner)

    print("\nFigure 6 — latency distribution")
    for pattern, per_algorithm in data.items():
        print(f"\n  {pattern}:")
        print(comparison_table(
            per_algorithm, ["mean", "median", "p95", "p99", "fraction_below_2us"]
        ))

    for per_algorithm in data.values():
        for row in per_algorithm.values():
            if math.isnan(row["mean"]):
                continue
            assert row["mean"] <= row["p95"] <= row["p99"] <= row["max"] + 1e-9
    # the paper's headline: Q-adaptive's tail under UR is far below UGAL's
    ur = data["UR"]
    if not math.isnan(ur["Q-adp"]["p99"]) and not math.isnan(ur["UGALn"]["p99"]):
        assert ur["Q-adp"]["p99"] <= ur["UGALn"]["p99"] * 1.5
    benchmark.extra_info["figure6"] = data
