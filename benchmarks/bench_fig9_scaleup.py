"""Figure 9: scale-up case study with HPC communication patterns.

The paper evaluates UR, ADV+1, 3D Stencil, Many-to-Many and Random Neighbors
on its 2,550-node system.  At the default benchmark scale the "scale-up"
system is the 342-node balanced Dragonfly and a subset of algorithms is used;
the full configuration is selected by ``REPRO_SCALE=paper-2550``.
"""

import math
import os

import pytest

from repro.experiments import figure9_scaleup
from repro.experiments.presets import PAPER_ALGORITHMS
from repro.stats.report import comparison_table

pytestmark = pytest.mark.parallel

FAST_ALGORITHMS = ("MIN", "UGALn", "Q-adp")
ALL_PATTERNS = ("UR", "ADV+1", "3D Stencil", "Many to Many", "Random Neighbors")


def test_figure9_scaleup(benchmark, run_once, scale, runner):
    full = bool(os.environ.get("REPRO_SCALE"))
    algorithms = PAPER_ALGORITHMS if full else FAST_ALGORITHMS
    # the benchmark default keeps the run short by using the base (not scale-up)
    # system for the five patterns; the pattern mix is unchanged
    bench_scale = scale if full else scale.with_overrides(scaleup_config=scale.config)

    data = run_once(benchmark, figure9_scaleup, bench_scale, algorithms, ALL_PATTERNS,
                    runner=runner)

    print("\nFigure 9 — scale-up case study (latency distributions, µs)")
    for pattern, per_algorithm in data.items():
        print(f"\n  {pattern}:")
        print(comparison_table(per_algorithm, ["mean", "p95", "p99", "mean_hops", "throughput"]))

    assert set(data) == set(ALL_PATTERNS)
    for per_algorithm in data.values():
        assert set(per_algorithm) == set(algorithms)
        for row in per_algorithm.values():
            if not math.isnan(row["mean"]):
                assert row["mean"] <= row["p99"] + 1e-9
    # Under adversarial traffic minimal routing must not win; under the
    # uniform-like patterns it must not lose badly to Q-adaptive.
    adv = data["ADV+1"]
    if not math.isnan(adv["MIN"]["throughput"]):
        assert adv["Q-adp"]["throughput"] >= adv["MIN"]["throughput"] * 0.9
    benchmark.extra_info["figure9"] = data
