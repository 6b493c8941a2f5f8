"""Figure 5: packet latency, system throughput and hop count vs offered load.

The paper sweeps the offered load under UR, ADV+1 and ADV+4 for six routing
algorithms.  At the default benchmark scale the sweep is restricted to a
representative subset (UR and ADV+1; MIN, VALn, UGALn, Q-adp; two loads per
pattern) so it completes in a couple of minutes — the full grid is selected by
``REPRO_SCALE=reduced`` or ``REPRO_SCALE=paper``.
"""

import os

import pytest

from repro.experiments import figure5_sweep
from repro.experiments.presets import PAPER_ALGORITHMS
from repro.stats.report import format_series

pytestmark = pytest.mark.parallel

FAST_ALGORITHMS = ("MIN", "VALn", "UGALn", "Q-adp")
FAST_PATTERNS = ("UR", "ADV+1")


def test_figure5_load_sweep(benchmark, run_once, scale, runner):
    full = bool(os.environ.get("REPRO_SCALE"))
    algorithms = PAPER_ALGORITHMS if full else FAST_ALGORITHMS
    patterns = ("UR", "ADV+1", "ADV+4") if full else FAST_PATTERNS

    data = run_once(benchmark, figure5_sweep, scale, algorithms, patterns, runner=runner)

    print("\nFigure 5 — load sweep")
    for pattern, per_algorithm in data.items():
        for algorithm, series in per_algorithm.items():
            print(format_series(f"  {pattern:6s} {algorithm:6s} latency",
                                series["loads"], series["latency_us"], "load", "us"))
            print(format_series(f"  {pattern:6s} {algorithm:6s} throughput",
                                series["loads"], series["throughput"], "load", "frac"))

    # Shape checks from the paper:
    ur = data["UR"]
    adv = data["ADV+1"]
    # (1) under UR, MIN has the lowest latency at every measured load
    for algorithm in set(algorithms) - {"MIN"}:
        assert ur["MIN"]["latency_us"][0] <= ur[algorithm]["latency_us"][0] * 1.1
    # (2) under ADV+1, MIN saturates: its throughput at the highest load is far
    #     below the non-minimal/adaptive algorithms
    top_load_idx = len(adv["MIN"]["throughput"]) - 1
    assert adv["MIN"]["throughput"][top_load_idx] < adv["VALn"]["throughput"][top_load_idx]
    assert adv["MIN"]["throughput"][top_load_idx] < adv["Q-adp"]["throughput"][top_load_idx]
    # (3) Q-adaptive uses fewer hops than VALn under ADV+1 (it reroutes only when needed)
    assert adv["Q-adp"]["hops"][top_load_idx] < adv["VALn"]["hops"][top_load_idx]
    benchmark.extra_info["figure5"] = data
