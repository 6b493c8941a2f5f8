#!/usr/bin/env python
"""Adversarial traffic study: who survives ADV+i?

Reproduces the core of the paper's Figure 5(d-i) story on a reduced scale:
under ADV+i every group sends all of its traffic to one other group, so the
single minimal global link between the two groups collapses and non-minimal
routing is required.  The script compares all six routing algorithms under
ADV+1 (least intermediate-group local congestion) and ADV+4 (most local
congestion) and prints latency/throughput/hop tables.

Run:
    python examples/adversarial_comparison.py [offered_load] [sim_time_us]
"""

from __future__ import annotations

import sys

from repro import DragonflyConfig
from repro.experiments import ExperimentSpec, run_experiment
from repro.stats.report import comparison_table

ALGORITHMS = ("MIN", "VALn", "UGALg", "UGALn", "PAR", "Q-adp")


def simulate(algorithm: str, pattern_name: str, offered_load: float, sim_time_us: float,
             seed: int = 2) -> dict:
    sim_time_ns = sim_time_us * 1_000.0
    spec = ExperimentSpec(
        config=DragonflyConfig.small_72(),
        routing=algorithm,
        pattern=pattern_name,
        offered_load=offered_load,
        sim_time_ns=sim_time_ns,
        # Q-adaptive needs time to learn; measure the final third of the run.
        warmup_ns=sim_time_ns * 2 / 3,
        seed=seed,
    )
    stats = run_experiment(spec).stats
    return {
        "mean_latency_us": stats.mean_latency_ns / 1_000.0,
        "p99_latency_us": stats.latency.p99 / 1_000.0,
        "throughput": stats.throughput,
        "mean_hops": stats.mean_hops,
    }


def main() -> None:
    offered_load = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    sim_time_us = float(sys.argv[2]) if len(sys.argv) > 2 else 90.0

    for pattern in ("ADV+1", "ADV+4"):
        print(f"\n=== {pattern} at offered load {offered_load} "
              f"({sim_time_us} us simulated per algorithm) ===")
        results = {}
        for algorithm in ALGORITHMS:
            print(f"  running {algorithm} ...")
            results[algorithm] = simulate(algorithm, pattern, offered_load, sim_time_us)
        print()
        print(comparison_table(
            results, ["mean_latency_us", "p99_latency_us", "throughput", "mean_hops"]
        ))

    print(
        "\nExpected shape (paper, Figure 5): MIN collapses, VALn sustains the load with ~5-6"
        "\nhops, UGAL/PAR adapt, and Q-adaptive matches or beats them after it has learned to"
        "\nroute non-minimally only when necessary (fewest hops among the non-minimal options)."
    )


if __name__ == "__main__":
    main()
