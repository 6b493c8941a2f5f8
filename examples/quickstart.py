#!/usr/bin/env python
"""Quickstart: simulate Q-adaptive routing on a small Dragonfly system.

Builds a 72-node balanced Dragonfly (9 groups of 4 routers), drives uniform
random traffic at a configurable offered load, and compares Q-adaptive against
minimal routing and UGALn — the smallest end-to-end use of the library.

Run:
    python examples/quickstart.py [offered_load] [sim_time_us]
"""

from __future__ import annotations

import sys

from repro import DragonflyConfig
from repro.experiments import ExperimentSpec, run_experiment
from repro.stats.report import comparison_table


def simulate(algorithm: str, offered_load: float, sim_time_us: float, seed: int = 1) -> dict:
    """Run one algorithm under uniform random traffic and return its metrics."""
    sim_time_ns = sim_time_us * 1_000.0
    spec = ExperimentSpec(
        config=DragonflyConfig.small_72(),
        routing=algorithm,
        pattern="UR",
        offered_load=offered_load,
        sim_time_ns=sim_time_ns,
        warmup_ns=sim_time_ns / 2,  # measure the second half of the run
        seed=seed,
    )
    stats = run_experiment(spec).stats
    return {
        "mean_latency_us": stats.mean_latency_ns / 1_000.0,
        "p99_latency_us": stats.latency.p99 / 1_000.0,
        "throughput": stats.throughput,
        "mean_hops": stats.mean_hops,
        "delivered_packets": stats.delivered_packets,
    }


def main() -> None:
    offered_load = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    sim_time_us = float(sys.argv[2]) if len(sys.argv) > 2 else 40.0

    config = DragonflyConfig.small_72()
    print("Dragonfly configuration:", config.describe())
    print(f"Traffic: uniform random at offered load {offered_load}, {sim_time_us} us simulated\n")

    results = {}
    for algorithm in ("MIN", "UGALn", "Q-adp"):
        print(f"running {algorithm} ...")
        results[algorithm] = simulate(algorithm, offered_load, sim_time_us)

    print()
    print(
        comparison_table(
            results,
            ["mean_latency_us", "p99_latency_us", "throughput", "mean_hops", "delivered_packets"],
        )
    )
    print(
        "\nUnder uniform random traffic minimal routing is optimal; Q-adaptive should sit"
        "\nclose to it while the congestion-oblivious choices of UGAL cost latency."
    )


if __name__ == "__main__":
    main()
