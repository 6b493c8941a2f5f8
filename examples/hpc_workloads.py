#!/usr/bin/env python
"""HPC communication-pattern case study (the paper's Section 6 / Figure 9).

Compares routing algorithms under the three application-derived patterns the
paper evaluates on its 2,550-node system — 3D Stencil halo exchange,
Many-to-Many (parallel FFT style all-to-all inside communicators) and Random
Neighbors (NAMD-style load balancing) — plus UR and ADV+1 as references.

By default this runs on the reduced 72-node system; pass ``--medium`` to use
the 342-node system (slower), or set REPRO_SCALE=paper and use the
benchmark harness for the full 2,550-node configuration.

Run:
    python examples/hpc_workloads.py [offered_load] [sim_time_us] [--medium]
"""

from __future__ import annotations

import sys

from repro import DragonflyConfig
from repro.core import QAdaptiveParams
from repro.experiments import ExperimentSpec, run_experiment
from repro.stats.report import comparison_table

ALGORITHMS = ("MIN", "VALn", "UGALg", "UGALn", "PAR", "Q-adp")
PATTERNS = ("UR", "ADV+1", "3D Stencil", "Many to Many", "Random Neighbors")


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    offered_load = float(args[0]) if args else 0.4
    sim_time_us = float(args[1]) if len(args) > 1 else 80.0
    config = (
        DragonflyConfig.medium_342() if "--medium" in sys.argv else DragonflyConfig.small_72()
    )
    print("System:", config.describe())
    sim_time_ns = sim_time_us * 1_000.0

    for pattern in PATTERNS:
        load = offered_load if not pattern.startswith("ADV") else min(offered_load, 0.3)
        print(f"\n=== {pattern} at offered load {load} ===")
        results = {}
        for algorithm in ALGORITHMS:
            routing_kwargs = {}
            if algorithm == "Q-adp":
                # Section 6 uses a smaller source-router threshold on the large system.
                routing_kwargs["params"] = QAdaptiveParams(q_thld1=0.05, q_thld2=0.4)
            spec = ExperimentSpec(
                config=config,
                routing=algorithm,
                pattern=pattern,
                offered_load=load,
                sim_time_ns=sim_time_ns,
                warmup_ns=sim_time_ns * 2 / 3,
                seed=4,
                routing_kwargs=routing_kwargs,
            )
            print(f"  running {algorithm} ...")
            result = run_experiment(spec)
            results[algorithm] = {
                "mean_latency_us": result.mean_latency_us,
                "p99_latency_us": result.p99_latency_us,
                "throughput": result.throughput,
                "mean_hops": result.mean_hops,
            }
        print()
        print(comparison_table(
            results, ["mean_latency_us", "p99_latency_us", "throughput", "mean_hops"]
        ))


if __name__ == "__main__":
    main()
