"""Figure 7: Q-adaptive convergence starting from an empty network.

The paper shows the average packet latency spiking when traffic first hits an
untrained system and then settling within ~200-500 us.  At the benchmark
scale the horizon is shorter, but the same decay from the early-run peak to a
stable plateau must be visible under adversarial traffic.
"""

import os

import pytest

from repro.experiments import figure7_convergence
from repro.stats.report import format_series

pytestmark = pytest.mark.parallel


def test_figure7_convergence(benchmark, run_once, scale, runner):
    full = bool(os.environ.get("REPRO_SCALE"))
    cases = None if full else (
        ("UR", scale.ur_reference_load),
        ("ADV+1", scale.adv_reference_load),
        ("ADV+4", scale.adv_reference_load),
    )
    bin_ns = max(scale.convergence_ns / 12, 1_000.0)

    curves = run_once(benchmark, figure7_convergence, scale, cases, bin_ns, runner=runner)

    print("\nFigure 7 — convergence from an empty network")
    for label, curve in curves.items():
        print(format_series(f"  {label}", curve["time_us"], curve["latency_us"],
                            "time_us", "latency_us"))

    for label, curve in curves.items():
        latencies = curve["latency_us"]
        assert latencies, f"no deliveries for {label}"
        assert all(v > 0 for v in latencies)
        if label.startswith("ADV") and len(latencies) >= 6:
            # learning must reduce latency from the early-run peak
            early_peak = max(latencies[: len(latencies) // 2])
            final = latencies[-1]
            assert final <= early_peak * 1.05, f"{label} did not improve ({early_peak} -> {final})"
    benchmark.extra_info["figure7"] = curves
