"""Figure 8: Q-adaptive throughput while the offered load changes mid-run."""

import os

import pytest

from repro.experiments import figure8_dynamic_load
from repro.stats.report import format_series

pytestmark = pytest.mark.parallel


def test_figure8_dynamic_load(benchmark, run_once, scale, runner):
    full = bool(os.environ.get("REPRO_SCALE"))
    ur_lo = round(scale.ur_reference_load / 2, 3)
    cases = None if full else (
        ("UR", ur_lo, scale.ur_reference_load),
        ("UR", scale.ur_reference_load, ur_lo),
    )
    bin_ns = max(scale.convergence_ns / 10, 1_000.0)

    curves = run_once(benchmark, figure8_dynamic_load, scale, cases, bin_ns, runner=runner)

    print("\nFigure 8 — dynamic offered load")
    for label, curve in curves.items():
        print(format_series(f"  {label}", curve["time_us"], curve["throughput"],
                            "time_us", "throughput"))

    for label, curve in curves.items():
        times = curve["time_us"]
        values = curve["throughput"]
        assert len(times) == len(values) > 0
        step_time = curve["step_time_us"]
        before = [v for t, v in zip(times, values, strict=True) if t < step_time][1:]
        after = [v for t, v in zip(times, values, strict=True) if t > step_time][1:]
        if not before or not after:
            continue
        # throughput must track the direction of the load change
        initial, new = (float(x) for x in label.split()[-1].split("->"))
        if new > initial:
            assert max(after) > max(before) * 1.05
        else:
            assert after[-1] < max(before) * 0.95
    benchmark.extra_info["figure8"] = curves
