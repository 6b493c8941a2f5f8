"""Section 2.3.2 ablation: naive Q-routing with a maxQ hop threshold.

The paper argues that no single maxQ value suits both UR (prefers small maxQ,
i.e. near-minimal paths) and ADV+i (prefers larger maxQ to escape the
congested minimal global link) — the observation that motivates Q-adaptive's
structured 5-hop design.

The grid is the declarative ``ablation-maxq`` study
(:func:`repro.scenarios.catalog.ablation_maxq_study`);
:func:`~repro.experiments.figures.ablation_maxq` is a thin reducer over it,
so the same runs are reachable as ``repro-sim study run ablation-maxq`` and
share the result cache with this benchmark.
"""

import os

import pytest

from repro.experiments import ablation_maxq
from repro.scenarios.catalog import ablation_maxq_study
from repro.stats.report import format_table

pytestmark = pytest.mark.parallel


def test_ablation_maxq(benchmark, run_once, scale, runner):
    full = bool(os.environ.get("REPRO_SCALE"))
    maxq_values = (1, 3, 5, 7) if full else (1, 5)
    patterns = ("UR", "ADV+1", "ADV+4") if full else ("UR", "ADV+1")

    # The declarative study behind the driver: one scenario per maxQ value,
    # each sweeping every pattern at its reference load.
    study = ablation_maxq_study(scale, maxq_values=maxq_values, patterns=patterns)
    assert len(study.scenarios) == len(maxq_values)
    assert len(study.expand()) == len(maxq_values) * len(patterns)
    assert study.to_dict()["name"] == "ablation-maxq"

    data = run_once(benchmark, ablation_maxq, scale, maxq_values, patterns, runner=runner)

    rows = []
    for pattern, per_maxq in data.items():
        for maxq, metrics in per_maxq.items():
            rows.append({"pattern": pattern, "maxQ": maxq, **metrics})
    print("\nSection 2.3.2 — naive Q-routing maxQ ablation\n" + format_table(rows))

    # UR prefers small maxQ (short, near-minimal paths): hops grow with maxQ.
    ur = data["UR"]
    assert ur[min(maxq_values)]["hops"] <= ur[max(maxq_values)]["hops"] + 0.5
    for pattern, per_maxq in data.items():
        for maxq, metrics in per_maxq.items():
            assert metrics["throughput"] >= 0.0
            assert metrics["hops"] <= maxq + 3 + 1e-9
    benchmark.extra_info["ablation_maxq"] = data
