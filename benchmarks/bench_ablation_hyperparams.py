"""Section 4 design-choice ablation: minimal-path bias threshold and feedback rule.

Sweeps the source-router threshold ``q_thld1`` and compares the two feedback
variants (on-policy vs the literal Q-routing row-minimum) under adversarial
traffic, where the differences matter most.

The grid is the declarative ``ablation-hyperparams`` study
(:func:`repro.scenarios.catalog.ablation_hyperparams_study`);
:func:`~repro.experiments.figures.ablation_hyperparams` is a thin reducer
over it, so the same runs are reachable as ``repro-sim study run
ablation-hyperparams`` and share the result cache with this benchmark.
"""

import os

import pytest

from repro.experiments import ablation_hyperparams
from repro.scenarios.catalog import ablation_hyperparams_study
from repro.stats.report import format_table

pytestmark = pytest.mark.parallel


def test_ablation_hyperparams(benchmark, run_once, scale, runner):
    full = bool(os.environ.get("REPRO_SCALE"))
    thresholds = (0.0, 0.2, 0.5) if full else (0.2, 0.5)
    modes = ("onpolicy", "greedy")

    # The declarative study behind the driver: one scenario per
    # (feedback, q_thld1) combination, all on ADV+1 at its reference load.
    study = ablation_hyperparams_study(scale, "ADV+1", None, thresholds, modes)
    assert len(study.scenarios) == len(thresholds) * len(modes)
    assert study.to_dict()["name"] == "ablation-hyperparams"

    rows = run_once(
        benchmark, ablation_hyperparams, scale, "ADV+1", None, thresholds, modes,
        runner=runner,
    )

    print("\nSection 4 — Q-adaptive hyper-parameter ablation (ADV+1)\n" + format_table(rows))

    assert len(rows) == len(thresholds) * len(modes)
    for row in rows:
        assert row["throughput"] >= 0.0
        assert row["hops"] <= 5.0 + 1e-9
    benchmark.extra_info["ablation_hyperparams"] = rows
