#!/usr/bin/env python
"""Declarative scenarios: build, serialize, reload and run a Study.

Shows the scenario API end to end on a deliberately tiny system:

1. compose a custom :class:`~repro.scenarios.Study` (two scenarios: a
   routing comparison grid and a dynamic-load schedule run),
2. save it as a JSON scenario file and reload it (round-trip guaranteed),
3. run it through a cached :class:`~repro.experiments.SweepRunner` twice —
   the second run is served entirely from the on-disk cache,
4. export a paper figure's study (``fig5``): every figure is a catalog
   study, so ``repro-sim figure fig5`` and the exported scenario file run
   the same grid and share the cache.

Run:
    python examples/scenario_files.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import DragonflyConfig
from repro.experiments import SweepRunner
from repro.scenarios import Scenario, Study, study_by_name
from repro.stats.report import format_table
from repro.traffic import LoadSchedule


def build_study() -> Study:
    """A two-scenario study on the 6-node toy Dragonfly."""
    return Study(
        name="demo",
        description="scenario-file walkthrough (toy sizes)",
        config=DragonflyConfig.tiny(),
        sim_time_ns=6_000.0,
        warmup_ns=3_000.0,
        scenarios=[
            # Grid: 3 algorithms x 2 patterns x 2 loads.
            Scenario(
                name="compare",
                routing=("MIN", "UGALn", "Q-adp"),
                pattern=("UR", "ADV+1"),
                loads=(0.1, 0.3),
            ),
            # Dynamic load: one Q-adp run whose offered load steps 0.1 -> 0.4.
            Scenario(
                name="load-step",
                routing=("Q-adp",),
                pattern=("UR",),
                schedule=LoadSchedule.step(0.1, 3_000.0, 0.4),
                warmup_ns=0.0,
            ),
        ],
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-scenarios-"))
    study = build_study()

    # --- serialize + reload: the file is the study -------------------------
    path = study.save(workdir / "demo.json")
    reloaded = Study.load(path)
    assert reloaded.to_dict() == study.to_dict()
    print(f"scenario file: {path} ({path.stat().st_size} bytes, "
          f"{len(reloaded.expand())} runs)")

    # --- run with a cache: the second invocation simulates nothing ---------
    runner = SweepRunner(workers=1, cache_dir=workdir / "cache")
    result = reloaded.run(runner)
    print(f"\nfirst run: simulated={runner.simulated} cache_hits={runner.cache_hits}")
    print(format_table(result.rows()))

    rerun = SweepRunner(workers=1, cache_dir=workdir / "cache")
    reloaded.run(rerun)
    print(f"re-run:    simulated={rerun.simulated} cache_hits={rerun.cache_hits}")

    # --- every paper figure is a study --------------------------------------
    fig5 = study_by_name("fig5")
    fig5_path = fig5.save(workdir / "fig5.json")
    print(f"\nexported {fig5.name!r} ({len(fig5.expand())} runs) to {fig5_path}")
    print("replay it with: repro-sim study run", fig5_path)


if __name__ == "__main__":
    main()
