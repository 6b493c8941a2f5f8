#!/usr/bin/env python
"""Policy transfer with the staged study API: train on UR, evaluate elsewhere.

Q-adaptive's tables are trained once under uniform-random traffic — the
``train`` stage of the study — and the resulting checkpoint warm-starts
every evaluation run: the adversarial patterns ADV+1 and ADV+4 the policy
never saw during training, plus a shifted-load UR sweep.  This is the
generalization axis emphasised by related MARL-routing work (DeepCQ+'s
policy robustness across dynamic conditions): how much of the learned
congestion knowledge survives a traffic-pattern change, given that learning
continues online from the checkpoint during each evaluation?

The training run is memoized in the artifact store, so re-running this
script re-trains nothing; delete the store directory to start cold.

Run:
    python examples/transfer_study.py [store_dir]
"""

from __future__ import annotations

import sys

from repro.experiments.presets import BENCH_SCALE
from repro.scenarios.catalog import transfer_study
from repro.stats.report import format_table


def main() -> None:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else ".cache/checkpoints"
    study = transfer_study(BENCH_SCALE)
    print(f"study: {study.name} — {study.description}")
    stage = study.train
    print(f"train stage: {stage.routing} on {stage.pattern} @ {stage.load} "
          f"for {stage.train_ns / 1_000.0:g} us\n")

    result = study.run(store=store_dir)

    for routing, path in result.checkpoints.items():
        print(f"checkpoint for {routing}: {path}")
    print()

    for scenario in ("adversarial", "shift"):
        rows = []
        for point, run in result:
            if point.scenario != scenario:
                continue
            row = run.summary_row()
            row["warm"] = "yes" if point.spec.warm_start else "no"
            rows.append(row)
        print(f"== {scenario} ==")
        print(format_table(rows))
        print()

    print("Reading the tables: the policy was trained on UR only.  Under the "
          "adversarial patterns it starts from transferred (not cold) state "
          "and adapts online; under shifted UR loads the transferred tables "
          "are immediately near-optimal.")


if __name__ == "__main__":
    main()
