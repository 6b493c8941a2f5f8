"""Experiment harness: presets, single-run driver, and per-figure reproduction.

The figure drivers (:mod:`repro.experiments.figures`) are re-exported
*lazily* (PEP 562): they reduce over the declarative studies in
:mod:`repro.scenarios.catalog`, which in turn builds on the presets and the
harness of this package — an eager import here would close that loop.
``from repro.experiments import figure5_sweep`` works exactly as before.

Each entry point takes only the keywords it reads:
``run_experiment(spec, *, save_state, store)``,
``train_experiment(spec, *, save_state, store, reuse)`` and
``run_replicates(spec, n, options=RunOptions(backend=...))``.  Probes and
faults belong to the spec; pool size, cache and progress to the
:class:`SweepRunner`.
"""

from repro.experiments.harness import (
    ExperimentResult,
    ExperimentSpec,
    TrainResult,
    run_experiment,
    run_replicates,
    train_experiment,
)
from repro.experiments.options import RunOptions
from repro.experiments.parallel import (
    ExperimentResultData,
    ResultCache,
    SweepRunner,
    default_runner,
    print_progress,
    spec_fingerprint,
)
from repro.experiments.presets import (
    BENCH_SCALE,
    PAPER_SCALE_1056,
    PAPER_SCALE_2550,
    REDUCED_SCALE,
    ExperimentScale,
    available_scales,
    default_scale,
)

__all__ = [
    "BENCH_SCALE",
    "ExperimentResult",
    "ExperimentResultData",
    "ExperimentScale",
    "ExperimentSpec",
    "ResultCache",
    "RunOptions",
    "SweepRunner",
    "available_scales",
    "default_runner",
    "print_progress",
    "spec_fingerprint",
    "PAPER_SCALE_1056",
    "PAPER_SCALE_2550",
    "REDUCED_SCALE",
    "ablation_hyperparams",
    "ablation_maxq",
    "default_scale",
    "figure5_sweep",
    "figure6_tail_latency",
    "figure7_convergence",
    "figure8_dynamic_load",
    "figure9_scaleup",
    "TrainResult",
    "run_experiment",
    "run_replicates",
    "table1_configurations",
    "table_qtable_memory",
    "train_experiment",
]

_FIGURE_EXPORTS = frozenset((
    "ablation_hyperparams",
    "ablation_maxq",
    "figure5_sweep",
    "figure6_tail_latency",
    "figure7_convergence",
    "figure8_dynamic_load",
    "figure9_scaleup",
    "table1_configurations",
    "table_qtable_memory",
))


def __getattr__(name: str) -> object:
    if name in _FIGURE_EXPORTS:
        from repro.experiments import figures

        return getattr(figures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _FIGURE_EXPORTS)
