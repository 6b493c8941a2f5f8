"""Experiment harness: presets, the single-run driver and the sweep runner.

The paper's tables and figures are catalog studies: ``figure(name, scale,
runner=...)`` in :mod:`repro.scenarios.catalog` builds one, runs it here and
lays out its data.

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
    "default_scale",
    "figure5_sweep",
    "TrainResult",
    "run_experiment",
    "run_replicates",
    "train_experiment",
]


def __getattr__(name: str) -> object:
    """``figure5_sweep``, kept only because ``ledger/adapters.py`` imports it
    from here; it lives in the catalog, which sits above this package.
    Delete both when the ledger calls ``figure("fig5", ...)``."""
    if name == "figure5_sweep":
        from repro.scenarios.catalog import figure5_sweep

        return figure5_sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
