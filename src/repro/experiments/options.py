"""Unified run-options facade for the experiment entry points.

One dataclass, :class:`RunOptions`, carries everything that controls *how* a
run executes (storage, parallelism, caching, progress, telemetry, faults),
while the spec/study keeps describing *what* is simulated.

Every entry point accepts ``options=RunOptions(...)``.  Fields irrelevant to
an entry point (e.g. ``workers`` on a single :func:`run_experiment`) are
simply unused there.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from repro.faults.schedule import FaultSchedule

if TYPE_CHECKING:  # runtime imports stay local: parallel imports the harness
    from repro.experiments.harness import ExperimentSpec
    from repro.experiments.parallel import RunProgress, SweepRunner
    from repro.store import ArtifactStore

__all__ = ["RunOptions"]


@dataclass
class RunOptions:
    """How to execute a run/sweep/study (storage, parallelism, instrumentation).

    Parameters
    ----------
    save_state:
        Checkpoint id to persist the learned state of a single run under
        (:func:`~repro.experiments.harness.run_experiment`, either engine).
    store:
        Artifact store for checkpoints: an
        :class:`~repro.store.ArtifactStore`, a directory path, or ``None``
        for the default store.
    name:
        Checkpoint id for :func:`~repro.experiments.harness.train_experiment`.
    reuse:
        Reuse an existing checkpoint with the same spec fingerprint instead
        of retraining (train entry points only).
    workers:
        Worker processes for sweeps/studies (``None`` → environment-driven
        default; ``0`` → one per CPU; ``1`` → serial).
    cache:
        Result cache for sweeps/studies: ``True`` for the default directory,
        a path for a specific one, ``False``/``None`` to disable.
    progress:
        Per-completed-run progress callback (``True`` for the stderr
        default printer).
    telemetry:
        Probe names attached to every spec executed under these options
        (merged into each spec's own ``telemetry`` tuple).
    faults:
        :class:`~repro.faults.schedule.FaultSchedule` applied to every spec
        executed under these options (a spec's own ``faults`` wins).
    backend:
        Read by :func:`~repro.experiments.harness.run_replicates` only.
        ``"scalar"`` (the default): one
        :func:`~repro.experiments.harness.run_experiment` call per seed, each
        picking its engine by capability.  ``"batched"``: the seeds run
        concurrently, one job per seed on up to one worker per CPU, through
        :func:`repro.engine.batch.run_batch` (bit-identical per replicate),
        which refuses a spec the flat kernel cannot reproduce with
        :class:`~repro.engine.batch.errors.UnsupportedByBackend` instead of
        falling back.
    """

    save_state: Optional[str] = None
    store: Union[None, str, "os.PathLike[str]", "ArtifactStore"] = None
    name: Optional[str] = None
    reuse: bool = True
    workers: Optional[int] = None
    cache: Union[None, bool, str, "os.PathLike[str]"] = None
    progress: Union[None, bool, Callable[["RunProgress"], None]] = None
    telemetry: Tuple[str, ...] = ()
    faults: Optional[FaultSchedule] = None
    backend: str = "scalar"

    def __post_init__(self) -> None:
        if isinstance(self.telemetry, str):
            self.telemetry = (self.telemetry,)
        else:
            self.telemetry = tuple(self.telemetry)
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ValueError(
                f"faults must be a FaultSchedule, got {type(self.faults).__name__}"
            )
        if self.backend not in ("scalar", "batched"):
            raise ValueError(
                f"backend must be 'scalar' or 'batched', got {self.backend!r}"
            )

    # -------------------------------------------------------------- resolution
    def apply_to_spec(self, spec: "ExperimentSpec") -> "ExperimentSpec":
        """Spec with these options' telemetry/faults folded in.

        The spec's own fields win over the options' (options provide
        defaults for whole sweeps; a spec states its own requirements).
        """
        updates: Dict[str, object] = {}
        if self.telemetry:
            merged = tuple(dict.fromkeys((*spec.telemetry, *self.telemetry)))
            if merged != spec.telemetry:
                updates["telemetry"] = merged
        if self.faults is not None and spec.faults is None:
            updates["faults"] = self.faults
        return spec.with_overrides(**updates) if updates else spec

    def make_runner(self) -> Optional["SweepRunner"]:
        """A :class:`~repro.experiments.parallel.SweepRunner` configured from
        ``workers``/``cache``/``progress``, or ``None`` when none of them is
        set (callers then fall back to the environment-driven default)."""
        if self.workers is None and self.cache in (None, False) \
                and self.progress in (None, False):
            return None
        from repro.experiments.parallel import (
            DEFAULT_CACHE_DIR,
            SweepRunner,
            print_progress,
        )

        if self.cache in (None, False):
            cache_dir = None
        elif self.cache is True:
            cache_dir = DEFAULT_CACHE_DIR
        else:
            cache_dir = self.cache
        if self.progress in (None, False):
            progress = None
        elif self.progress is True:
            progress = print_progress
        else:
            progress = self.progress
        workers = 1 if self.workers is None else self.workers
        return SweepRunner(workers=workers, cache_dir=cache_dir, progress=progress)
