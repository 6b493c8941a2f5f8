"""The one run-time option no entry point takes as a keyword: ``backend``.

What is simulated lives on the spec, scenario or study; where it runs is the
:class:`~repro.experiments.parallel.SweepRunner`; what to save is a keyword
of the entry point that saves it.  :class:`RunOptions` is left holding the
replicate grouping of :func:`~repro.experiments.harness.run_replicates`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunOptions"]


@dataclass
class RunOptions:
    """How :func:`~repro.experiments.harness.run_replicates` groups its seeds.

    Parameters
    ----------
    backend:
        ``"scalar"`` (the default): one
        :func:`~repro.experiments.harness.run_experiment` call per seed, each
        picking its engine by capability.  ``"batched"``: the seeds run
        concurrently, one job per seed on up to one worker per CPU, through
        :func:`repro.engine.batch.run_batch` (bit-identical per replicate),
        which refuses a spec the flat kernel cannot reproduce with
        :class:`~repro.engine.batch.errors.UnsupportedByBackend` instead of
        falling back.
    """

    backend: str = "scalar"

    def __post_init__(self) -> None:
        if self.backend not in ("scalar", "batched"):
            raise ValueError(
                f"backend must be 'scalar' or 'batched', got {self.backend!r}"
            )
