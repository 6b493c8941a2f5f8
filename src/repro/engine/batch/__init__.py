"""Batched replicate backend: run many seeds of one spec on the flat kernel.

The batched backend runs N replicates of the *same* ExperimentSpec under
derived seeds: replicate-independent precompute (topology wiring,
minimal-route tables, initial Q-tables — see :mod:`repro.engine.batch.model`)
is paid once per batch, each replicate's Q-tables are nested lists indexed
``[router][row][column]``, and provably no-op events are accounted for
without travelling through the per-replicate calendar queues
(:mod:`repro.engine.batch.kernel`).  The seeds run concurrently, one job per
seed on a pool of up to one worker per CPU.

Per-replicate results are **bit-identical** to the object-graph engine — same
event ordering, same float accumulation order, same RNG draws — or the spec
is refused up front with :class:`UnsupportedByBackend` (never a silent
approximation).  ``run_experiment`` runs every spec the kernel accepts here as
a batch of one — warm starts and learned-state exports included — and a
batch of many seeds is :func:`run_batch` / :class:`BatchSimulation`.
:func:`check_batchable` answers which engine a spec gets.
"""

from repro.engine.batch.errors import UnsupportedByBackend
from repro.engine.batch.model import BatchModel, build_model, check_batchable
from repro.engine.batch.runner import BatchSimulation, run_batch

__all__ = [
    "BatchModel",
    "BatchSimulation",
    "UnsupportedByBackend",
    "build_model",
    "check_batchable",
    "run_batch",
]
